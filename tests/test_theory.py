import math

import numpy as np
import pytest

from grovertrain import amplify as am
from grovertrain import theory as th


def table_from_counts(counts, n_samples):
    width = int(len(counts)).bit_length() - 1
    return am.AccuracyTable(np.array(counts, dtype=np.int64), n_samples, width)


class TestEpsilonOptimalSet:
    def test_zero_epsilon_keeps_only_the_best(self):
        t = table_from_counts([3, 7, 7, 1], 8)
        assert th.epsilon_optimal_set(t, 0.0) == [1, 2]

    def test_wide_epsilon_keeps_everything(self):
        t = table_from_counts([3, 7, 7, 1], 8)
        assert th.epsilon_optimal_set(t, 1.0) == [0, 1, 2, 3]

    def test_threshold_is_inclusive(self):
        t = table_from_counts([4, 8], 8)
        assert th.epsilon_optimal_set(t, 0.5) == [0, 1]

    def test_negative_epsilon_rejected(self):
        t = table_from_counts([4, 8], 8)
        with pytest.raises(ValueError):
            th.epsilon_optimal_set(t, -0.1)


class TestAlphaBeta:
    def test_toy_table_saturates(self, toy_table):
        alpha, beta = th.alpha_beta(toy_table, 0.5)
        assert alpha == 1.0 and beta == 1.0

    def test_line_task_point(self, edge_table):
        alpha, beta = th.alpha_beta(edge_table, 0.0)
        assert alpha == 1 / 64
        assert beta == 1 / 255

    def test_exact_ratios_on_small_table(self):
        t = table_from_counts([1, 2, 3, 6], 6)
        alpha, beta = th.alpha_beta(t, 0.5)
        # cutoff 0.5 keeps counts 3 and 6
        assert alpha == 9 / 12
        assert beta == 2 / 2

    def test_all_zero_accuracy_rejected(self):
        t = table_from_counts([0, 0], 4)
        with pytest.raises(ValueError):
            th.alpha_beta(t, 0.1)

    def test_everything_optimal_rejected(self):
        t = table_from_counts([4, 4], 4)
        with pytest.raises(ValueError):
            th.alpha_beta(t, 0.0)


class TestQueryBounds:
    def test_single_copy_form(self):
        assert th.queries_1pd(0.5, 4) == 4.0
        assert th.queries_1pd(1.0, 9) == 3.0

    def test_parallel_copy_pinned_value(self):
        assert th.queries_kpd(0.1, 0.01, 4, 2) == pytest.approx(14.48,
                                                                abs=1e-12)

    def test_single_copy_identity_is_bitwise(self):
        alphas = [1.0, 0.5, 0.25, 1 / 3, 1 / 64, 0.9, 1e-3, 1e-9]
        for alpha in alphas:
            for beta in (1.0, 0.37, 1e-6):
                for C in (2, 4, 10, 100):
                    assert th.queries_kpd(alpha, beta, C, 1) == \
                        th.queries_1pd(alpha, C)

    def test_monotone_in_class_count(self):
        qs = [th.queries_kpd(0.1, 0.05, C, 3) for C in (2, 3, 4, 10)]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        q1 = [th.queries_1pd(0.2, C) for C in (2, 3, 4, 10)]
        assert all(a < b for a, b in zip(q1, q1[1:]))

    def test_overflow_falls_back_to_log_space(self):
        # the direct power overflows but the product is comfortably finite
        q = th.queries_kpd(1e-200, 1e-150, 4, 2)
        assert math.isfinite(q)
        want = math.exp(math.log(1e-150) + 2 * math.log(1e200 - 1.0)) * 2 * 4
        assert q == pytest.approx(want, rel=1e-9)

    def test_overflow_past_float_range_is_inf(self):
        assert th.queries_kpd(1e-300, 1.0, 4, 5) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            th.queries_1pd(0.0, 4)
        with pytest.raises(ValueError):
            th.queries_1pd(0.5, 1)
        with pytest.raises(ValueError):
            th.queries_kpd(0.5, 0.0, 4, 2)
        with pytest.raises(ValueError):
            th.queries_kpd(0.5, 1.5, 4, 2)
        with pytest.raises(ValueError):
            th.queries_kpd(0.5, 0.5, 4, 0)


class TestBestCopyCount:
    def test_pinned_examples(self):
        assert th.optimal_k(0.1, 0.01, 4) == 2
        assert th.optimal_k(0.5, 0.4, 100) == 1

    def test_condition_flag_matches(self):
        assert th.k_star_condition(0.1, 0.01, 4)
        assert not th.k_star_condition(0.5, 0.4, 100)
        assert not th.k_star_condition(0.4, 0.5, 4)
        assert not th.k_star_condition(0.9, 0.5, 4)  # m degenerates to 1

    def test_degenerate_ratio_warns_and_returns_one(self):
        with pytest.warns(UserWarning):
            assert th.optimal_k(0.3, 0.3, 4) == 1
        with pytest.warns(UserWarning):
            assert th.optimal_k(0.2, 0.5, 4) == 1

    def test_small_m_returns_one_silently(self):
        assert th.optimal_k(0.9, 0.5, 4) == 1

    def test_brute_force_scans_only_the_window(self):
        alpha, beta = 1 / 64, 1 / 255
        assert th.brute_force_optimal_k(alpha, beta, 4, 1) == 1
        assert th.brute_force_optimal_k(alpha, beta, 4, 2) == 1
        assert th.brute_force_optimal_k(alpha, beta, 4, 3) == 3
        assert th.brute_force_optimal_k(alpha, beta, 4, 10) == 3

    def test_brute_force_prefers_smallest_k_on_ties(self):
        # every bound value is inf here, so all k tie and the first wins
        assert th.brute_force_optimal_k(5e-324, 1e-300, 4, 6) == 1

    def test_brute_force_validation(self):
        with pytest.raises(ValueError):
            th.brute_force_optimal_k(0.5, 0.5, 4, 0)

    def test_line_task_closed_form_and_exhaustive_disagree(self, edge_table):
        # regression fact: at this task's parameter point the closed-form
        # pick is k=4 while the bound itself is minimized at k=3 (the
        # applicability condition holds, yet the formula lands one high)
        alpha, beta = th.alpha_beta(edge_table, 0.0)
        C = 4
        assert th.k_star_condition(alpha, beta, C)
        assert th.optimal_k(alpha, beta, C) == 4
        assert th.brute_force_optimal_k(alpha, beta, C, 8) == 3
        qs = {k: th.queries_kpd(alpha, beta, C, k) for k in (1, 2, 3, 4)}
        assert qs[1] == pytest.approx(128.0, abs=1e-9)
        assert qs[3] < qs[1] < qs[2]
        assert qs[3] < qs[4] < qs[1]


class TestTheoryCsv:
    def test_layout(self):
        out = th.theory_csv([(0.1, 0.5, 0.25, 4, 2, 14.5, 2)])
        assert out == ("epsilon,alpha,beta,C,k,bound_value,k_star\n"
                       "0.1,0.5,0.25,4,2,14.5,2\n")
