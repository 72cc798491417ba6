import hashlib
import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grovertrain import amplify as am
from grovertrain import boolcirc as bc
from grovertrain import cli
from grovertrain import datasets as ds
from grovertrain import tasks
from conftest import index_to_bits, make_synthetic_idx_dir, samples
from test_boolcirc import FOLDING_CIRCUITS, random_circuits, \
    tiny_mnist_weights


def table_from_counts(counts, n_samples):
    width = int(len(counts)).bit_length() - 1
    return am.AccuracyTable(np.array(counts, dtype=np.int64), n_samples, width)


small_tables = st.integers(1, 3).flatmap(
    lambda w: st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, n), min_size=2 ** w,
                           max_size=2 ** w).map(
            lambda cs: table_from_counts(cs, n))))


class TestAccuracyTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            am.AccuracyTable(np.array([1, 2, 3]), 4, 2)
        with pytest.raises(ValueError):
            am.AccuracyTable(np.array([1, 5]), 4, 1)
        with pytest.raises(ValueError):
            am.AccuracyTable(np.array([-1, 2]), 4, 1)

    def test_accuracy_and_normalization(self):
        t = table_from_counts([1, 3], 4)
        assert np.array_equal(t.accuracy(), [0.25, 0.75])
        assert t.normalized_accuracy().sum() == pytest.approx(1.0, abs=1e-15)

    def test_sweep_matches_pointwise_eval_toy(self, toy_bundle, toy_table):
        m, d = toy_bundle.model, toy_bundle.full
        for wi in range(2 ** m.weight_width):
            w = index_to_bits(wi, m.weight_width)
            hits = sum(bc.eval_circuit(m, w, x) == y for x, y in samples(d))
            assert toy_table.counts[wi] == hits

    def test_sweep_matches_pointwise_eval_on_subset(self, edge_bundle):
        m = edge_bundle.model
        full = edge_bundle.full
        sub = ds.Dataset(full.x[140:200], full.y[140:200], 4)
        t = am.accuracy_table(m, sub)
        for wi in (0, 1, 136, 137, 200, 255):
            w = index_to_bits(wi, m.weight_width)
            hits = sum(int(bc.eval_circuit(m, w, x) == y)
                       for x, y in samples(sub))
            assert t.counts[wi] == hits

    # sample counts from one up to past 256
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 255, 256, 257])
    @pytest.mark.parametrize("n_w", [3, 6, 7])
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_sweep_matches_per_weight_reference(self, n_w, n_samples, data):
        m = data.draw(st.one_of(
            st.sampled_from([c for c in FOLDING_CIRCUITS
                             if c.weight_width == n_w]),
            random_circuits(n_w=st.just(n_w), n_x=st.integers(9, 10))))
        n_x = m.input_width
        xs = data.draw(st.lists(st.integers(0, (1 << n_x) - 1),
                                min_size=min(n_samples, 1 << n_x),
                                max_size=n_samples, unique=True))
        teacher = index_to_bits(
            data.draw(st.integers(0, (1 << n_w) - 1)), n_w)
        rows = [index_to_bits(xi, n_x) for xi in xs]
        d = ds.Dataset(rows, [bc.eval_circuit(m, teacher, x) for x in rows],
                       2)
        want = [sum(bc.eval_circuit(m, index_to_bits(wi, n_w), x) == y
                    for x, y in samples(d))
                for wi in range(1 << n_w)]
        assert am.accuracy_table(m, d).counts.tolist() == want

    def test_tiny_mnist_counts_are_digit_decode_counts(self, tmp_path):
        """Exact match on the canonical outputs counts what decoding the
        detector wires (o0 set: 1, else o1 set: 2, else 7) and comparing
        digits counts."""
        idx = make_synthetic_idx_dir(tmp_path, n_train=300, n_test=100)
        bundle = tasks.load_task("tiny-mnist", mnist_dir=str(idx))
        raw = bc.ModelCircuit(20, 9, bundle.model.gates, ("o0", "o1"))
        want = np.zeros((1024, 1024), dtype=np.int64)
        for x, y in samples(bundle.train):
            vals = tiny_mnist_weights()
            vals.update((f"x{j}", np.bool_(b)) for j, b in enumerate(x))
            vals = bc.eval_wires(raw.gates, vals)
            o0, o1 = vals["o0"], vals["o1"]
            # weights whose detectors name the label's digit: 1, 2 or 7
            same_digit = {(1, 0): o0, (0, 1): ~o0 & o1,
                          (0, 0): ~o0 & ~o1}[y]
            want += same_digit
        want = want.ravel()
        got = am.accuracy_table(bundle.model, bundle.train).counts
        assert np.array_equal(got, want)

    def test_one_table_per_dataset_and_circuit_structure(self, edge_bundle):
        d = edge_bundle.full
        t = am.accuracy_table(edge_bundle.model, d)
        assert am.accuracy_table(edge_bundle.model, d) is t
        # an equal circuit built anew shares the table
        assert am.accuracy_table(bc.edge_detection_model(), d) is t
        with pytest.raises(ValueError, match="read-only"):
            t.counts[0] = 0
        other = bc.edge_detection_model()
        other.gates.pop()  # o1's last gate gone: another structure
        other.gates.append(bc.Gate("XOR", "o1", ("bm", "w3")))
        u = am.accuracy_table(other, d)
        assert u is not t and not np.array_equal(u.counts, t.counts)
        assert am.accuracy_table(other, d) is u
        # another dataset with the same samples computes its own
        copy = ds.Dataset(d.x, d.y, d.class_count)
        fresh = am.accuracy_table(edge_bundle.model, copy)
        assert fresh is not t and np.array_equal(fresh.counts, t.counts)

    def test_width_mismatch_rejected(self, toy_bundle, sed_bundle):
        with pytest.raises(ValueError):
            am.accuracy_table(toy_bundle.model, sed_bundle.full)

    def test_line_task_structural_pins(self, edge_table, sed_bundle):
        # every weight answers 64 of the 512 images correctly, one weight
        # answers all of them
        assert int(edge_table.counts.sum()) == 64 * 512
        assert edge_table.counts[136] == 512
        assert int((edge_table.counts == 512).sum()) == 1
        sed_full = am.accuracy_table(sed_bundle.model, sed_bundle.full)
        assert int(sed_full.counts.sum()) == 8 * 512


class TestCountPowers:
    """Exact solution statistics: c**k and |S| from the table's
    count_powers(k); |S| and T = 2**d_w * (N + n_aux)**k on the plan."""

    def test_small_exact(self):
        t = table_from_counts([2, 0, 3, 1], 4)
        pow_by_count, total = t.count_powers(2)
        assert t.histogram.tolist() == [1, 1, 1, 1, 0]
        assert [pow_by_count[c] for c in t.counts] == [4, 0, 9, 1]
        assert total == 14
        plan = am.make_plan(t, 2, pad=1)
        assert (plan.n_solutions, plan.n_states) == (14, 4 * 25)
        assert plan.n_states >> t.weight_width == 25

    def test_big_integer_path(self):
        t = table_from_counts([512, 100], 512)
        pow_by_count, total = t.count_powers(8)
        h = t.histogram
        assert np.flatnonzero(h).tolist() == [100, 512]
        assert h[[100, 512]].tolist() == [1, 1]
        assert (pow_by_count[100], pow_by_count[512]) == (100 ** 8, 512 ** 8)
        assert sum(pow_by_count) == total
        assert total == 512 ** 8 + 100 ** 8
        plan = am.make_plan(t, 8, pad=0)
        assert plan.n_solutions == total and plan.n_states == 2 * 512 ** 8

    def test_histogram_groups_repeated_counts(self):
        t = table_from_counts([512, 100, 100, 512, 7, 100, 512, 512], 512)
        h = t.histogram
        assert len(h) == 513 and int(h.sum()) == 8
        assert np.flatnonzero(h).tolist() == [7, 100, 512]
        assert h[[7, 100, 512]].tolist() == [1, 3, 4]
        total = t.count_powers(9)[1]
        assert total == 7 ** 9 + 3 * 100 ** 9 + 4 * 512 ** 9
        assert total == sum(int(c) ** 9 for c in t.counts)

    def test_padding_changes_only_state_counts(self):
        t = table_from_counts([2, 0, 3, 1], 4)
        plan = am.make_plan(t, 3, pad=0)
        padded = am.make_plan(t, 3, pad=2)
        assert padded.n_solutions == plan.n_solutions == t.count_powers(3)[1]
        assert (plan.n_states, padded.n_states) == (4 * 4 ** 3, 4 * 6 ** 3)

    @pytest.mark.parametrize("k, pad", [(1, "auto"), (4, "auto"), (4, 7),
                                        (300, "auto")])
    def test_powers_are_built_once_per_k(self, edge_bundle, k, pad):
        # a plan, its padded angle and its evolution share one c**k list;
        # what they compute is the same as from a table that never saw k
        # (a new dataset, since each keeps its own tables)
        def fresh():
            d = edge_bundle.full
            return am.accuracy_table(edge_bundle.model,
                                     ds.Dataset(d.x, d.y, d.class_count))
        t = fresh()
        first = t.count_powers(k)
        assert t.count_powers(k) is first
        plan = am.make_plan(t, k, pad=pad)
        dist = am.evolve_distribution(t, plan)
        assert t.count_powers(k) is first
        assert plan.n_solutions == first[1]
        cold = fresh()
        assert am.make_plan(cold, k, pad=pad) == plan
        assert np.array_equal(am.evolve_distribution(fresh(), plan).p,
                              dist.p)
        assert t.count_powers(k + 1)[0] != first[0]

    def test_validation(self):
        t = table_from_counts([1, 0], 2)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                t.count_powers(k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                am.make_plan(t, k)
        with pytest.raises(ValueError, match="n_aux must be >= 0"):
            am.make_plan(t, 1, pad=-1)
        with pytest.raises(ValueError, match="n_aux must be >= 0"):
            am.leakage_bound(t, 1, -1, 0.5)
        plan = am.make_plan(t, 1, pad=0)
        for bad in ({"k": 0}, {"n_aux": -1}):
            with pytest.raises(ValueError, match="k must be >= 1 and n_aux"):
                am.GroverPlan(**{**vars(plan), **bad})
            # a plan altered after construction still fails in evolution
            hand = am.GroverPlan(**vars(plan))
            vars(hand).update(bad)
            with pytest.raises(ValueError):
                am.evolve_distribution(t, hand)
        for bad, why in (({"theta": 0.0}, "theta"),
                         ({"theta": math.pi / 2}, "theta"),
                         ({"g": -1}, "iteration count"),
                         ({"residual": -0.1}, "residual"),
                         ({"residual": 1.1}, "residual")):
            with pytest.raises(ValueError, match=why):
                am.GroverPlan(**{**vars(plan), **bad})


class TestAngles:
    def test_exact_angle_values(self):
        assert am.theta_exact(1, 2) == pytest.approx(math.pi / 4, abs=1e-15)
        assert am.theta_exact(1, 4) == pytest.approx(math.asin(0.5), abs=0)
        assert am.theta_exact(1, 2, use_sqrt=False) == pytest.approx(
            math.pi / 6, abs=1e-15)

    def test_exact_angle_degenerate(self):
        with pytest.raises(am.DegenerateAngleError):
            am.theta_exact(0, 8)
        with pytest.raises(am.DegenerateAngleError):
            am.theta_exact(8, 8)

    def test_shot_angle_concentrates(self):
        rng = np.random.default_rng(7)
        theta = am.theta_shots(1, 4, 200_000, rng)  # solution ratio 1/4
        # 5 sigma around the exact ratio, pushed through asin(sqrt(.))
        sigma = math.sqrt(0.25 * 0.75 / 200_000)
        lo = math.asin(math.sqrt(0.25 - 5 * sigma))
        hi = math.asin(math.sqrt(0.25 + 5 * sigma))
        assert lo < theta < hi

    def test_shot_angle_is_seed_deterministic(self):
        a = am.theta_shots(1, 4, 100, np.random.default_rng(3))
        b = am.theta_shots(1, 4, 100, np.random.default_rng(3))
        assert a == b

    @pytest.mark.parametrize("shots", [1, 8, 9, 100])
    def test_shot_angle_counts_in_blocks(self, monkeypatch, shots):
        # blocks of 8 uniforms: the same stream and the same hit count as
        # one array of every shot's uniform
        plan = am.make_plan(table_from_counts([3, 1, 0, 2], 4), 1, pad=0)
        ratio = plan.n_solutions / plan.n_states
        hits = int(np.count_nonzero(
            np.random.default_rng(5).random(shots) < ratio))
        monkeypatch.setattr(am, "_SHOT_BLOCK", 8)
        rng = SizeRecorder(np.random.default_rng(5))
        if hits in (0, shots):
            with pytest.raises(am.DegenerateAngleError):
                am.theta_shots(plan.n_solutions, plan.n_states, shots, rng)
        else:
            got = am.theta_shots(plan.n_solutions, plan.n_states, shots, rng)
            assert got == am.theta_exact(hits, shots)
        assert max(rng.sizes) <= 8 and sum(rng.sizes) == shots

    def test_shot_angle_degenerate_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(am.DegenerateAngleError):
            am.theta_shots(1, 1024, 1, rng)  # ratio 1/1024
        with pytest.raises(ValueError):
            am.theta_shots(1, 1024, 0, rng)


class TestIterationsAndResidual:
    def test_pinned_counts(self):
        assert am.grover_iterations(math.asin(math.sqrt(0.5))) == 0
        assert am.grover_iterations(math.asin(0.5)) == 1
        assert am.grover_iterations(math.asin(0.5), m=1) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            am.grover_iterations(0.0)
        with pytest.raises(ValueError):
            am.grover_iterations(math.pi / 2)
        with pytest.raises(ValueError):
            am.grover_iterations(0.3, m=-1)

    def test_residual_at_quarter_ratio_is_exactly_one(self):
        theta = math.asin(0.5)
        assert am.rotation_residual(theta, 1) == 1.0

    def test_chosen_iterations_land_within_one_step(self):
        for frac in (0.001, 0.01, 0.03, 0.1, 0.2, 0.249):
            theta = math.asin(math.sqrt(frac))
            for m in (0, 1, 2):
                g = am.grover_iterations(theta, m)
                res = am.rotation_residual(theta, g)
                assert res >= math.cos(theta) ** 2 - 1e-12


def assert_smallest_pad(t, k) -> int:
    """Check, in exact fractions, that pad_auxiliary(t, k) is the smallest
    padding whose angle reaches the target; returns it."""
    n = am.pad_auxiliary(t, k)
    limit = Fraction(math.sin(am.AUTO_PAD_TARGET_THETA) ** 2 * (1 + 1e-12))
    n_w = 1 << t.weight_width
    total = Fraction(sum(int(c) ** k for c in t.counts))

    def ok(extra):
        return total / (n_w * (t.n_samples + extra) ** k) <= limit

    assert ok(n)
    assert n == 0 or not ok(n - 1)
    return n


class TestPadding:
    def test_pinned_pad_counts(self, toy_table, sed_train_table):
        assert am.pad_auxiliary(toy_table, 1) == 2
        assert am.pad_auxiliary(sed_train_table, 1) == 400

    def test_no_padding_when_angle_already_small(self, edge_table):
        assert am.pad_auxiliary(edge_table, 1) == 0

    def test_validation(self):
        empty = table_from_counts([0, 0], 2)
        with pytest.raises(am.DegenerateAngleError):
            am.pad_auxiliary(empty, 1)

    def test_overshooting_guess_steps_down(self, monkeypatch, toy_table,
                                           sed_train_table, edge_table):
        # a log-space guess far above the answer is walked down, one sample
        # at a time, to the smallest padding that reaches the target
        guesses = []

        def exp(x):
            guesses.append(10 * math.exp(x) + 100)
            return guesses[-1]
        monkeypatch.setattr(am, "math", SimpleNamespace(
            **{**vars(math), "exp": exp}))
        for t, k in ((toy_table, 1), (toy_table, 2), (sed_train_table, 1),
                     (edge_table, 1), (edge_table, 2)):
            n = assert_smallest_pad(t, k)
            assert math.ceil(guesses[-1]) - t.n_samples - 2 > n

    @settings(max_examples=60, deadline=None)
    @given(small_tables, st.integers(1, 3))
    def test_result_is_minimal(self, t, k):
        if int(t.counts.sum()) == 0:
            return
        assert_smallest_pad(t, k)


class TestPlansAndEvolution:
    def test_toy_auto_plan_pins(self, toy_table):
        plan = am.make_plan(toy_table, 1)
        assert plan.n_aux == 2
        assert plan.theta == math.asin(0.5)
        assert plan.g == 1
        assert plan.residual == 1.0
        assert plan.leakage_bound == 0.0
        assert plan.n_solutions == 2 and plan.n_states == 8

    def test_line_task_single_copy_is_lossless(self, edge_table):
        plan = am.make_plan(edge_table, 1)
        assert plan.n_aux == 0 and plan.g == 1 and plan.residual == 1.0
        dist = am.evolve_distribution(edge_table, plan)
        assert np.array_equal(dist.p, edge_table.normalized_accuracy())

    def test_line_task_four_copies_pins(self, edge_table):
        plan = am.make_plan(edge_table, 4)
        assert plan.n_aux == 0
        assert plan.g == 6
        assert plan.residual == pytest.approx(0.9990415707109468, abs=1e-12)
        dist = am.evolve_distribution(edge_table, plan)
        assert dist.p[136] == pytest.approx(0.2794570956795609, abs=1e-12)
        one = am.evolve_distribution(edge_table, am.make_plan(edge_table, 1))
        assert dist.p[136] / one.p[136] == pytest.approx(17.885, abs=2e-3)

    def test_explicit_pad_and_branch(self, toy_table):
        plan = am.make_plan(toy_table, 1, pad=6)
        assert plan.n_aux == 6
        assert plan.theta == am.theta_exact(2, 16)
        plan_b = am.make_plan(toy_table, 1, pad=2, m=1)
        assert plan_b.m == 1 and plan_b.g == 4
        assert plan_b.residual == pytest.approx(1.0, abs=1e-12)

    def test_shot_based_plan_needs_rng(self, toy_table):
        with pytest.raises(ValueError):
            am.make_plan(toy_table, 1, theta_shot_count=100)
        plan = am.make_plan(toy_table, 1, theta_shot_count=4000,
                            rng=np.random.default_rng(0))
        assert 0 < plan.theta < math.pi / 2

    def test_evolution_rejects_degenerate_tables(self):
        t = table_from_counts([0, 0], 2)
        plan = am.GroverPlan(1, 0, math.pi / 6, 0, 1, 1.0, 1, 4, 0.0)
        with pytest.raises(am.DegenerateAngleError):
            am.evolve_distribution(t, plan)
        t_all = table_from_counts([2, 2], 2)
        plan_all = am.GroverPlan(1, 0, math.pi / 6, 0, 1, 1.0, 4, 4, 0.0)
        with pytest.raises(am.DegenerateAngleError):
            am.evolve_distribution(t_all, plan_all)

    def test_zero_iterations_leave_distribution_uniform(self):
        t = table_from_counts([1, 1, 1, 0], 1)
        plan = am.make_plan(t, 1, pad=0)
        assert plan.g == 0
        dist = am.evolve_distribution(t, plan)
        assert np.allclose(dist.p, 0.25, atol=1e-15)

    def test_equal_counts_share_probability(self, edge_table):
        plan = am.make_plan(edge_table, 4)
        dist = am.evolve_distribution(edge_table, plan)
        counts = edge_table.counts
        for c in (0, 64, 128):
            idxs = np.flatnonzero(counts == c)
            if len(idxs) > 1:
                assert np.ptp(dist.p[idxs]) <= 1e-18

    def test_leakage_bound_respected(self, edge_table):
        plan = am.make_plan(edge_table, 4)
        pow_by_count, total = edge_table.count_powers(4)
        dist = am.evolve_distribution(edge_table, plan)
        share = (np.array([float(v) for v in pow_by_count])
                 / total)[edge_table.counts]
        dev = float(np.max(np.abs(dist.p - share)))
        assert dev <= plan.leakage_bound * (1 + 1e-9) + 1e-15

    @settings(max_examples=80, deadline=None)
    @given(small_tables, st.integers(1, 3))
    def test_evolution_properties(self, t, k):
        total = t.count_powers(k)[1]
        n_states = len(t.counts) * t.n_samples ** k
        if total == 0 or total >= n_states:
            return
        plan = am.make_plan(t, k, pad=0)
        assert (plan.n_solutions, plan.n_states) == (total, n_states)
        dist = am.evolve_distribution(t, plan)
        assert abs(float(dist.p.sum()) - 1.0) <= 1e-12
        assert dist.p.min() >= 0.0
        if plan.residual >= total / n_states:
            order = np.argsort(t.counts, kind="stable")
            sorted_p = dist.p[order]
            assert np.all(np.diff(sorted_p) >= -1e-15)

    @pytest.mark.parametrize("pad", ["auto", 0])
    def test_bytes_match_per_weight_formula(self, edge_table, pad):
        for k in range(1, 113):
            plan = am.make_plan(edge_table, k, pad=pad)
            got = am.evolve_distribution(edge_table, plan).p
            want = reference_evolve(edge_table, plan)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), k

    @settings(max_examples=80, deadline=None)
    @given(small_tables, st.integers(1, 40), st.sampled_from(["auto", 0, 3]))
    def test_bytes_match_per_weight_formula_small(self, t, k, pad):
        try:
            plan = am.make_plan(t, k, pad=pad)
        except am.DegenerateAngleError:
            return
        got = am.evolve_distribution(t, plan).p
        want = reference_evolve(t, plan)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("task,k", [("edge", 113), ("edge", 200),
                                        ("toy", 1030)])
    def test_large_k_stays_finite(self, task, k, edge_table, toy_table):
        # float(c**k) overflows here, so the per-weight formula cannot run
        t = {"edge": edge_table, "toy": toy_table}[task]
        for pad in ("auto", 0):
            if task == "toy" and pad == "auto":
                # one padded sample takes theta to 1.45e-91, and g to 5.4e90
                with pytest.raises(am.DegenerateAngleError, match="g="):
                    am.make_plan(t, k, pad=pad)
                continue
            plan = am.make_plan(t, k, pad=pad)
            p = am.evolve_distribution(t, plan).p
            assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12
            assert math.isfinite(plan.leakage_bound)
            if task == "edge":
                assert int(np.argmax(p)) == 136

    def test_lossless_multi_copy_matches_power_law(self):
        # counts [7, 1] with 3 padding samples put the 2-copy solution ratio
        # at exactly (49+1)/(2*10^2) = 1/4, so one rotation is lossless and
        # the distribution is the squared-count law with no leakage term
        t = table_from_counts([7, 1], 7)
        plan = am.make_plan(t, 2, pad=3)
        assert plan.theta == math.asin(0.5)
        assert plan.residual == 1.0
        dist = am.evolve_distribution(t, plan)
        s = t.counts.astype(np.float64) ** 2
        assert np.array_equal(dist.p, s / s.sum())
        assert dist.p[0] == 0.98


PLAN_PINS = Path(__file__).parent / "data" / "plan_pins.json"
# the variants each (task, k) cell runs at pad "auto", 0 and 3
PLAN_VARIANTS = {
    "exact": {},
    "shots": {"theta_shot_count": 4000},
    "ratio": {"use_sqrt": False},
    "m1": {"m": 1},
}


def plan_pin(t, k, pad, variant):
    """One plan and its evolution as plain data: floats as float.hex(),
    |S| and T as exact ints, the evolved p as the sha256 of its bytes; or
    the name of the error raised."""
    kw = dict(PLAN_VARIANTS[variant])
    if "theta_shot_count" in kw:
        kw["rng"] = np.random.default_rng(25)
    try:
        plan = am.make_plan(t, k, pad=pad, **kw)
        p = am.evolve_distribution(t, plan).p
    except am.DegenerateAngleError:
        return {"raises": "DegenerateAngleError"}
    return {"k": plan.k, "n_aux": plan.n_aux, "theta": plan.theta.hex(),
            "m": plan.m, "g": plan.g, "residual": plan.residual.hex(),
            "n_solutions": plan.n_solutions, "n_states": plan.n_states,
            "leakage_bound": plan.leakage_bound.hex(),
            "p_sha256": hashlib.sha256(p.tobytes()).hexdigest()}


class TestPlanPins:
    """Every plan field and the evolved distribution's bytes on toy,
    simplified-ed (train split) and edge at k = 1, 2, 4, 8, 40, recorded
    while the plan still read a separate solution-count record."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PLAN_PINS.read_text())

    @pytest.mark.parametrize("task", ["toy", "simplified-ed", "edge"])
    def test_plans_match_pins(self, pins, task, toy_table, sed_train_table,
                              edge_table):
        t = {"toy": toy_table, "simplified-ed": sed_train_table,
             "edge": edge_table}[task]
        for k in (1, 2, 4, 8, 40):
            for variant in PLAN_VARIANTS:
                for pad in ("auto", 0, 3):
                    key = f"{task} k={k} {variant} pad={pad}"
                    assert plan_pin(t, k, pad, variant) == pins[key], key
        assert sum(key.startswith(f"{task} ") for key in pins) == 60


def reference_evolve(t, plan):
    """Per-weight closed form that the count histogram replaces: one
    float(c**k) per weight, exact |S| and T, then normalise."""
    s = np.array([float(int(c) ** plan.k) for c in t.counts])
    total = sum(int(c) ** plan.k for c in t.counts)
    per_weight = (t.n_samples + plan.n_aux) ** plan.k
    n_states = len(t.counts) * per_weight
    if plan.residual == 1.0:
        return s / s.sum()
    a = plan.residual / total
    b = (1.0 - plan.residual) / (n_states - total)
    p = s * a + (float(per_weight) - s) * b
    return p / p.sum()


class TestSamplingAndSearch:
    def test_sample_weights_deterministic(self, edge_table):
        dist = am.evolve_distribution(edge_table, am.make_plan(edge_table, 1))
        a = am.sample_weights(dist, 32, np.random.default_rng(5))
        b = am.sample_weights(dist, 32, np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert a.shape == (32,)
        assert a.min() >= 0 and a.max() < len(dist.p)
        with pytest.raises(ValueError):
            am.sample_weights(dist, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_sample_weights_match_generator_choice(self, edge_table, seed):
        # the stream Generator.choice(n, size=m, p=p) gives, draw for draw
        t = edge_table
        dists = [am.uniform_distribution(t.weight_width)]
        dists += [am.evolve_distribution(t, am.make_plan(t, k))
                  for k in (1, 4, 8)]
        for p in ([0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0],
                  [0.25, 0.0, 0.75, 0.0, 0.0], [1.0, 0.0]):
            dists.append(am.WeightDistribution(np.array(p)))
        for dist in dists:
            rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            for m in (1, 5, 300):  # repeated calls reuse one cached cdf
                want = want_rng.choice(len(dist.p), size=m, p=dist.p)
                got = am.sample_weights(dist, m, rng)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert rng.random() == want_rng.random()
            assert np.all(dist.p[am.sample_weights(dist, 50, rng)] > 0)

    @pytest.fixture(scope="class")
    def guide_stress_dists(self, tmp_path_factory):
        """Distributions whose CDFs stress the guide cells: entries on the
        cell edges, more weights than cells, runs of zero probability, point
        masses, and the synthetic tiny-mnist k=8 landscape."""
        def dist(weights):
            p = np.asarray(weights, dtype=np.float64)
            return am.WeightDistribution(p / p.sum())

        ramp = np.arange(1.0, 301.0)
        dists = {f"uniform-2^{w}": am.uniform_distribution(w)
                 for w in (8, 12, 13)}
        dists["zeros-at-start"] = dist(np.r_[np.zeros(500), ramp])
        dists["zeros-in-middle"] = dist(np.r_[ramp, np.zeros(500), ramp])
        dists["zeros-at-end"] = dist(np.r_[ramp, np.zeros(500)])
        dists["mass-on-first"] = dist(np.eye(64)[0])
        dists["mass-on-last"] = dist(np.eye(64)[-1])
        bundle = tasks.load_task("tiny-mnist", mnist_dir=str(
            make_synthetic_idx_dir(tmp_path_factory.mktemp("idx"))))
        t = am.accuracy_table(bundle.model, bundle.train)
        dists["tiny-mnist-k8"] = am.evolve_distribution(t, am.make_plan(t, 8))
        return dists

    def test_guide_draws_match_generator_choice(self, guide_stress_dists):
        # 2**17 uniforms per distribution reach every one of the 2**12
        # cells; the draws are Generator.choice's, draw for draw
        cells = (np.random.default_rng(19).random(1 << 17)
                 * am._GUIDE_CELLS).astype(int)
        assert len(np.unique(cells)) == am._GUIDE_CELLS
        dists, fallback, unguided = guide_stress_dists, set(), set()
        for name, dist in dists.items():
            rng, want_rng = (np.random.default_rng(19) for _ in range(2))
            got = am.sample_weights(dist, 1 << 17, rng)
            want = want_rng.choice(len(dist.p), size=1 << 17, p=dist.p)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
            assert rng.random() == want_rng.random(), name
            if dist.guide is None:
                unguided.add(name)
            elif (dist.guide < 0).any():
                fallback.add(name)
        # CDF entries exactly on cell edges need no search; from as many
        # weights as cells on there is no guide
        assert "uniform-2^8" not in fallback
        assert "zeros-in-middle" in fallback
        assert unguided == {"uniform-2^12", "uniform-2^13", "tiny-mnist-k8"}

    def test_draws_with_and_without_guide_match_generator_choice(
            self, guide_stress_dists, edge_table):
        # a 2**20-weight register has no guide and searches every uniform,
        # edge k=4's 256 weights have one; either way each call, one draw
        # or many, draws Generator.choice's weights from the same stream
        big = guide_stress_dists["tiny-mnist-k8"]
        edge = am.evolve_distribution(edge_table, am.make_plan(edge_table, 4))
        assert (len(big), big.guide) == (1 << 20, None)
        assert len(edge) == 256 and edge.guide is not None
        for name, dist in (("2^20", big), ("edge-k4", edge)):
            rng, want_rng = (np.random.default_rng(29) for _ in range(2))
            for m in [1] * 40 + [5000]:
                got = am.sample_weights(dist, m, rng)
                want = want_rng.choice(len(dist), size=m, p=dist.p)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want), name
            assert rng.random() == want_rng.random(), name

    def test_guide_draws_at_cell_edges_and_cdf_steps(self,
                                                     guide_stress_dists):
        # uniforms exactly on the cell edges, on the CDF entries and one ulp
        # either side draw #(cdf <= u), as Generator.choice's search does
        for name, dist in guide_stress_dists.items():
            edges = np.arange(am._GUIDE_CELLS) / am._GUIDE_CELLS
            u = np.r_[edges, dist.cdf[dist.cdf < 1]]
            u = np.unique(np.r_[u, np.nextafter(u, 0), np.nextafter(u, 1)])
            u = u[(u >= 0) & (u < 1)]
            got = am.sample_weights(dist, len(u), FixedUniforms(u))
            assert np.array_equal(
                got, dist.cdf.searchsorted(u, side="right")), name

    @pytest.mark.parametrize("shots", [1, 7, 8, 9, 100, am._SHOT_BLOCK - 1,
                                       am._SHOT_BLOCK + 3])
    def test_shot_counts_match_per_draw_loop(self, sed_train_table, shots):
        t = sed_train_table
        dist = am.uniform_distribution(t.weight_width)
        m = 3 if shots > 100 else 40
        got = am.search(dist, t, m, np.random.default_rng(8), shots)
        want = reference_search(dist, t, m, np.random.default_rng(8), shots)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_shot_hits_fall_strictly_below_the_accuracy(self,
                                                          sed_train_table):
        # a shot hits when its uniform is below J(w), never when equal
        t = sed_train_table  # weight 1 has accuracy 0.525
        dist = am.WeightDistribution(np.eye(len(t.counts))[1])
        j = t.counts[1] / t.n_samples
        shots = [np.nextafter(j, 0), j, np.nextafter(j, 1), 0.0]
        _, est, _ = am.search(dist, t, 1, FixedUniforms([0.5] + shots), 4)
        assert est[0] == 2 / 4

    def test_search_toy_finds_perfect_weight(self, toy_bundle):
        t = am.accuracy_table(toy_bundle.model, toy_bundle.train)
        plan = am.make_plan(t, 1)
        assert plan.residual == 1.0
        draws, est, best = am.search(am.evolve_distribution(t, plan), t, 8,
                                     np.random.default_rng(0))
        assert draws.shape == est.shape == best.shape == (8,)
        assert best[-1] == 0
        assert est[draws == best[-1]][0] == 1.0

    def test_search_is_deterministic(self, sed_train_table):
        t = sed_train_table
        dist = am.evolve_distribution(t, am.make_plan(t, 1))
        for shots in (None, 64):
            r1 = am.search(dist, t, 12, np.random.default_rng(9), shots)
            r2 = am.search(dist, t, 12, np.random.default_rng(9), shots)
            for x, y in zip(r1, r2):
                assert np.array_equal(x, y)

    def test_search_prefix_best_and_tie_break(self, sed_train_table):
        t = sed_train_table
        dist = am.uniform_distribution(t.weight_width)
        draws, est, best = am.search(dist, t, 40, np.random.default_rng(2))
        assert len(set(est.tolist())) < len(est)  # ties do occur here
        for i in range(len(draws)):
            top = est[:i + 1].max()
            assert best[i] == draws[:i + 1][est[:i + 1] == top].min()

    def test_config_validation(self, toy_table):
        dist = am.uniform_distribution(toy_table.weight_width)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            am.search(dist, toy_table, 0, rng)
        with pytest.raises(ValueError):
            am.search(dist, toy_table, 4, rng, eval_shots=0)

    @pytest.mark.parametrize("p", [[1.5, -0.5], [0.5, 0.5 + 2e-12]])
    def test_distribution_validation(self, p):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            am.WeightDistribution(np.array(p))

    def test_shot_evaluation_concentrates(self, sed_train_table):
        t = sed_train_table  # weight 1 has accuracy 0.525
        dist = am.WeightDistribution(np.eye(len(t.counts))[1])
        _, est, _ = am.search(dist, t, 1, np.random.default_rng(11), 50_000)
        j = t.counts[1] / t.n_samples
        sigma = math.sqrt(max(j * (1 - j), 0.25) / 50_000)
        assert abs(est[0] - j) <= 5 * sigma + 1e-12

    def test_shot_blocks_match_scalar_loop(self, sed_train_table):
        # 300k shots per draw: 3 rows per block of 2**20 uniforms, so the
        # 8 draws span three blocks
        t = sed_train_table
        dist = am.uniform_distribution(t.weight_width)
        got = am.search(dist, t, 8, np.random.default_rng(4), 300_000)
        want = reference_search(dist, t, 8, np.random.default_rng(4), 300_000)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("shots", [9, 16, 17, 40])
    def test_one_candidates_shots_come_in_blocks(self, sed_train_table,
                                                 monkeypatch, shots):
        # blocks of 8 uniforms: a candidate's 9..40 shots span several
        t = sed_train_table
        dist = am.uniform_distribution(t.weight_width)
        monkeypatch.setattr(am, "_SHOT_BLOCK", 8)
        rng = SizeRecorder(np.random.default_rng(6))
        got = am.search(dist, t, 5, rng, shots)
        assert rng.sizes[0] == 5  # the draws
        assert max(rng.sizes[1:]) <= 8 and sum(rng.sizes[1:]) == 5 * shots
        want = reference_search(dist, t, 5, np.random.default_rng(6), shots)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @settings(max_examples=60, deadline=None)
    @given(small_tables, st.data(), st.integers(1, 40),
           st.one_of(st.none(), st.integers(1, 50)), st.integers(0, 2**32))
    def test_search_matches_per_draw_loop(self, t, data, m_meas, shots, seed):
        weights = data.draw(st.lists(st.integers(0, 4), min_size=len(t.counts),
                                     max_size=len(t.counts))
                            .filter(lambda ws: sum(ws) > 0))
        p = np.array(weights, dtype=np.float64)
        dist = am.WeightDistribution(p / p.sum())
        got = am.search(dist, t, m_meas, np.random.default_rng(seed), shots)
        want = reference_search(dist, t, m_meas, np.random.default_rng(seed),
                                shots)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


class SizeRecorder:
    """A Generator stand-in that records how many uniforms each
    `random` call asks for."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size):
        self.sizes.append(int(np.prod(size)))
        return self.rng.random(size)


class FixedUniforms:
    """A Generator stand-in whose `random` hands out given uniforms in
    turn."""

    def __init__(self, values):
        self.values, self.at = np.asarray(values, dtype=np.float64), 0

    def random(self, size):
        n = int(np.prod(size))
        self.at += n
        return self.values[self.at - n:self.at].reshape(size)


def reference_search(dist, t, m_meas, rng, eval_shots):
    """Per-draw loop that search() replaces: sample everything, then score
    each draw in turn, keeping the best with ties to the smallest index."""
    draws = am.sample_weights(dist, m_meas, rng)
    est, best = [], []
    best_w, best_e = -1, -1.0
    for w in map(int, draws):
        j = t.counts[w] / t.n_samples
        e = j if eval_shots is None else float(
            np.mean(rng.random(eval_shots) < j))
        if e > best_e or (e == best_e and w < best_w):
            best_w, best_e = w, e
        est.append(e)
        best.append(best_w)
    return draws, np.array(est), np.array(best)


def text(table):
    """The text that `cli._write` writes for a table or a text's blocks."""
    with tempfile.TemporaryDirectory() as d:
        return cli._write(Path(d) / "table.csv", table).read_bytes().decode()


def first_difference(got, want):
    """None when the texts are equal, else the first differing line as
    (line number, got, want): a failure then reports one row, not a diff
    of two whole files."""
    if got == want:
        return None
    g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
             min(len(g), len(w)))
    return i, g[i:i + 1], w[i:i + 1]


def reference_jtable_csv(t):
    """Per-row references for the writers, which format once per count."""
    lines = ["weight_index,correct_count,accuracy"]
    n = float(t.n_samples)
    for i, c in enumerate(t.counts):
        lines.append(f"{i},{int(c)},{am._fmt(int(c) / n)}")
    return "\n".join(lines) + "\n"


def reference_evolved_csv(t, plan):
    """Each weight's evolved probability, the plan's k, g and residual, and
    the weight's normalized accuracy, one row per weight."""
    p, jhat = am.evolve_distribution(t, plan).p, t.normalized_accuracy()
    lines = ["weight_index,probability,k,g,residual,jhat"]
    for i in range(len(p)):
        lines.append(f"{i},{am._fmt(p[i])},{plan.k},{plan.g},"
                     f"{am._fmt(plan.residual)},{am._fmt(jhat[i])}")
    return "\n".join(lines) + "\n"


def per_row_csv(tails, counts):
    return "head\n" + "".join([f"{i},{tails[c]}"
                               for i, c in enumerate(counts.tolist())])


class TestCsvEmission:
    def test_jtable_layout(self):
        t = table_from_counts([1, 3], 3)
        assert text(am.jtable_csv(t)) == (
            "weight_index,correct_count,accuracy\n"
            "0,1,0.333333333333\n"
            "1,3,1\n")

    def test_distribution_layout(self):
        # residual 1: the probabilities are the counts normalized, and the
        # plan's k, g and residual are printed as they are
        t = table_from_counts([1, 3], 3)
        plan = am.GroverPlan(1, 0, 0.5, 0, 3, 1.0, 4, 8, 0.0)
        assert text(am.evolved_csv(t, plan)) == (
            "weight_index,probability,k,g,residual,jhat\n"
            "0,0.25,1,3,1,0.25\n"
            "1,0.75,1,3,1,0.75\n")

    def test_distribution_layout_with_overlay(self):
        plan = am.GroverPlan(1, 0, 0.5, 0, 0, 1.0, 8, 16, 0.0)
        out = text(am.evolved_csv(table_from_counts([1, 7], 7), plan))
        assert out.splitlines()[0] == "weight_index,probability,k,g,residual,jhat"
        assert out.splitlines()[1] == "0,0.125,1,0,1,0.125"
        assert out.splitlines()[2] == "1,0.875,1,0,1,0.875"

    def test_distribution_layout_padded(self, toy_table):
        # toy k=3 pads to n_aux=1 and leaves mass off the solution states
        plan = am.make_plan(toy_table, 3)
        assert plan.n_aux == 1 and plan.residual < 1
        out = text(am.evolved_csv(toy_table, plan))
        assert out == (
            "weight_index,probability,k,g,residual,jhat\n"
            "0,0.917009602195,3,1,0.858608951887,1\n"
            "1,0.0829903978052,3,1,0.858608951887,0\n")
        assert out == reference_evolved_csv(toy_table, plan)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_no_weight_has_are_never_written(self, k):
        # counts 1, 3 and 4 of 0..5 have no weight; at residual < 1 their
        # shares are computed all the same, and only the jhat column tells
        # their rows from count 0's
        t = table_from_counts([0, 2, 2, 5], 5)
        plan = am.make_plan(t, k, pad=0)
        assert plan.residual < 1
        out = text(am.evolved_csv(t, plan))
        assert out == reference_evolved_csv(t, plan)
        jhat = {row.rsplit(",", 1)[1] for row in out.splitlines()[1:]}
        assert jhat == {am._fmt(c / 9) for c in (0, 2, 5)}

    @pytest.mark.parametrize("task", ["toy", "edge", "simplified-ed"])
    def test_writers_match_per_row_reference(self, task, toy_table,
                                             edge_table, sed_train_table):
        t = {"toy": toy_table, "edge": edge_table,
             "simplified-ed": sed_train_table}[task]
        assert first_difference(text(am.jtable_csv(t)),
                                reference_jtable_csv(t)) is None
        for k in ((1, 4, 8) if task == "edge" else (1, 4)):
            plan = am.make_plan(t, k)
            assert first_difference(
                text(am.evolved_csv(t, plan)),
                reference_evolved_csv(t, plan)) is None

    def test_writers_match_reference_across_join_blocks(self):
        rng = np.random.default_rng(4)
        t = table_from_counts(rng.integers(0, 300, 1 << 17), 299)
        assert first_difference(text(am.jtable_csv(t)),
                                reference_jtable_csv(t)) is None
        plan = am.make_plan(t, 3)
        assert first_difference(text(am.evolved_csv(t, plan)),
                                reference_evolved_csv(t, plan)) is None

    @pytest.fixture(scope="class")
    def long_rows(self):
        """2^20 + 5 rows (indices cross every 10**d up to 10**6) over tails
        of unequal width, and the per-row reference text."""
        counts = np.random.default_rng(8).integers(0, 40, (1 << 20) + 5)
        tails = [f"{c},{'9' * (c % 13)}\n" for c in range(40)]
        return counts, tails, per_row_csv(tails, counts)

    @pytest.mark.parametrize("n_rows", [
        None,            # all rows: blocks start exactly at 10**5 and 10**6
        10 ** 4 - 1,     # the last index has four digits
        10 ** 4 + 1,     # one five-digit block of two rows
        100_003,         # the last block holds the first three six-digit rows
        50_001,          # the last block holds one row
    ])
    def test_records_match_per_row_reference(self, long_rows, n_rows):
        counts, tails, want = long_rows
        if n_rows is not None:
            counts = counts[:n_rows]
            want = per_row_csv(tails, counts)
        table = am.CsvBlocks("head\n", tails, counts)
        assert first_difference(text(table), want) is None
        # the rows below 10**4 are the first block, then every block is one
        # run of 10**4 rows, of one index width
        blocks = [bytes(table.build(i)) for i in range(len(table))]
        rows = [b.count(b"\n") for b in blocks]
        n = len(counts)
        assert rows == [min(10 ** 4, n - a) for a in range(0, n, 10 ** 4)]
        for b in blocks[1:]:
            widths = {len(r.split(b",")[0]) for r in b.splitlines()}
            assert len(widths) == 1

    def test_blocks_are_made_as_they_are_consumed(self, tmp_path,
                                                  monkeypatch):
        # 2^20 rows, 66 MB of text, written by 4 workers, each holding at
        # most its record buffer, the block made from it and the byte
        # mask: 3 blocks per worker
        rng = np.random.default_rng(5)
        t = table_from_counts(rng.integers(0, 1201, 1 << 20), 1200)
        monkeypatch.setattr(cli, "_cores", lambda: 4)
        table = am.evolved_csv(t, am.make_plan(t, 8))
        n_bytes = table.offsets[-1]
        assert n_bytes > 50 << 20
        block = max(b - a for a, b in zip(table.offsets, table.offsets[1:]))
        tracemalloc.start()
        try:
            cli._write(tmp_path / "distribution.csv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "distribution.csv").stat().st_size == n_bytes
        assert peak < 4 * 3 * block, \
            f"peak {peak / 2 ** 20:.1f} MB, blocks of {block / 2 ** 20:.2f} MB"

    def test_offsets_hold_no_copy_of_the_keys(self):
        # each block's tail lengths are summed as the block is laid out, so
        # building the 2^20-row table holds no int64 copy of their gather
        rng = np.random.default_rng(6)
        t = table_from_counts(rng.integers(0, 1201, 1 << 20), 1200)
        tracemalloc.start()
        try:
            table = am.jtable_csv(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) > 100
        assert peak < 2 << 20, f"peak {peak / 2 ** 20:.1f} MB"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_offsets_span_the_blocks(self, data):
        # tails of 0 to 40 UTF-8 bytes; row counts around each 10**d that
        # changes the blocks, up to past 2**20
        tails = data.draw(st.lists(st.text(st.characters(
            exclude_characters="\0", exclude_categories=("Cs",)),
            max_size=10), min_size=1, max_size=12))
        n = data.draw(st.one_of(
            st.integers(0, 120),
            st.sampled_from([10 ** 4, 10 ** 5, 10 ** 6, 1 << 20]).flatmap(
                lambda c: st.integers(c - 2, c + 2))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
        keys = rng.integers(0, len(tails), n)
        if n:  # the widest tail on the last row, the narrowest on the first
            widths = [len(tail.encode()) for tail in tails]
            keys[-1], keys[0] = np.argmax(widths), np.argmin(widths)
        table = am.CsvBlocks("head\n", tails, keys)
        assert table.offsets[0] == len(b"head\n")
        for i in range(len(table)):
            assert len(table.build(i)) == \
                table.offsets[i + 1] - table.offsets[i]
        if n <= 120:
            assert text(table) == per_row_csv(tails, keys)

    def test_a_block_off_its_span_raises(self):
        table = am.CsvBlocks("head\n", ["a\n", "bc\n"],
                             np.arange(30_000) % 2)
        table.offsets[2] += 1
        table.build(0)
        for i in (1, 2):
            with pytest.raises(RuntimeError, match=f"CSV block {i} has"):
                table.build(i)

    def test_trace_layout(self):
        rows = zip(range(2), [5, 2], [0.5, 1.0])
        out = am.rows_csv("draw_index,weight_index,estimate\n",
                          "{},{},{:.12g}\n", rows)
        assert text(out) == ("draw_index,weight_index,estimate\n"
                             "0,5,0.5\n"
                             "1,2,1\n")

    # the hand-written f-string joins that rows_csv replaced, one per table,
    # with the kind of each column: i an int, f a float
    ROW_JOINS = {
        "theory": ("{:.12g},{:.12g},{:.12g},{:.12g},{},{:.12g},{}\n",
                   "ffffifi",
                   lambda r: f"{r[0]:.12g},{r[1]:.12g},{r[2]:.12g},"
                             f"{r[3]:.12g},{r[4]},{r[5]:.12g},{r[6]}"),
        "trace": ("{},{},{:.12g}\n", "iif",
                  lambda r: f"{r[0]},{r[1]},{am._fmt(r[2])}"),
        "curve": ("{}" + ",{:.12g}" * 4 + "\n", "iffff",
                  lambda r: f"{r[0]},{r[1]:.12g},{r[2]:.12g},"
                            f"{r[3]:.12g},{r[4]:.12g}"),
    }

    @pytest.mark.parametrize("name", sorted(ROW_JOINS))
    def test_rows_match_the_f_string_joins(self, name):
        line, kinds, join = self.ROW_JOINS[name]
        rng = np.random.default_rng(11)
        n = 2 * am._CSV_BLOCK + 7
        floats = [math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1.0,
                  1 / 3, 2.0 ** 60, -123.456]
        floats += rng.normal(0, 10.0 ** rng.integers(-20, 20, n), n).tolist()
        ints = rng.integers(-10 ** 6, 10 ** 12, len(floats)).tolist()
        rows = [tuple(ints[(i + c) % n] if kind == "i"
                      else floats[(i + 3 * c) % len(floats)]
                      for c, kind in enumerate(kinds)) for i in range(n)]
        head = "a,b\n"
        want = head + "".join(join(r) + "\n" for r in rows)
        blocks = list(am.rows_csv(head, line, iter(rows)))
        assert text(blocks) == want
        assert blocks[0] == head.encode()
        sizes = [len(b.splitlines()) for b in blocks[1:]]
        assert sizes == [am._CSV_BLOCK, am._CSV_BLOCK, 7]

    def test_no_rows_and_rows_from_a_list(self):
        # a list is read once, not once per block
        assert list(am.rows_csv("h\n", "{}\n", [])) == [b"h\n"]
        assert text(am.rows_csv("h\n", "{}\n", [(1,), (2,)])) == "h\n1\n2\n"
