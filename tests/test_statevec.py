import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (bits_to_index, console_env, index_to_bits,
                      make_synthetic_idx_dir, samples)
from grovertrain import amplify as am
from grovertrain import boolcirc as bc
from grovertrain import datasets as ds
from grovertrain import statevec as sv
from grovertrain import tasks
from test_amplify import text


def by_hand(n_qubits, idx, marks, a_marked, a_unmarked):
    """A state whose support is the basis indices idx[s, w], one column per
    weight w, with oracle marks marks[s, w]: counted per weight, and built
    back on demand as the engine's states are."""
    idx, marks = np.asarray(idx), np.asarray(marks, dtype=bool)
    return sv.QuantumState(n_qubits, len(idx), marks.sum(axis=0), a_marked,
                           a_unmarked, lambda: (idx.ravel(), marks.ravel()))


def two_valued(n_qubits, a_marked, a_unmarked, width=0, marked=()):
    """State on every basis index of n_qubits, in index order, with rows
    running over the lowest `width` qubits (its weights): the oracle marks
    the basis states listed in `marked`, which hold a_marked, and the rest
    hold a_unmarked."""
    idx = np.arange(1 << n_qubits).reshape(-1, 1 << width)
    return by_hand(n_qubits, idx, np.isin(idx, marked), a_marked, a_unmarked)


def random_two_valued(n_qubits, rng):
    """A normalized two_valued state with random marks and amplitudes."""
    marked = np.flatnonzero(rng.random(1 << n_qubits) < rng.random())
    a = rng.normal(size=2)
    a /= math.sqrt(len(marked) * a[0] ** 2
                   + ((1 << n_qubits) - len(marked)) * a[1] ** 2)
    return two_valued(n_qubits, a[0], a[1], marked=marked)


def basis_state(n_qubits, index):
    return by_hand(n_qubits, [[index]], [[True]], 1.0, 0.0)


def draw(p, rng):
    """One Born-rule outcome from a marginal, by Generator.choice, which
    verify-oracle's `amplify.sample_weights` matches draw for draw."""
    return int(rng.choice(len(p), p=p / p.sum()))


def flip_bits(idx, gates):
    """Full-support gate action, written out apart from the engine's."""
    for g in gates:
        m = sum(1 << q for q in g.controls)
        idx ^= ((idx & m) == m) << g.target


def to_planes(idx, n_qubits):
    """Packed bit planes of basis indices: row q is bit q of each index."""
    bits = (np.ravel(idx) >> np.arange(n_qubits)[:, None]) & 1
    return np.packbits(bits.astype(bool), axis=1, bitorder="little")


def from_planes(planes, n):
    """The n basis indices that packed bit planes hold."""
    bits = np.unpackbits(planes, axis=1, count=n, bitorder="little")
    return (bits.astype(np.int64) << np.arange(len(planes))[:, None]).sum(0)


def reference_run(model, d, k, g, n_aux):
    """The full-support gate path the engine must reproduce: each copy's
    model gates over the whole support, then per round the comparator gates,
    the phase flip and their undoing, and the complex reflection about the
    stored |Psi_0>. Returns (prepared idx, prepared amps, final amps)."""
    gl = bc.compile_circuit(model)
    lay = sv.build_layout(model, k, n_aux, gl.n_anc)
    states = sv._copy_register_states(d, n_aux)
    copy_amps = np.full(len(states), 1 / math.sqrt(len(states)), complex)
    n_w = 1 << model.weight_width
    idx = np.arange(n_w)
    amps = np.full(n_w, 1 / math.sqrt(n_w), dtype=np.complex128)
    for copy in lay.copies:
        idx = ((states[:, None] << copy.x[0]) | idx).ravel()
        amps = (copy_amps[:, None] * amps).ravel()
        where = lay.weight + copy.x + copy.out + lay.anc
        flip_bits(idx, [bc.RGate(tuple(where[c] for c in r.controls),
                                 where[r.target]) for r in gl.gates])
    prepared, psi0 = idx.copy(), amps.copy()
    comparator = [bc.RGate(c, o) for copy in lay.copies
                  for y, o in zip(copy.y, copy.out) for c in ((y,), ())]
    m = sum(1 << q for copy in lay.copies
            for q in copy.out + (() if copy.flag is None else (copy.flag,)))
    for _ in range(g):
        flip_bits(idx, comparator)
        amps[(idx & m) == m] *= -1.0
        flip_bits(idx, reversed(comparator))
        amps = 2.0 * np.vdot(psi0, amps) * psi0 - amps
    return prepared, psi0, amps


def decode_task():
    """Small two-detector model whose outputs are canonical digit patterns,
    as in tiny-mnist: (o0, o1) decodes to 1 if o0, else 2 if o1, else 7,
    written as (o0, NOT o0 AND o1): 1 -> (1,0), 2 -> (0,1), 7 -> (0,0)."""
    g = [bc.Gate("XOR", "o0", ("w0", "x0")),
         bc.Gate("AND", "o1", ("w1", "x1")),
         bc.Gate("NOT", "n0", ("o0",)),
         bc.Gate("AND", "c1", ("n0", "o1"))]
    model = bc.ModelCircuit(2, 2, g, ("o0", "c1"))
    return model, ds.Dataset([(0, 0), (1, 0), (0, 1), (1, 1)],
                             [(1, 0), (1, 0), (0, 1), (0, 0)], 3)


def nine_digits():
    """The tiny-mnist model on 9 distinct samples: its 2^20 weights span 64
    of the blocks that `prepare_initial` counts in."""
    return bc.tiny_mnist_model(), ds.Dataset(
        [index_to_bits(i, 9) for i in range(9)],
        [(0, i & 1) for i in range(9)], 3)


def reference_instance(task):
    """(model, training set) of a built-in task, or of the decode or
    nine-digits task."""
    if task in ("decode", "nine-digits"):
        return decode_task() if task == "decode" else nine_digits()
    bundle = tasks.load_task(task)
    return bundle.model, bundle.train


class TestQuantumState:
    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            basis_state(0, 0)
        with pytest.raises(ValueError):
            basis_state(sv.MAX_QUBITS + 1, 0)

    def test_initial_state_and_amp_validation(self):
        s = basis_state(3, 0)
        assert s.dense()[0] == 1.0 and np.count_nonzero(s.dense()) == 1
        # two states per weight: a count above that or below 0 is refused
        for marked in ([3, 0], [0, -1]):
            with pytest.raises(ValueError, match="marked counts"):
                sv.QuantumState(3, 2, marked, 1.0, 1.0, None)

    @pytest.mark.parametrize("k", [2, 3])
    def test_copies_with_different_marks(self, k):
        # the copies of a support state sit at different data states, so
        # one copy's oracle may mark it and another's not; padding makes
        # the copies' length (5) differ from the weights' (4), so a count
        # or a broadcast taken over the wrong axis or copy shows
        model, d = decode_task()
        state, lay = sv.prepare_initial(model, d, k, n_aux=1)
        n_w = 1 << model.weight_width
        idx, mark = state.support()
        # each copy's mark, read off the support state's bits
        per_copy = np.array([[
            all((i >> y) & 1 == (i >> o) & 1 for y, o in zip(c.y, c.out))
            and (i >> c.flag) & 1 == 1 for c in lay.copies] for i in idx])
        assert np.array_equal(mark, per_copy.all(axis=1))
        assert (per_copy.any(axis=1) & ~per_copy.all(axis=1)).any()
        rows = mark.reshape(-1, n_w)
        assert np.array_equal(state.marked, rows.sum(axis=0))
        assert np.array_equal(state.unmarked, (~rows).sum(axis=0))
        assert (state.n_marked, state.n_unmarked) == (mark.sum(),
                                                      (~mark).sum())
        amps = state.dense()
        assert np.count_nonzero(amps) == len(idx) == 5 ** k * n_w
        want = np.bincount(idx & (n_w - 1), weights=amps[idx] ** 2,
                           minlength=n_w)
        assert np.allclose(state.marginal(), want, rtol=1e-13, atol=0)
        assert math.isclose(state.norm(), np.linalg.norm(amps), rel_tol=1e-13)

    def test_complex_amplitudes_rejected(self):
        for amp in (0.5j, np.complex128(1)):
            for pair in ((amp, 0.0), (0.0, amp)):
                with pytest.raises(ValueError,
                                   match="amplitudes must be real"):
                    by_hand(1, [[0]], [[False]], *pair)

    def test_gates_act_like_classical_bit_flips(self):
        gates = [bc.RGate((), 2), bc.RGate((0,), 1), bc.RGate((0, 2), 3),
                 bc.RGate((1, 2, 3), 0)]
        flat = []
        for start in range(16):
            planes = to_planes([start], 4)
            bits = [(start >> q) & 1 for q in range(4)]
            for g in gates:
                sv.apply_gates(planes, [g])
                if all(bits[c] for c in g.controls):
                    bits[g.target] ^= 1
            flat.append(sum(b << q for q, b in enumerate(bits)))
            assert from_planes(planes, 1).tolist() == [flat[-1]]
        # 16 states on one set of planes flip state by state
        planes = to_planes(np.arange(16), 4)
        sv.apply_gates(planes, gates)
        assert from_planes(planes, 16).tolist() == flat

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_plane_engine_matches_index_reference(self, data):
        # slices of 2^d_w weights against an odd number of data states, so
        # the planes end in pad bits; gates of 0-3 distinct controls on any
        # qubit, weight qubits included
        d_w = data.draw(st.integers(0, 4))
        n_q = d_w + data.draw(st.integers(1, 5))
        m = data.draw(st.integers(0, 7)) * 2 + 1
        states = np.array(data.draw(st.lists(
            st.integers(0, (1 << (n_q - d_w)) - 1), min_size=m, max_size=m)))
        idx = ((states[:, None] << d_w) | np.arange(1 << d_w)).ravel()
        gates = []
        for _ in range(data.draw(st.integers(0, 8))):
            target = data.draw(st.integers(0, n_q - 1))
            controls = data.draw(st.lists(
                st.integers(0, n_q - 1).filter(lambda q: q != target),
                max_size=min(3, n_q - 1), unique=True))
            gates.append(bc.RGate(tuple(controls), target))
        planes = to_planes(idx, n_q)
        sv.apply_gates(planes, gates)
        flip_bits(idx, gates)
        assert np.array_equal(from_planes(planes, len(idx)), idx)

    def test_unrestored_qubit_raises(self):
        # o = w XOR x on qubits 0 (w), 1 (x), 2 (o), with one ancilla, 3
        states, weights = np.array([0, 1, 2]), np.arange(2)
        xor = (bc.RGate((0,), 2), bc.RGate((1,), 2))
        # an ancilla used as scratch and cleared again passes, pad bits too
        ok = bc.GateList(1, 1, (2,), 1, (bc.RGate((), 3), *xor,
                                         bc.RGate((1,), 3), bc.RGate((1,), 3),
                                         bc.RGate((), 3)))
        planes = sv.model_planes(ok, states, weights)
        assert np.array_equal(
            np.unpackbits(planes[2], axis=1, count=2, bitorder="little"),
            (states[:, None] & 1) ^ weights)  # x is the state's bit 0
        for gates, role in (((bc.RGate((0,), 3),), "ancilla qubit 3"),
                            ((bc.RGate((), 0),), "weight qubit 0"),
                            ((bc.RGate((0,), 1),), "input qubit 1")):
            bad = bc.GateList(1, 1, (2,), 1, xor + gates)
            with pytest.raises(RuntimeError, match=role):
                sv.model_planes(bad, states, weights)

    def test_phase_flip_targets_exactly_matching_states(self):
        regs = sv.CopyRegisters
        layouts = [
            # one copy: label on qubit 0, prediction on qubit 1, flag on 2
            sv.SystemLayout((), (regs((), (0,), 2, (1,)),), (), 3),
            # two copies with 2-bit labels and predictions, flagged
            sv.SystemLayout((), (regs((), (0, 1), 2, (6, 7)),
                                 regs((), (3, 4), 5, (8, 9))), (), 10),
            # the same without flags
            sv.SystemLayout((), (regs((), (0, 1), None, (4, 5)),
                                 regs((), (2, 3), None, (6, 7))), (), 8)]
        for lay in layouts:
            n = lay.n_qubits
            idx = np.arange(1 << n)
            mark = np.logical_and.reduce(
                [sv.oracle_mark(idx, c) for c in lay.copies])
            assert np.array_equal(idx, np.arange(1 << n))  # read, not moved
            for i, got in zip(idx.tolist(), mark):
                bit = [(i >> q) & 1 for q in range(n)]
                marked = all(
                    all(bit[y] == bit[o] for y, o in zip(c.y, c.out))
                    and (c.flag is None or bit[c.flag])
                    for c in lay.copies)
                assert got == marked
            assert mark.sum() == 1 << (n - sum(
                len(c.y) + (c.flag is not None) for c in lay.copies))

    def test_marginal_orders_bits_low_first(self):
        amps = np.eye(8)[0b010]
        assert np.array_equal(two_valued(3, 1.0, 0.0, 1, [0b010]).marginal(),
                              [1.0, 0.0])
        assert np.array_equal(two_valued(3, 1.0, 0.0, 2, [0b010]).marginal(),
                              [0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(two_valued(3, 1.0, 0.0, 3, [0b010]).marginal(),
                              amps)

    def test_weight_marginal_matches_generic_marginal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            base = random_two_valued(5, rng)
            idx, mark = base.support()
            amps, marked = base.dense(), idx[mark]
            for width in range(6):
                state = two_valued(5, base.a_marked, base.a_unmarked, width,
                                   marked)
                by_reshape = (amps ** 2).reshape(-1, 1 << width).sum(axis=0)
                assert np.allclose(state.marginal(), by_reshape, atol=1e-15)

    @pytest.mark.parametrize("task,k", [
        ("toy", 1), ("toy", 2), ("toy", 3), ("toy", 4),
        ("simplified-ed", 1), ("decode", 1), ("decode", 2), ("edge", 1)])
    def test_marginal_in_blocks_is_one_bincount(self, task, k):
        # the marginal from the per-weight counts is the squared amplitudes
        # summed over the low index bits, and the norm their sum; the
        # bincount adds up to 800 equal squares one by one, and its rounding
        # (up to 1.1e-14 relative, on edge k=1) is what the bound allows
        model, d = reference_instance(task)
        plan = am.make_plan(am.accuracy_table(model, d), k)
        marg, state, _ = sv.grover_run(model, d, k, plan.g, plan.n_aux,
                                       return_state=True)
        n_w = 1 << model.weight_width
        idx, mark = state.support()
        amps = state.dense()[idx]
        want = np.bincount(idx & (n_w - 1), weights=amps ** 2, minlength=n_w)
        assert np.array_equal(state.marked, np.count_nonzero(
            mark.reshape(-1, n_w), axis=0))
        assert np.allclose(state.marginal(), want, rtol=1e-13, atol=0)
        assert np.array_equal(marg, state.marginal())
        assert abs(state.norm() - math.sqrt((amps ** 2).sum())) <= 1e-12

    def test_measurement_is_deterministic_on_basis_states(self):
        s = two_valued(3, 1.0, 0.0, 3, [0b101])
        assert draw(s.marginal(), np.random.default_rng(0)) == 5

    def test_gates_preserve_norm(self):
        # the gates permute a slice's basis indices and leave the
        # amplitudes where they are
        s = random_two_valued(4, np.random.default_rng(1))
        idx, mark = s.support()
        planes = to_planes(idx, 4)
        sv.apply_gates(planes, [bc.RGate((0,), 3), bc.RGate((1, 2), 0),
                                bc.RGate((), 2)])
        s = by_hand(4, from_planes(planes, 16)[:, None], mark[:, None],
                    s.a_marked, s.a_unmarked)
        idx, _ = s.support()
        assert np.array_equal(np.sort(idx), np.arange(16))
        assert not np.array_equal(idx, np.arange(16))
        assert abs(np.linalg.norm(s.dense()) - 1.0) < 1e-12


class TestHandRolledSearch:
    def test_three_qubit_two_round_success_probability(self):
        # the textbook 8-state search: two rounds lift the marked state to
        # exactly 121/128
        n = 3
        marked = 5
        state = two_valued(n, 1 / math.sqrt(8), 1 / math.sqrt(8),
                           marked=[marked])
        for _ in range(2):
            sv.phase_oracle(state)
            sv.reflect(state)
        p = np.abs(state.dense()) ** 2
        assert p[marked] == pytest.approx(121 / 128, abs=1e-12)


class TestLayoutAndPreparation:
    def test_layout_geometry(self, toy_bundle):
        model = toy_bundle.model
        lay = sv.build_layout(model, k=2, n_aux=1, n_anc=2)
        assert lay.weight == (0,)
        c0, c1 = lay.copies
        assert c0.x == (1,) and c0.y == (2,) and c0.flag == 3
        assert c1.x == (4,) and c1.y == (5,) and c1.flag == 6
        assert c0.out == (7,) and c1.out == (8,)
        assert lay.anc == (9, 10)
        assert lay.n_qubits == 11

    def test_layout_without_padding_has_no_flag(self, toy_bundle):
        lay = sv.build_layout(toy_bundle.model, k=1, n_aux=0, n_anc=1)
        assert lay.copies[0].flag is None
        assert lay.n_qubits == 1 + 1 + 1 + 1 + 1

    def test_prepared_state_writes_predictions(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=1)
        expected = np.zeros(1 << lay.n_qubits, dtype=np.complex128)
        for wi in (0, 1):
            w = index_to_bits(wi, 1)
            for x, y in samples(d):
                yhat = bc.eval_circuit(model, w, x)
                idx = wi
                idx |= bits_to_index(x) << lay.copies[0].x[0]
                idx |= bits_to_index(y) << lay.copies[0].y[0]
                idx |= bits_to_index(yhat) << lay.copies[0].out[0]
                expected[idx] = 0.5
        assert np.allclose(state.dense(), expected, atol=1e-12)

    def test_prepared_state_with_padding(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=1, n_aux=2)
        amps = state.dense()
        copy = lay.copies[0]
        amp = (1 / math.sqrt(2)) * (1 / math.sqrt(4))
        # padded basis states keep flag=0; the model still writes its
        # prediction for whatever x bits the pad happens to carry
        for wi in (0, 1):
            for p in (0, 1):
                x_bits = (p,)  # data-register bit 0 is the x wire
                yhat = bc.eval_circuit(model, (wi,), x_bits)
                idx = wi | (p << copy.x[0])
                idx |= bits_to_index(yhat) << copy.out[0]
                assert amps[idx] == pytest.approx(amp, abs=1e-12)
        # real samples carry the flag
        x0, y0 = samples(d)[0]
        idx = 0
        idx |= bits_to_index(x0) << copy.x[0]
        idx |= bits_to_index(y0) << copy.y[0]
        idx |= 1 << copy.flag
        yhat = bc.eval_circuit(model, (0,), x0)
        idx |= bits_to_index(yhat) << copy.out[0]
        assert amps[idx] == pytest.approx(amp, abs=1e-12)
        assert abs(state.norm() - 1.0) < 1e-12

    def test_padding_beyond_the_data_register(self, toy_bundle):
        # x and y give 4 basis states; 5 padded samples need one more qubit
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=1, n_aux=5)
        copy = lay.copies[0]
        assert copy.flag == 3 and copy.pad == (4,)
        assert lay.n_qubits == 1 + 1 + 1 + 1 + 1 + 1
        idx, _ = state.support()
        assert len(idx) == 2 * (2 + 5)
        assert abs(state.norm() - 1.0) < 1e-12
        flag = (idx >> copy.flag) & 1
        pad = (idx >> copy.pad[0]) & 1
        assert flag.sum() == 2 * 2 and pad.sum() == 2 * 1
        assert not np.any(flag & pad)
        assert sv.build_layout(model, k=1, n_aux=4, n_anc=0).copies[0].pad == ()

    def test_preparation_validation(self, toy_bundle, sed_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        with pytest.raises(ValueError):
            sv.prepare_initial(model, d, k=0)
        one = ds.Dataset(d.x[:1], d.y[:1], d.class_count)
        with pytest.raises(ValueError):
            sv.prepare_initial(model, one, k=1, n_aux=0)
        with pytest.raises(ValueError, match="n_aux"):
            sv.prepare_initial(model, d, k=1, n_aux=-1)
        twice = ds.Dataset(np.vstack([d.x, d.x[:1]]),
                           np.vstack([d.y, d.y[:1]]), d.class_count)
        with pytest.raises(ValueError, match="repeats"):
            sv.prepare_initial(model, twice, k=1)
        # a dataset whose widths are not the model's
        with pytest.raises(ValueError, match="widths"):
            sv.grover_run(model, sed_bundle.train, k=1, g=1)

    def test_preparation_does_not_build_the_padding(self, toy_bundle):
        # 2^22 padded states per data register are counted, not built: only
        # support() and the dumps build a register's basis states
        tracemalloc.start()
        try:
            state, _ = sv.prepare_initial(toy_bundle.model, toy_bundle.train,
                                          1, n_aux=1 << 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2 ** 20:.1f} MB"
        rows = len(toy_bundle.train) + (1 << 22)
        assert state.n_marked + state.n_unmarked == 2 * rows

    def test_qubit_budget_enforced(self):
        # 56 qubits fit an int64 index, and the state keeps one count per
        # weight, so it prepares; but 2^20 weights x 9^2 sample pairs exceed
        # the cap of 2^26 support states that a dump may build
        state, lay = sv.prepare_initial(*nine_digits(), k=2)
        assert lay.n_qubits == 56
        for dump in (state.support, state.dense,
                     lambda: sv.statevector_csv(state)):
            with pytest.raises(ValueError, match="84934656 basis states in "
                               "its support, cap is 67108864"):
                dump()

    @pytest.mark.parametrize("k, n_qubits", [(10, 31), (15, 46)])
    def test_basis_budget_enforced(self, toy_bundle, k, n_qubits):
        # toy's support is 2 * 2^k states, under the cap, but a dense vector
        # or a dump holds all 2^n_qubits basis states: both refuse before
        # they allocate them
        state, lay = sv.prepare_initial(toy_bundle.model, toy_bundle.train, k)
        assert lay.n_qubits == n_qubits
        assert len(state.support()[0]) == 2 << k
        tracemalloc.start()
        try:
            for dump in (state.dense, lambda: sv.statevector_csv(state)):
                with pytest.raises(ValueError, match=rf"2\*\*{n_qubits} basis "
                                   "states, cap is 67108864"):
                    dump()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_index_width_enforced(self, edge_bundle):
        # edge at k=4 needs 63 qubits, one more than an int64 index holds
        with pytest.raises(ValueError, match="63 qubits"):
            sv.prepare_initial(edge_bundle.model, edge_bundle.train, k=4)

    @pytest.mark.parametrize("k,n_qubits", [(1, 43), (2, 56)])
    def test_tiny_mnist_layout(self, k, n_qubits):
        model = bc.tiny_mnist_model()
        lay = sv.build_layout(model, k, 0, bc.compile_circuit(model).n_anc)
        assert lay.n_qubits == n_qubits

    def test_tiny_mnist_marks_count_correct_samples(self, tmp_path):
        # at k=1 a weight's marked states are its correct samples: the gates
        # on every train sample, in 64 blocks of 2^14 weights, give the
        # accuracy table's counts exactly, and the run its closed form
        bundle = tasks.load_task("tiny-mnist",
                                 mnist_dir=str(make_synthetic_idx_dir(tmp_path)))
        model, d = bundle.model, bundle.train
        table = am.accuracy_table(model, d)
        plan = am.make_plan(table, 1, pad=0)
        p = am.evolve_distribution(table, plan).p
        marg, state, lay = sv.grover_run(model, d, 1, plan.g,
                                         return_state=True)
        assert lay.n_qubits == 43
        assert np.array_equal(state.marked, table.counts)
        assert np.max(np.abs(marg - p)) <= 1e-9

    @pytest.mark.parametrize("task", [
        "toy", "simplified-ed", "edge", "decode", "tiny-mnist"])
    def test_registers_are_disjoint_and_cover_the_qubits(self, task):
        # the engine reads the weights as the lowest index bits and each
        # copy's registers in place: no qubit may serve two registers
        model = (bc.tiny_mnist_model() if task == "tiny-mnist"
                 else reference_instance(task)[0])
        n_anc = bc.compile_circuit(model).n_anc
        for k in (1, 2, 3):
            for n_aux in (0, 1, 5, 400):
                lay = sv.build_layout(model, k, n_aux, n_anc)
                regs = [lay.weight, lay.anc] + [
                    r for c in lay.copies
                    for r in (c.x, c.y, c.pad, c.out,
                              () if c.flag is None else (c.flag,))]
                qubits = [q for r in regs for q in r]
                assert sorted(qubits) == list(range(lay.n_qubits))
                assert lay.weight == tuple(range(model.weight_width))
                assert all((c.flag is None) == (n_aux == 0)
                           for c in lay.copies)


class TestOracles:
    def test_exact_match_phase_pattern(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=1)
        copy = lay.copies[0]
        for idx, mark in zip(*state.support()):
            y = (idx >> copy.y[0]) & 1
            out = (idx >> copy.out[0]) & 1
            assert mark == (y == out)

    def test_padded_states_never_flip(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=1, n_aux=2)
        idx, mark = state.support()
        padded = (idx >> lay.copies[0].flag) & 1 == 0
        assert padded.sum() == 2 * 2 and not np.any(mark[padded])

    def test_oracle_applied_twice_is_identity(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        state, lay = sv.prepare_initial(model, d, k=2, n_aux=1)
        (idx, mark), amps = state.support(), state.dense()
        # the marks broadcast from the slices are each copy's mark on the
        # full index, ANDed
        assert np.array_equal(mark, np.logical_and.reduce(
            [sv.oracle_mark(idx, c) for c in lay.copies]))
        assert set(mark.tolist()) == {False, True}
        sv.phase_oracle(state)  # once: the marked amplitudes negated
        assert np.array_equal(state.dense()[idx],
                              np.where(mark, -amps[idx], amps[idx]))
        sv.phase_oracle(state)
        assert np.array_equal(state.support()[0], idx)
        assert np.array_equal(state.dense(), amps)

    def test_decode_phase_pattern(self):
        model, d = decode_task()
        state, lay = sv.prepare_initial(model, d, k=1)
        copy = lay.copies[0]
        for idx, mark in zip(*state.support()):
            y = tuple((idx >> q) & 1 for q in copy.y)
            out = tuple((idx >> q) & 1 for q in copy.out)
            assert mark == (out == y)

    @pytest.mark.parametrize("task,k", [
        ("toy", 1), ("toy", 2), ("toy", 3), ("toy", 4),
        ("simplified-ed", 1), ("decode", 1), ("decode", 2)])
    def test_engine_matches_full_support_reference(self, task, k):
        model, d = reference_instance(task)
        plan = am.make_plan(am.accuracy_table(model, d), k)
        idx, psi0, final = reference_run(model, d, k, plan.g, plan.n_aux)
        # the premise of the two-amplitude engine, in the reference's own
        # full amplitude vector: one value on the marked states, one on
        # the rest
        assert len(np.unique(final)) <= 2
        state, _ = sv.prepare_initial(model, d, k, plan.n_aux)
        assert np.array_equal(state.support()[0], idx)
        assert np.array_equal(state.dense()[idx], psi0.real)
        assert not psi0.imag.any()
        _, state, _ = sv.grover_run(model, d, k, plan.g, plan.n_aux,
                                    return_state=True)
        assert np.array_equal(state.support()[0], idx)
        want = np.zeros(1 << state.n_qubits, complex)
        want[idx] = final
        assert np.max(np.abs(state.dense() - want)) <= 1e-12


class TestDiffusionAndFullRuns:
    def test_diffusion_is_an_involution(self):
        # reflection about the uniform state on the 16-state support
        rng = np.random.default_rng(4)
        s = random_two_valued(4, rng)
        amps = s.dense()
        sv.reflect(s)
        psi0 = np.full(16, 0.25)
        assert np.allclose(s.dense(), 2 * (psi0 @ amps) * psi0 - amps,
                           atol=1e-15)
        assert abs(s.norm() - 1.0) < 1e-12
        sv.reflect(s)
        assert np.allclose(s.dense(), amps, atol=1e-12)

    def test_zero_rounds_keep_weights_uniform(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        marg = sv.grover_run(model, d, k=1, g=0)
        assert np.allclose(marg, 0.5, atol=1e-12)
        with pytest.raises(ValueError):
            sv.grover_run(model, d, k=1, g=-1)

    def test_matches_closed_form_toy_single_copy(self, toy_bundle, toy_table):
        model, d = toy_bundle.model, toy_bundle.full
        plan = am.make_plan(toy_table, 1)
        dist = am.evolve_distribution(toy_table, plan)
        marg = sv.grover_run(model, d, k=1, g=plan.g, n_aux=plan.n_aux)
        assert float(np.max(np.abs(marg - dist.p))) <= 1e-9

    def test_matches_closed_form_toy_two_copies(self, toy_bundle, toy_table):
        model, d = toy_bundle.model, toy_bundle.full
        plan = am.make_plan(toy_table, 2)
        assert plan.n_aux == 1 and plan.g == 1
        dist = am.evolve_distribution(toy_table, plan)
        marg = sv.grover_run(model, d, k=2, g=plan.g, n_aux=plan.n_aux)
        assert float(np.max(np.abs(marg - dist.p))) <= 1e-9

    def test_matches_closed_form_line_task(self, sed_bundle, sed_train_table):
        plan = am.make_plan(sed_train_table, 1)
        assert plan.n_aux == 400 and plan.residual == 1.0
        dist = am.evolve_distribution(sed_train_table, plan)
        marg = sv.grover_run(sed_bundle.model, sed_bundle.train, k=1,
                             g=plan.g, n_aux=plan.n_aux)
        assert float(np.max(np.abs(marg - dist.p))) <= 1e-9

    def test_matches_closed_form_decode_predicate(self):
        model, d = decode_task()
        table = am.accuracy_table(model, d)
        for k in (1, 2):
            plan = am.make_plan(table, k)
            dist = am.evolve_distribution(table, plan)
            marg = sv.grover_run(model, d, k=k, g=plan.g, n_aux=plan.n_aux)
            assert float(np.max(np.abs(marg - dist.p))) <= 1e-9

    def test_norm_survives_a_full_run(self, toy_bundle):
        model, d = toy_bundle.model, toy_bundle.full
        _, state, _ = sv.grover_run(model, d, k=2, g=3, n_aux=1,
                                    return_state=True)
        assert abs(state.norm() - 1.0) < 1e-10

    @pytest.mark.parametrize("task, k", [("toy", 2), ("simplified-ed", 1)])
    def test_gates_count_without_any_table(self, monkeypatch, task, k):
        # the shared bundle already holds its table; the gate-level run
        # must count with the compiled gates, never read a table
        b = tasks.load_task(task)
        table = am.accuracy_table(b.model, b.train)
        plan = am.make_plan(table, k)
        p = am.evolve_distribution(table, plan).p

        def refuse(*args, **kwargs):
            raise AssertionError("the gate-level run asked for a table")
        for owner, name in ((bc, "correct_counts"), (am, "correct_counts"),
                            (am, "accuracy_table")):
            monkeypatch.setattr(owner, name, refuse)
        marg = sv.grover_run(b.model, b.train, k, plan.g, plan.n_aux)
        assert float(np.max(np.abs(marg - p))) <= 1e-9

    def test_lossless_run_measures_the_best_weight(self, toy_bundle,
                                                   toy_table):
        model, d = toy_bundle.model, toy_bundle.full
        plan = am.make_plan(toy_table, 1)
        marg = sv.grover_run(model, d, k=1, g=plan.g, n_aux=plan.n_aux)
        assert marg[0] == pytest.approx(1.0, abs=1e-12)
        for seed in range(3):
            assert draw(marg, np.random.default_rng(seed)) == 0


def crosscheck(model, d, k):
    """Closed form vs gate-level run: (deviation, norm drift, mass, qubits)."""
    table = am.accuracy_table(model, d)
    plan = am.make_plan(table, k)
    p = am.evolve_distribution(table, plan).p
    marg, state, lay = sv.grover_run(model, d, k, plan.g, plan.n_aux,
                                     return_state=True)
    return (float(np.max(np.abs(marg - p))), abs(state.norm() - 1.0),
            float(marg.sum()), lay.n_qubits)


def crosscheck_fresh(task, k):
    """crosscheck on a built-in task in a fresh interpreter, plus its peak
    RSS in MB: VmHWM, in KiB on Linux. ru_maxrss would not do, as exec
    carries over the forking process's peak, here the whole test run's."""
    script = "\n".join([
        "import re", "import numpy as np",
        "from grovertrain import amplify as am, statevec as sv, tasks",
        inspect.getsource(crosscheck),
        f"b = tasks.load_task({task!r})",
        f"out = crosscheck(b.model, b.train, {k})",
        "status = open('/proc/self/status').read()",
        r"print(*out, int(re.search(r'VmHWM:\s*(\d+)', status)[1]) / 1024)"])
    proc = subprocess.run([sys.executable, "-c", script], env=console_env(),
                          check=True, capture_output=True, text=True,
                          timeout=300)
    dev, drift, mass, n_qubits, peak_mb = proc.stdout.split()
    return float(dev), float(drift), float(mass), int(n_qubits), float(peak_mb)


@st.composite
def small_instances(draw):
    """Random small circuit, distinct samples labelled by a random teacher
    weight with some label bits flipped, and a copy count k <= 3."""
    n_w, n_x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    wires = [f"w{i}" for i in range(n_w)] + [f"x{i}" for i in range(n_x)]
    gates = []
    for gi in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(("NOT", "COPY", "XOR", "AND", "OR", "MAJ")))
        arity = {"NOT": 1, "COPY": 1, "MAJ": 3}.get(op, 2)
        ins = tuple(draw(st.sampled_from(wires)) for _ in range(arity))
        gates.append(bc.Gate(op, f"t{gi}", ins))
        wires.append(f"t{gi}")
    outs = draw(st.permutations([g.out for g in gates]))
    n_out = draw(st.integers(1, min(2, len(outs))))
    model = bc.ModelCircuit(n_w, n_x, gates, tuple(outs[:n_out]))
    teacher = index_to_bits(draw(st.integers(0, (1 << n_w) - 1)), n_w)
    xs = draw(st.lists(st.integers(0, (1 << n_x) - 1), min_size=2,
                       max_size=1 << n_x, unique=True))
    x_rows, y_rows = [], []
    for xi in xs:
        x = index_to_bits(xi, n_x)
        y = bc.eval_circuit(model, teacher, x)
        flip = draw(st.lists(st.booleans(), min_size=len(y), max_size=len(y)))
        x_rows.append(x)
        y_rows.append([b ^ f for b, f in zip(y, flip)])
    d = ds.Dataset(x_rows, y_rows, 2)
    return model, d, draw(st.integers(1, 3))


def wide_instance():
    """A small_instances draw on 27 qubits, a basis above the cap of
    `dense()`, whose support is 216 states: outputs (NOT w0, NOT w0), two
    samples labelled 11, and k=3, which pads to n_aux=1."""
    gates = [bc.Gate("NOT", f"t{i}", ("w0",)) for i in range(5)]
    model = bc.ModelCircuit(3, 3, gates, ("t0", "t1"))
    return model, ds.Dataset([(0, 0, 0), (1, 0, 0)], [(1, 1), (1, 1)], 2), 3


class TestLargeAndRandomInstances:
    """Closed form vs gate-level run, within 1e-9, on instances of 21 to 62
    qubits (edge k=2 holds 41M basis states, toy k=15 29M, simplified-ed
    k=5 4.2e17) and on random small ones."""

    # peak RSS bounds (MB), each case run in a fresh interpreter. The state
    # keeps one count per weight, not its 41M or 29M support states, so
    # edge k=2 peaks near 41 MB and toy k=15 near 31 MB, about what the
    # imports and the accuracy table take; one byte a support state would
    # add 41 MB and 29 MB
    PEAK_MB = {("edge", 2): 60, ("toy", 15): 45}

    INSTANCES = [
        ("edge", 1, 24), ("edge", 2, 37), ("simplified-ed", 2, 29),
        ("toy", 8, 33), ("toy", 12, 49), ("toy", 15, 61), ("decode", 3, 21)]

    @pytest.mark.parametrize("task,k,n_qubits", INSTANCES)
    def test_matches_closed_form(self, task, k, n_qubits):
        if (task, k) in self.PEAK_MB:
            dev, drift, mass, got_qubits, peak_mb = crosscheck_fresh(task, k)
            assert peak_mb < self.PEAK_MB[task, k]
        else:
            dev, drift, mass, got_qubits = crosscheck(
                *reference_instance(task), k)
        assert got_qubits == n_qubits
        assert dev <= 1e-9 and drift <= 1e-9 and abs(mass - 1.0) <= 1e-9

    @pytest.mark.parametrize("task,k,pad", [
        (task, k, "auto") for task, k, _ in INSTANCES] + [
        ("simplified-ed", 3, "auto"), ("simplified-ed", 4, "auto"),
        ("simplified-ed", 5, "auto"), ("edge", 3, "auto"),
        ("nine-digits", 1, 0), ("nine-digits", 2, 0),
        ("nine-digits", 1, 7), ("nine-digits", 2, 7)])
    def test_counts_are_exact_powers(self, task, k, pad):
        # a weight's gate-level marked count is its table count to the k,
        # as an exact integer, and the totals are the plan's |S| and T; the
        # instances past the first seven have more support states than a
        # dump may build (2^26), and nine-digits runs 64 weight blocks
        model, d = reference_instance(task)
        table = am.accuracy_table(model, d)
        plan = am.make_plan(table, k, pad=pad)
        p = am.evolve_distribution(table, plan).p
        marg, state, _ = sv.grover_run(model, d, k, plan.g, plan.n_aux,
                                       return_state=True)
        assert np.array_equal(state.marked, table.counts ** k)
        assert state.n_marked == plan.n_solutions
        assert state.n_marked + state.n_unmarked == plan.n_states
        assert np.max(np.abs(marg - p)) <= 1e-9
        assert abs(state.norm() - 1.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    @example(wide_instance())
    def test_random_instances_match_the_reference(self, instance):
        # the reference's amplitudes hold at most two values, and the
        # engine's two amplitudes rebuild them on its support, which is the
        # reference's, in the same order
        model, d, k = instance
        try:
            plan = am.make_plan(am.accuracy_table(model, d), k)
        except am.DegenerateAngleError:
            assume(False)
        idx, _, final = reference_run(model, d, k, plan.g, plan.n_aux)
        assert len(np.unique(final)) <= 2
        _, state, _ = sv.grover_run(model, d, k, plan.g, plan.n_aux,
                                    return_state=True)
        support, mark = state.support()
        assert np.array_equal(support, idx)
        got = np.where(mark, state.a_marked, state.a_unmarked)
        assert np.max(np.abs(got - final)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_random_instances_match_closed_form(self, instance):
        model, d, k = instance
        try:
            dev, drift, mass, _ = crosscheck(model, d, k)
        except am.DegenerateAngleError:
            assume(False)  # every state is a solution: nothing to amplify
        assert dev <= 1e-9 and drift <= 1e-9 and abs(mass - 1.0) <= 1e-9


class TestCsv:
    def test_statevector_layout(self):
        def dump(state):
            return text(sv.statevector_csv(state))
        assert dump(two_valued(1, -0.5, 1.0, marked=[0])) == (
            "basis_index,re,im\n0,-0.5,0\n1,1,0\n")
        # -0.0 prints as itself, apart from the zeros off the support
        assert dump(by_hand(2, [[0], [1]], [[True], [False]], -0.0, 1.0)) == (
            "basis_index,re,im\n0,-0,0\n1,1,0\n2,0,0\n3,0,0\n")
        # an unmarked amplitude of 0.0 prints like the zeros off the support
        assert dump(by_hand(2, [[1], [3]], [[False], [True]], 0.5, 0.0)) == (
            "basis_index,re,im\n0,0,0\n1,0,0\n2,0,0\n3,0.5,0\n")
