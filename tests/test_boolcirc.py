import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (bits_to_index, index_to_bits, make_synthetic_idx_dir,
                      samples)
from grovertrain import boolcirc as bc
from grovertrain import datasets as ds
from grovertrain import tasks


# tiny-mnist's labels: each digit's canonical output pattern
DIGIT_PATTERNS = {1: (1, 0), 2: (0, 1), 7: (0, 0)}


def decode_digit(bits) -> int:
    """The digit two tiny-mnist detector bits name: o0 set means 1, else o1
    set means 2, else 7."""
    o0, o1 = bits
    return 1 if o0 else 2 if o1 else 7


def sweep(m, x):
    """Every weight's outputs on input x through the array evaluator:
    (2**weight_width, output_width) bools, row i for weight index i."""
    idx = np.arange(1 << m.weight_width)
    vals = {f"w{i}": (idx >> i & 1).astype(bool)
            for i in range(m.weight_width)}
    vals.update((f"x{j}", np.bool_(b)) for j, b in enumerate(x))
    vals = bc.eval_wires(m.gates, vals)
    return np.stack([np.broadcast_to(vals[n], idx.shape)
                     for n in m.output_wires], axis=1)


def tiny_mnist_weights():
    """tiny-mnist's weight wires over all 2**20 weights, as arrays that
    broadcast to (1024, 1024): axis 0 runs over bits 10..19 and axis 1 over
    bits 0..9, so a flattened result is indexed by weight index."""
    i = np.arange(1024)
    vals = {f"w{b}": (i >> b & 1).astype(bool) for b in range(10)}
    vals.update((f"w{10 + b}", (i[:, None] >> b & 1).astype(bool))
                for b in range(10))
    return vals


class TestIndexBits:
    def test_round_trip(self):
        for width in (1, 3, 8):
            for i in range(1 << width):
                bits = index_to_bits(i, width)
                assert bits_to_index(bits) == i

    def test_bit_zero_is_lowest(self):
        assert bits_to_index((1, 0, 0)) == 1
        assert index_to_bits(4, 3) == (0, 0, 1)
        # the grid tasks hold image index i in row i, bit j in column j
        assert ds.gen_simplified_ed().x[4].tolist() == [0, 0, 1] + [0] * 6


class TestGateValidation:
    def test_arity_checks(self):
        with pytest.raises(ValueError):
            bc.Gate("NOT", "a", ("b", "c"))
        with pytest.raises(ValueError):
            bc.Gate("AND", "a", ("b",))
        with pytest.raises(ValueError):
            bc.Gate("MAJ", "a", ("b", "c"))
        with pytest.raises(ValueError):
            bc.Gate("NAND", "a", ("b", "c"))

    def test_ssa_violations(self):
        g = [bc.Gate("XOR", "t", ("w0", "x0")),
             bc.Gate("NOT", "t", ("w0",))]
        with pytest.raises(ValueError):
            bc.ModelCircuit(1, 1, g, ("t",))
        with pytest.raises(ValueError):
            bc.ModelCircuit(1, 1, [bc.Gate("NOT", "u", ("nowhere",))], ("u",))


class TestModelOracles:
    """Frozen input/output pairs computed by independent bitwise evaluation."""

    def test_toy_is_xor(self):
        m = bc.toy_xor_model()
        for w in (0, 1):
            for x in (0, 1):
                assert bc.eval_circuit(m, (w,), (x,)) == (w ^ x,)

    def test_edge_detection_perfect_weight(self):
        m = bc.edge_detection_model()
        w = index_to_bits(136, 8)
        x_row = (1, 1, 1, 0, 0, 0, 0, 0, 0)      # one solid row line
        x_col = (1, 0, 0, 1, 0, 0, 1, 0, 0)      # one solid column line
        x_none = (0, 1, 0, 0, 0, 1, 1, 0, 0)
        assert bc.eval_circuit(m, w, x_row) == (0, 1)
        assert bc.eval_circuit(m, w, x_col) == (1, 0)
        assert bc.eval_circuit(m, w, x_none) == (1, 1)
        assert bc.eval_circuit(m, w, (1,) * 9) == (0, 0)

    def test_simplified_ed_values(self):
        m = bc.simplified_ed_model()
        # all-zero image under the all-ones kernel with zero bias: each
        # row scan matches on >= 2 positions, so the detector fires
        assert bc.eval_circuit(m, (1, 1, 1, 0), (0,) * 9) == (1,)
        assert bc.eval_circuit(m, (0, 0, 0, 0), (0,) * 9) == (0,)
        assert bc.eval_circuit(m, (0, 0, 0, 1), (0,) * 9) == (1,)
        assert bc.eval_circuit(m, (0, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, 0)) == (1,)

    def test_tiny_mnist_mask_and_bias(self):
        m = bc.tiny_mnist_model()
        w = (0,) * 20
        assert bc.eval_circuit(m, w, (1,) * 9) == (0, 0)
        w_bias = tuple(1 if i in (9, 19) else 0 for i in range(20))
        # both detectors fire: digit 1, written as its pattern (1,0)
        assert bc.eval_circuit(m, w_bias, (0,) * 9) == (1, 0)
        w_one_mask = tuple(1 if i == 0 else 0 for i in range(20))
        x = tuple(1 if i == 0 else 0 for i in range(9))
        assert bc.eval_circuit(m, w_one_mask, x) == (1, 0)
        w_second = tuple(1 if i == 19 else 0 for i in range(20))
        assert bc.eval_circuit(m, w_second, (0,) * 9) == (0, 1)

    def test_tiny_mnist_outputs_are_canonical_digit_patterns(self):
        """The outputs are the canonical pattern of the digit that the two
        detector wires decode to, on every weight and input."""
        m = bc.tiny_mnist_model()
        raw = bc.ModelCircuit(20, 9, m.gates, ("o0", "o1"))
        inputs = [index_to_bits(xi, 9) for xi in range(512)]
        assert m.output_wires == ("o0", "c1")
        xi = np.arange(512)
        for chunk in np.array_split(xi, 32):  # all 2^20 weights at once
            vals = tiny_mnist_weights()
            vals.update((f"x{j}", (chunk >> j & 1).astype(bool)[:, None, None])
                        for j in range(9))
            vals = bc.eval_wires(m.gates, vals)
            # the digit is 1 where o0 is set, 2 where o0 is clear and o1 set
            assert np.array_equal(
                np.broadcast_to(vals["c1"], (len(chunk), 1024, 1024)),
                ~vals["o0"] & vals["o1"])
        rng = np.random.default_rng(17)
        bias_only = [0, 1 << 9, 1 << 19, 1 << 9 | 1 << 19]
        pairs = [(wi, x) for wi in bias_only for x in inputs]
        pairs += [(int(wi), inputs[int(xi)]) for wi, xi in
                  zip(rng.integers(0, 1 << 20, 300), rng.integers(0, 512, 300))]
        for wi, x in pairs:
            w = index_to_bits(wi, 20)
            out = bc.eval_circuit(m, w, x)
            assert out in DIGIT_PATTERNS.values()
            digit = decode_digit(bc.eval_circuit(raw, w, x))
            assert out == DIGIT_PATTERNS[digit]

    def test_edge_transpose_symmetry(self):
        """Swapping the two kernel/bias groups and transposing the image
        swaps the two outputs."""
        m = bc.edge_detection_model()
        rng = np.random.default_rng(3)
        for _ in range(40):
            w = tuple(int(b) for b in rng.integers(0, 2, 8))
            x = tuple(int(b) for b in rng.integers(0, 2, 9))
            w_swap = w[4:] + w[:4]
            x_t = tuple(x[3 * (i % 3) + i // 3] for i in range(9))
            o = bc.eval_circuit(m, w, x)
            o_swap = bc.eval_circuit(m, w_swap, x_t)
            assert o_swap == (o[1], o[0])


@st.composite
def random_circuits(draw, n_w=st.integers(1, 3), n_x=st.integers(1, 3),
                    n_out=st.integers(1, 2)):
    n_w = draw(n_w)
    n_x = draw(n_x)
    wires = [f"w{i}" for i in range(n_w)] + [f"x{i}" for i in range(n_x)]
    gates = []
    n_out = draw(n_out)
    n_gates = draw(st.integers(n_out, 8))
    for gi in range(n_gates):
        op = draw(st.sampled_from(("NOT", "COPY", "XOR", "AND", "OR", "MAJ")))
        arity = {"NOT": 1, "COPY": 1, "XOR": 2, "AND": 2, "OR": 2, "MAJ": 3}[op]
        ins = tuple(draw(st.sampled_from(wires)) for _ in range(arity))
        name = f"t{gi}"
        gates.append(bc.Gate(op, name, ins))
        wires.append(name)
    outs = draw(st.permutations([g.out for g in gates]))[:n_out]
    return bc.ModelCircuit(n_w, n_x, gates, tuple(outs))


@st.composite
def two_group_circuits(draw):
    """Two random sub-circuits on disjoint weight registers, the low and the
    high run of bits or interleaved, each ending in a gate that reads its
    whole register, joined by a head gate that reads both of those, maybe
    more of their wires, and maybe an input. Returns (circuit, bits of one
    register, bits of the other)."""
    n_a, n_b, n_x = draw(st.integers(1, 4)), draw(st.integers(1, 4)), \
        draw(st.integers(1, 3))
    perm = draw(st.one_of(st.just(range(n_a + n_b)),
                          st.permutations(range(n_a + n_b))))
    regs = (sorted(perm[:n_a]), sorted(perm[n_a:]))
    xs = [f"x{j}" for j in range(n_x)]
    gates, tops, extra = [], [], []
    for tag, reg in zip("ab", regs):
        wires = [f"w{i}" for i in reg] + xs
        for gi in range(draw(st.integers(0, 4))):
            op = draw(st.sampled_from(("NOT", "COPY", "XOR", "AND", "OR",
                                       "MAJ")))
            arity = {"NOT": 1, "COPY": 1, "MAJ": 3}.get(op, 2)
            ins = tuple(draw(st.sampled_from(wires)) for _ in range(arity))
            gates.append(bc.Gate(op, f"{tag}{gi}", ins))
            wires.append(f"{tag}{gi}")
        top = f"{tag}top"
        gates.append(bc.Gate(draw(st.sampled_from(("XOR", "AND", "OR"))), top,
                             tuple(f"w{i}" for i in reg)
                             + (draw(st.sampled_from(wires)),)))
        tops.append(top)
        extra += [w for w in wires if w not in xs]
    ins = tops + draw(st.lists(st.sampled_from(extra), max_size=2)) \
        + draw(st.lists(st.sampled_from(xs), max_size=1))
    op = "MAJ" if len(ins) == 3 and draw(st.booleans()) else \
        draw(st.sampled_from(("XOR", "AND", "OR")))
    gates.append(bc.Gate(op, "head", tuple(ins)))
    outs = ("head",) + tuple(draw(st.lists(st.sampled_from(extra + tops),
                                           max_size=1)))
    m = bc.ModelCircuit(n_a + n_b, n_x, gates, outs)
    return m, tuple(regs[0]), tuple(regs[1])


# later outputs read the first one: as an XOR operand, through a NOT
# borrowed on its output qubit, and as an AND control
CHAINED_OUTPUTS = bc.ModelCircuit(
    2, 2, [bc.Gate("OR", "a", ("w0", "x0")),
           bc.Gate("XOR", "b", ("a", "x1")),
           bc.Gate("NOT", "n", ("a",)),
           bc.Gate("AND", "c", ("n", "w1", "b"))], ("a", "b", "c"))


# the OR materializes a, which computes t onto an ancilla on the way; n is a
# single-use NOT of t, so it may be borrowed in place only on a qubit that
# no other operand reads, and the OR also reads t
BORROW_BESIDE_ITS_BASE = bc.ModelCircuit(
    1, 2, [bc.Gate("AND", "t", ("w0", "x0")),
           bc.Gate("AND", "a", ("t", "x1")),
           bc.Gate("NOT", "n", ("t",)),
           bc.Gate("OR", "o", ("a", "n", "t"))], ("o",))


# outputs that some inputs fix: to constants, or to a bare weight bit
FOLDING_CIRCUITS = [
    bc.ModelCircuit(7, 2, [bc.Gate("AND", "a", ("w6", "x0")),
                           bc.Gate("OR", "b", ("x1", "w0", "w6"))],
                    ("a", "b")),
    bc.ModelCircuit(3, 2, [bc.Gate("MAJ", "m", ("x0", "x1", "w2")),
                           bc.Gate("XOR", "p", ("x0", "x1", "x1"))],
                    ("m", "p")),
    bc.ModelCircuit(6, 2, [bc.Gate("NOT", "n", ("x1",)),
                           bc.Gate("MAJ", "m", ("n", "w5", "x0"))],
                    ("w5", "m")),
    bc.ModelCircuit(2, 3, [bc.Gate("XOR", "q", ("x0", "w1", "x2")),
                           bc.Gate("COPY", "c", ("x1",))], ("c", "q")),
]


def reference_counts(m, xs, ys):
    """Per-weight counts of exact matches, one eval_circuit call per pair."""
    return [sum(bc.eval_circuit(m, index_to_bits(wi, m.weight_width), x)
                == tuple(y) for x, y in zip(xs, ys))
            for wi in range(1 << m.weight_width)]


class TestWeightSweep:
    @pytest.mark.parametrize("model_fn", [
        bc.toy_xor_model, bc.simplified_ed_model, bc.edge_detection_model])
    def test_matches_pointwise_eval(self, model_fn):
        m = model_fn()
        rng = np.random.default_rng(11)
        n_w = 1 << m.weight_width
        for _ in range(4):
            x = tuple(int(b) for b in rng.integers(0, 2, m.input_width))
            outs = sweep(m, x)
            for _ in range(16):
                wi = int(rng.integers(0, n_w))
                w = index_to_bits(wi, m.weight_width)
                assert tuple(map(int, outs[wi])) == bc.eval_circuit(m, w, x)

    def test_tiny_mnist_lane_alignment(self):
        # weight indices at the edges of bit groups and of the register
        m = bc.tiny_mnist_model()
        x = tuple(int(b) for b in np.random.default_rng(5).integers(0, 2, 9))
        outs = sweep(m, x)
        for wi in (0, 1, 63, 64, 65, 1023, 1024, 2 ** 19, 2 ** 20 - 1):
            w = index_to_bits(wi, 20)
            assert tuple(map(int, outs[wi])) == bc.eval_circuit(m, w, x)

    @pytest.mark.parametrize("m", FOLDING_CIRCUITS)
    def test_folded_outputs_match_pointwise_eval(self, m):
        n_w = 1 << m.weight_width
        for xi in range(1 << m.input_width):
            x = index_to_bits(xi, m.input_width)
            outs = sweep(m, x)
            for wi in range(n_w):
                w = index_to_bits(wi, m.weight_width)
                assert tuple(map(int, outs[wi])) == bc.eval_circuit(m, w, x)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from(FOLDING_CIRCUITS),
                     random_circuits(n_w=st.integers(1, 8))), st.data())
    def test_returned_words_are_the_callers(self, m, data):
        rows = st.lists(st.lists(st.integers(0, 1), min_size=m.input_width,
                                 max_size=m.input_width), min_size=1,
                        max_size=4)
        xs = data.draw(rows)
        ys = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=m.output_width,
                     max_size=m.output_width),
            min_size=len(xs), max_size=len(xs)))
        first = bc.correct_counts(m, xs, ys)
        want = first.copy()
        np.negative(first, out=first)
        assert np.array_equal(bc.correct_counts(m, xs, ys), want)
        assert want.tolist() == reference_counts(m, xs, ys)


class TestCorrectCounts:
    @pytest.mark.parametrize("model_fn, groups", [
        (bc.tiny_mnist_model, [tuple(range(10)), tuple(range(10, 20))]),
        (bc.edge_detection_model, [(0, 1, 2, 3), (4, 5, 6, 7)]),
        (bc.simplified_ed_model, [(0, 1, 2, 3)]),
        (bc.toy_xor_model, [(0,)])])
    def test_task_weight_groups(self, model_fn, groups):
        assert bc.weight_groups(model_fn()) == groups

    @settings(max_examples=150, deadline=None)
    @given(two_group_circuits(), st.data())
    def test_two_groups_match_per_weight_reference(self, case, data):
        # a low and a high run are the groups; an interleaved split is not
        m, a, b = case
        low, high = sorted([a, b])
        n = m.weight_width
        assert bc.weight_groups(m) == ([low, high]
                                       if low == tuple(range(len(low)))
                                       else [tuple(range(n))])
        n_x = m.input_width
        xs = [index_to_bits(xi, n_x) for xi in data.draw(st.lists(
            st.integers(0, (1 << n_x) - 1), min_size=1, max_size=12))]
        ys = [index_to_bits(yi, m.output_width) for yi in data.draw(
            st.lists(st.integers(0, (1 << m.output_width) - 1),
                     min_size=len(xs), max_size=len(xs)))]
        w = np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                        min_size=1, max_size=8)))
        want = reference_counts(m, xs, ys)
        for chunk in (bc._CHUNK_BOOLS, 1):  # then one sample per chunk
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bc, "_CHUNK_BOOLS", chunk)
                full = bc.correct_counts(m, xs, ys)
                assert full.tolist() == want
                assert np.array_equal(bc.correct_counts(m, xs, ys, w),
                                      full[w])

    def test_chunks_add_up(self, edge_bundle):
        # every image 2**11 times: 2**20 rows in four chunks of 2**18
        m, d = edge_bundle.model, edge_bundle.full
        one = bc.correct_counts(m, d.x, d.y)
        many = bc.correct_counts(m, np.repeat(d.x, 1 << 11, axis=0),
                                 np.repeat(d.y, 1 << 11, axis=0))
        assert len(d) << 11 == 1 << 20
        assert np.array_equal(many, one << 11)

    def test_rejects_mismatched_rows(self):
        m = bc.edge_detection_model()
        with pytest.raises(ValueError):
            bc.correct_counts(m, [(0,) * 8], [(0, 0)])
        with pytest.raises(ValueError):
            bc.correct_counts(m, [(0,) * 9], [(0,)])
        with pytest.raises(ValueError):
            bc.correct_counts(m, [(0,) * 9] * 2, [(0, 0)])
        with pytest.raises(ValueError):
            bc.correct_counts(m, np.zeros((0, 9)), np.zeros((0, 2)))

    # sha256 of each train split's full int64 table, recorded while the
    # contraction still gathered each pattern's acceptance and summed the
    # last pattern's column; tiny-mnist on make_synthetic_idx_dir(300, 100)
    FULL_TABLES = {
        "toy":
            "b1535c7783ea8829b6b0cf67704539798b4d16c39bf0bfe09494c5d9f12eee30",
        "simplified-ed":
            "c33452e94c1a19c6aef4ed64cb0f64d1378c1572f02aec7196da1dac49d09c3b",
        "edge":
            "c84f7f3edff515923b4f20dd1836457712f8929972fc725834955f8f5171adbb",
        "tiny-mnist":
            "12291c0b1f984297179c72b271521cf337b7e1bc9c431fc79155bf7bbc105356",
    }

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        idx = make_synthetic_idx_dir(tmp_path_factory.mktemp("idx"),
                                     n_train=300, n_test=100)
        return {t: tasks.load_task(t, str(idx)) for t in self.FULL_TABLES}

    @pytest.mark.parametrize("task", list(FULL_TABLES))
    def test_default_grid_is_the_full_table(self, bundles, task):
        m, d = bundles[task].model, bundles[task].train
        got = bc.correct_counts(m, d.x, d.y)
        every = np.arange(1 << m.weight_width)
        assert np.array_equal(bc.correct_counts(m, d.x, d.y, every), got)
        assert hashlib.sha256(got.astype("<i8").tobytes()).hexdigest() == \
            self.FULL_TABLES[task]

    @pytest.mark.parametrize("task", list(FULL_TABLES))
    def test_grid_matches_pointwise_eval(self, bundles, task):
        # random weight arrays, unsorted and with repeats
        m, d = bundles[task].model, bundles[task].train
        rng = np.random.default_rng(len(task))
        w = rng.permutation(np.repeat(rng.integers(0, 1 << m.weight_width, 5),
                                      2)).reshape(2, 5)
        got = bc.correct_counts(m, d.x, d.y, w)
        assert got.shape == w.shape
        for wi, count in zip(w.ravel().tolist(), got.ravel().tolist()):
            bits = index_to_bits(wi, m.weight_width)
            assert count == sum(bc.eval_circuit(m, bits, x) == y
                                for x, y in samples(d))

    @pytest.mark.parametrize("task", list(FULL_TABLES))
    def test_counts_at_reads_the_full_table(self, bundles, task):
        m, d = bundles[task].model, bundles[task].test
        w = np.random.default_rng(4).integers(0, 1 << m.weight_width, (7, 5))
        w[0, 0] = w[3, 1]  # a repeat
        want = bc.correct_counts(m, d.x, d.y)[w]
        assert np.array_equal(bc.correct_counts(m, d.x, d.y, w), want)
        assert np.array_equal(bc.correct_counts(m, d.x, d.y, w[2]), want[2])
        for bad in ([-1], [1 << m.weight_width]):
            with pytest.raises(ValueError):
                bc.correct_counts(m, d.x, d.y, bad)

    def test_two_boundary_wires_per_group(self):
        # each group hands two wires to the crossing gates, so each side
        # carries four patterns; where x2 = 0 the output c is 0 whatever the
        # high group carries, so those samples' delta is 0
        gates = [bc.Gate("XOR", "la", ("w0", "x0")),
                 bc.Gate("AND", "lb", ("w0", "w1", "x1")),
                 bc.Gate("OR", "ha", ("w2", "x2")),
                 bc.Gate("XOR", "hb", ("w2", "w3", "x1")),
                 bc.Gate("MAJ", "mj", ("lb", "ha", "hb")),
                 bc.Gate("AND", "c", ("mj", "x2"))]
        m = bc.ModelCircuit(4, 3, gates, ("la", "c"))
        assert bc.weight_groups(m) == [(0, 1), (2, 3)]
        probe = bc.ModelCircuit(4, 3, gates, ("la", "lb", "ha", "hb"))
        wires = {bc.eval_circuit(probe, index_to_bits(w, 4),
                                 index_to_bits(x, 3))
                 for w in range(16) for x in range(8)}
        assert len({v[:2] for v in wires}) == len({v[2:] for v in wires}) == 4
        xs = [index_to_bits(x, 3) for x in range(8)] * 4
        ys = [index_to_bits(i // 8, 2) for i in range(32)]  # every label
        want = reference_counts(m, xs, ys)
        w = [hi << 2 | lo for hi in (2, 2, 0, 3, 1) for lo in (3, 0, 3, 1)]
        w_want = [want[i] for i in w]
        assert bc.correct_counts(m, xs, ys).tolist() == want
        assert bc.correct_counts(m, xs, ys, w).tolist() == w_want
        with pytest.MonkeyPatch.context() as mp:  # one sample per chunk
            mp.setattr(bc, "_CHUNK_BOOLS", 1)
            assert bc.correct_counts(m, xs, ys).tolist() == want
            assert bc.correct_counts(m, xs, ys, w).tolist() == w_want

    @pytest.mark.parametrize("weights", [[], [256], [3, -1]],
                             ids=["empty", "past-end", "negative"])
    def test_rejects_bad_grids(self, weights):
        m = bc.edge_detection_model()
        with pytest.raises(ValueError):
            bc.correct_counts(m, [(0,) * 9], [(0, 0)], weights)


def simulate_gatelist(gl, w_bits, x_bits):
    """Classical reference simulation of a compiled gate list on one basis
    state; returns (outputs, ancilla_clean, inputs_preserved)."""
    bits = [0] * gl.n_qubits
    bits[:gl.n_w] = list(w_bits)
    bits[gl.n_w:gl.n_w + gl.n_x] = list(x_bits)
    for g in gl.gates:
        if all(bits[c] for c in g.controls):
            bits[g.target] ^= 1
    outs = tuple(bits[q] for q in gl.out_qubits)
    anc_lo = gl.n_w + gl.n_x + len(gl.out_qubits)
    anc_clean = all(b == 0 for b in bits[anc_lo:])
    preserved = (tuple(bits[:gl.n_w]) == tuple(w_bits)
                 and tuple(bits[gl.n_w:gl.n_w + gl.n_x]) == tuple(x_bits))
    return outs, anc_clean, preserved


def simulate_gatelist_all(gl):
    """Vectorized classical simulation over every (w, x) basis state."""
    n_in = gl.n_w + gl.n_x
    n_states = 1 << n_in
    idx = np.arange(n_states)
    bits = np.zeros((n_states, gl.n_qubits), dtype=np.uint8)
    for q in range(n_in):
        bits[:, q] = (idx >> q) & 1
    for g in gl.gates:
        fire = np.ones(n_states, dtype=bool)
        for c in g.controls:
            fire &= bits[:, c] == 1
        bits[fire, g.target] ^= 1
    return bits


class TestCompiler:
    def test_equal_circuits_share_one_frozen_gate_list(self):
        # each load builds a new model object; the compiled list is keyed on
        # the circuit's structure, so it is built once and cannot be changed
        gl = bc.compile_circuit(bc.edge_detection_model())
        assert bc.compile_circuit(bc.edge_detection_model()) is gl
        assert isinstance(gl.gates, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gl.n_anc = 0
        m = bc.edge_detection_model()
        m.gates.pop()  # o1's last gate gone: another structure
        m.gates.append(bc.Gate("XOR", "o1", ("bm", "w3")))
        assert bc.compile_circuit(m) is not gl
        assert bc.compile_circuit(m).gates != gl.gates

    def test_toy_compiles_to_two_cnots(self):
        gl = bc.compile_circuit(bc.toy_xor_model())
        assert [(g.controls, g.target) for g in gl.gates] == [
            ((0,), 2), ((1,), 2)]

    def test_and_compiles_to_one_ccx(self):
        m = bc.ModelCircuit(1, 1, [bc.Gate("AND", "o", ("w0", "x0"))], ("o",))
        gl = bc.compile_circuit(m)
        assert [(g.controls, g.target) for g in gl.gates] == [((0, 1), 2)]

    def test_or_uses_negated_controls_pattern(self):
        m = bc.ModelCircuit(1, 1, [bc.Gate("OR", "o", ("w0", "x0"))], ("o",))
        gl = bc.compile_circuit(m)
        assert [(g.controls, g.target) for g in gl.gates] == [
            ((), 0), ((), 1), ((0, 1), 2), ((), 2), ((), 0), ((), 1)]

    @pytest.mark.parametrize("gate,pairs", [
        # AND and OR are idempotent, and MAJ(a, a, b) = a: no ancilla
        (bc.Gate("AND", "o", ("w0", "w0", "x0")), [((0, 1), 2)]),
        (bc.Gate("OR", "o", ("x0", "x0")),
         [((), 1), ((1,), 2), ((), 2), ((), 1)]),
        (bc.Gate("MAJ", "o", ("w0", "w0", "x0")), [((0,), 2)]),
    ])
    def test_repeated_operands_collapse(self, gate, pairs):
        gl = bc.compile_circuit(bc.ModelCircuit(1, 1, [gate], ("o",)))
        assert gl.n_anc == 0
        assert [(g.controls, g.target) for g in gl.gates] == pairs

    @pytest.mark.parametrize("model_fn,n_anc,n_gates,digest", [
        (bc.toy_xor_model, 0, 2,
         "957d8ce7bae2b1493f261ce1511a055b955dccb6a832fa193bcba0b8c572d959"),
        (bc.simplified_ed_model, 3, 51,
         "08f7a37c98a40ef61e85c194263646796f78c9dfb607f4e6700ea67b7a85fb30"),
        (bc.edge_detection_model, 3, 102,
         "2a53bcfab027f7452b7416ecdf567752aaa208e6eb44dc2613dbca705a941acc"),
        (bc.tiny_mnist_model, 10, 102,
         "b019f97033de89e3952e71d41aa056f2400457a1d534be072604b1807658f75a"),
    ])
    def test_task_models_compile_to_pinned_gate_lists(self, model_fn, n_anc,
                                                      n_gates, digest):
        # sha256 of repr() of the (controls, target) pairs in order
        gl = bc.compile_circuit(model_fn())
        pairs = [(g.controls, g.target) for g in gl.gates]
        assert (gl.n_anc, len(pairs)) == (n_anc, n_gates)
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("model_fn", [
        bc.toy_xor_model, bc.simplified_ed_model])
    def test_exhaustive_equality_small_models(self, model_fn):
        m = model_fn()
        gl = bc.compile_circuit(m)
        assert m.weight_width + m.input_width <= 16
        bits = simulate_gatelist_all(gl)
        n_in = m.weight_width + m.input_width
        anc_lo = n_in + len(gl.out_qubits)
        assert not bits[:, anc_lo:].any(), "ancillas must end clean"
        idx = np.arange(1 << n_in)
        for q in range(n_in):
            assert np.array_equal(bits[:, q], ((idx >> q) & 1).astype(np.uint8))
        for state in range(0, 1 << n_in, 7):
            w = tuple((state >> i) & 1 for i in range(m.weight_width))
            x = tuple((state >> (m.weight_width + i)) & 1
                      for i in range(m.input_width))
            expect = bc.eval_circuit(m, w, x)
            got = tuple(int(bits[state, q]) for q in gl.out_qubits)
            assert got == expect

    def test_edge_model_sampled_equality(self):
        m = bc.edge_detection_model()
        gl = bc.compile_circuit(m)
        rng = np.random.default_rng(9)
        for _ in range(60):
            w = tuple(int(b) for b in rng.integers(0, 2, 8))
            x = tuple(int(b) for b in rng.integers(0, 2, 9))
            outs, clean, preserved = simulate_gatelist(gl, w, x)
            assert outs == bc.eval_circuit(m, w, x)
            assert clean and preserved

    def test_tiny_mnist_reads_its_first_output_from_its_qubit(self):
        # the canonicalising AND reads o0 from its output qubit; computing o0
        # again would need 21 ancillas
        m = bc.tiny_mnist_model()
        gl = bc.compile_circuit(m)
        assert gl.n_anc == 10
        rng = np.random.default_rng(13)
        for _ in range(40):
            w = tuple(int(b) for b in rng.integers(0, 2, 20))
            x = tuple(int(b) for b in rng.integers(0, 2, 9))
            outs, clean, preserved = simulate_gatelist(gl, w, x)
            assert outs == bc.eval_circuit(m, w, x)
            assert clean and preserved

    def test_inverse_restores_identity(self):
        m = bc.simplified_ed_model()
        gl = bc.compile_circuit(m)
        both = bc.GateList(gl.n_w, gl.n_x, gl.out_qubits, gl.n_anc,
                           gl.gates + gl.gates[::-1])
        bits = simulate_gatelist_all(both)
        n_in = m.weight_width + m.input_width
        idx = np.arange(1 << n_in)
        for q in range(gl.n_qubits):
            expect = ((idx >> q) & 1).astype(np.uint8) if q < n_in else 0
            assert np.array_equal(bits[:, q], np.broadcast_to(expect, bits[:, q].shape))


class TestCompilerProperty:
    @settings(max_examples=60, deadline=None)
    @given(random_circuits())
    @example(CHAINED_OUTPUTS)
    @example(BORROW_BESIDE_ITS_BASE)
    def test_random_circuit_compiles_exactly(self, m):
        gl = bc.compile_circuit(m)
        for g in gl.gates:
            assert len(set(g.controls)) == len(g.controls), g
        bits = simulate_gatelist_all(gl)
        n_in = m.weight_width + m.input_width
        anc_lo = n_in + len(gl.out_qubits)
        assert not bits[:, anc_lo:].any()
        for state in range(1 << n_in):
            w = tuple((state >> i) & 1 for i in range(m.weight_width))
            x = tuple((state >> (m.weight_width + i)) & 1
                      for i in range(m.input_width))
            got = tuple(int(bits[state, q]) for q in gl.out_qubits)
            assert got == bc.eval_circuit(m, w, x)
