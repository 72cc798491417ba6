"""Reversible Boolean model circuits: classical evaluation, exact correct
counts at any weight indices, and compilation to reversible gate lists.

A model circuit maps a weight bit vector w and an input bit vector x to an
output bit vector through named single-assignment gates. Bit vectors are
sequences of 0/1 with index 0 first; bit j of a weight vector is bit j
(weight 2**j) of its weight index.

Ops: NOT (1 input), COPY (1), XOR (>=2), AND (>=2), OR (>=2), MAJ (exactly 3,
majority vote). Weight wires are w0..w{dw-1}, input wires x0..x{dx-1}; every
other wire is defined by exactly one gate.

`eval_circuit` evaluates one (w, x) pair and is the reference; `eval_wires`
runs the gates over broadcastable bool arrays or packed bit words, and
`correct_counts` uses it to count, for every weight or any array of weight
indices, the samples a weight predicts exactly.

Compilation targets the reversible gate set {X, CNOT, multi-controlled X}. Each
Boolean op has a gate sequence whose effect is `target ^= f(inputs)`, so a
defined wire is uncomputed by replaying its defining sequence. Single-use
intermediates are folded away: XOR/NOT/COPY operands of AND/OR/MAJ are written
temporarily onto one of their own input qubits (compute, use as control,
restore), and operands of XOR gates are accumulated directly onto the XOR
target. Remaining intermediates take ancilla qubits, uncomputed after each
output so the pool is reused. A repeated operand collapses by its gate's
algebra: AND and OR are idempotent, so it is one control, and MAJ(a, a, b) is
compiled as a; every gate's controls are distinct qubits.
"""
from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

_OPS = {"NOT": (1, 1), "COPY": (1, 1), "XOR": (2, None), "AND": (2, None),
        "OR": (2, None), "MAJ": (3, 3)}


@dataclass(frozen=True)
class Gate:
    """One single-assignment Boolean gate: `out` is written once from `ins`."""
    op: str
    out: str
    ins: tuple[str, ...]

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unsupported op {self.op!r}")
        lo, hi = _OPS[self.op]
        if len(self.ins) < lo or (hi is not None and len(self.ins) > hi):
            raise ValueError(f"{self.op} takes {lo}..{hi or 'n'} inputs, "
                             f"got {len(self.ins)}")


@dataclass
class ModelCircuit:
    """A reversible Boolean DAG mapping (w, x) -> outputs.

    Wires w0..w{weight_width-1} and x0..x{input_width-1} are the inputs; each
    gate defines one fresh wire. `output_wires` selects the prediction bits.
    """
    weight_width: int
    input_width: int
    gates: list[Gate]
    output_wires: tuple[str, ...]

    def __post_init__(self):
        if self.weight_width <= 0 or self.input_width <= 0:
            raise ValueError("register widths must be positive")
        defined = set(self._input_wires())
        for g in self.gates:
            if g.out in defined:
                raise ValueError(f"wire {g.out!r} written twice")
            for name in g.ins:
                if name not in defined:
                    raise ValueError(f"gate {g.op} reads undefined wire {name!r}")
            defined.add(g.out)
        for name in self.output_wires:
            if name not in defined:
                raise ValueError(f"output wire {name!r} undefined")
        if not self.output_wires:
            raise ValueError("circuit needs at least one output wire")

    def _input_wires(self) -> list[str]:
        return [f"w{i}" for i in range(self.weight_width)] + \
               [f"x{j}" for j in range(self.input_width)]

    @property
    def output_width(self) -> int:
        return len(self.output_wires)


# each op on the list of its operands' bits, one 0/1 each
_BIT_OPS = {"NOT": lambda a: a[0] ^ 1, "COPY": lambda a: a[0],
            "XOR": lambda a: sum(a) & 1, "AND": lambda a: int(all(a)),
            "OR": lambda a: int(any(a)), "MAJ": lambda a: int(sum(a) >= 2)}


def eval_circuit(circuit: ModelCircuit, w, x) -> tuple[int, ...]:
    """Evaluate the circuit on one weight / input pair of bit tuples."""
    w, x = tuple(w), tuple(x)
    if (len(w), len(x)) != (circuit.weight_width, circuit.input_width):
        raise ValueError(f"weight and input widths {len(w)}, {len(x)} != "
                         f"{circuit.weight_width}, {circuit.input_width}")
    vals = dict(zip(circuit._input_wires(), w + x))
    if any(v not in (0, 1) for v in vals.values()):
        raise ValueError("bits must be 0 or 1")
    for g in circuit.gates:
        vals[g.out] = _BIT_OPS[g.op]([vals[n] for n in g.ins])
    return tuple(vals[n] for n in circuit.output_wires)


# ---------------------------------------------------------------------------
# correct counts at weight indices
#
# A wire's support is the set of weight bits it reads, directly or through
# other gates. When the register splits into a low and a high run of bits
# that meet only in the last gates (tiny-mnist's two detectors, edge's row
# and column kernels), a weight's count is a sum over samples of
# accept(a, b), where a and b are the patterns on the wires each run hands
# to those gates. Per chunk of samples, with base patterns a0 and b0 that
# occur in the runs, accept(a, b) is accept(a0, b0) plus a row term
# accept(a, b0) - accept(a0, b0), a column term accept(a0, b) - accept(a0,
# b0) and delta(a, b), and one float32 product, over the samples where delta
# != 0 only, adds them up into counts[high, low]. Any other register is one
# group against an empty high run. A chunk holds at most 2**21 samples,
# each adding at most 4 to an entry (|delta| <= 2), so every partial sum
# stays below 2**24, where float32 is exact.

# each op on the list of its operands' arrays, bitwise
_ARRAY_OPS = {"NOT": lambda a: ~a[0], "COPY": lambda a: a[0],
              "XOR": lambda a: functools.reduce(operator.xor, a),
              "AND": lambda a: functools.reduce(operator.and_, a),
              "OR": lambda a: functools.reduce(operator.or_, a),
              "MAJ": lambda a: (a[0] & a[1]) | (a[2] & (a[0] | a[1]))}

# samples are taken in chunks of at most this many (sample, weight) entries
# per group
_CHUNK_BOOLS = 1 << 22


def eval_wires(gates, vals: dict) -> dict:
    """Run `gates` in order over broadcastable numpy bool arrays or uint8
    words of packed bits: `vals` maps every wire they read but do not
    define to its value, and gains each gate's output; it is returned."""
    for g in gates:
        vals[g.out] = _ARRAY_OPS[g.op]([vals[n] for n in g.ins])
    return vals


def _supports(circuit: ModelCircuit) -> dict[str, int]:
    """Every wire's weight support, as a bit mask over the register."""
    sup = {f"w{i}": 1 << i for i in range(circuit.weight_width)}
    sup.update((f"x{j}", 0) for j in range(circuit.input_width))
    for g in circuit.gates:
        sup[g.out] = functools.reduce(operator.or_, (sup[n] for n in g.ins))
    return sup


def weight_groups(circuit: ModelCircuit, sup=None) -> list[tuple[int, ...]]:
    """The weight bits of each group `correct_counts` evaluates on its own:
    the low s bits and the rest when those are the two maximal gate-output
    supports strictly inside the register, otherwise the whole register.
    `sup` is `_supports(circuit)`, when the caller has it."""
    n = circuit.weight_width
    sup = sup or _supports(circuit)
    inner = {sup[g.out] for g in circuit.gates} - {(1 << n) - 1}
    top = sorted(m for m in inner
                 if not any(m != o and (m & o) == m for o in inner))
    s = top[0].bit_length() if top else 0
    if top == [(1 << s) - 1, (1 << n) - (1 << s)]:
        return [tuple(range(s)), tuple(range(s, n))]
    return [tuple(range(n))]


def _patterns(gates, bits, names, local, xs) -> tuple[int, list]:
    """One group's boundary patterns (bit j is wire names[j]) per sample and
    weight in `local` (bit k of which is weight bit bits[k]): the base, the
    first sample's at the first weight, and each other one that occurs with
    its 0/1 float32 matrix. The gates run on `statevec.model_planes`' layout:
    a row per sample, eight weights a byte, an input bit all 0s or all 1s."""
    if not names:  # the empty high group of a one-group register
        return 0, []
    bit_k = np.reshape(local, (-1, 1)) >> np.arange(len(bits)) & 1
    lanes = np.packbits(bit_k, axis=0, bitorder="little")
    vals = {f"w{i}": lanes[:, k] for k, i in enumerate(bits)}
    ones = xs.view(np.uint8) * np.uint8(255)
    vals.update((f"x{j}", ones[:, j, None]) for j in range(xs.shape[1]))
    eval_wires(gates, vals)
    dtype = np.min_scalar_type((1 << len(names)) - 1)
    code = np.zeros((len(xs), len(local)), dtype=dtype)
    for j, name in enumerate(names):
        bit = np.unpackbits(vals[name], axis=-1, count=len(local),
                            bitorder="little")
        code |= np.multiply(bit, 1 << j, dtype=dtype)  # a faster shift
    base = code[0, 0]
    return base, [(p, hit.astype(np.float32)) for p in range(1 << len(names))
                  if p != base and (hit := code == p).any()]


def _accept(circuit, gates, boundary, xs, ys) -> np.ndarray:
    """accept[s, a, b]: the outputs equal sample s's label when the groups'
    boundary wires carry patterns a and b."""
    vals = {f"x{j}": xs[:, j, None, None] for j in range(xs.shape[1])}
    for shape, names in (((1, -1, 1), boundary[0]), ((1, 1, -1), boundary[1])):
        pattern = np.arange(1 << len(names))
        for j, name in enumerate(names):
            vals[name] = (pattern >> j & 1).astype(bool).reshape(shape)
    eval_wires(gates, vals)
    accept = np.ones((len(xs), 1 << len(boundary[0]), 1 << len(boundary[1])),
                     dtype=bool)
    for o, name in enumerate(circuit.output_wires):
        accept &= vals[name] == ys[:, o, None, None]
    return accept


def correct_counts(circuit: ModelCircuit, xs, ys, weights=None) -> np.ndarray:
    """How many samples the circuit predicts exactly at each index of
    `weights`, an int array of any shape (default every weight, in index
    order), as int64 counts of its shape. Sample s is input bits xs[s] with
    label bits ys[s] (0/1 or bool rows). The groups of `weight_groups` are
    contracted on the grid of the weights' distinct low and high indices."""
    xs, ys = np.asarray(xs, dtype=bool), np.asarray(ys, dtype=bool)
    if (xs.ndim != 2 or not len(xs) or xs.shape[1] != circuit.input_width
            or ys.shape != (len(xs), circuit.output_width)):
        raise ValueError(f"expected inputs (n, {circuit.input_width}) and "
                         f"labels (n, {circuit.output_width}) with n >= 1, "
                         f"got {xs.shape} and {ys.shape}")
    sup = _supports(circuit)
    bits = (weight_groups(circuit, sup) + [()])[:2]
    if weights is None:
        grid = [np.arange(1 << len(b)) for b in bits]
    else:
        weights = np.asarray(weights)
        if weights.min() < 0 or weights.max() >> circuit.weight_width:
            raise ValueError("weight indices must lie in "
                             f"0..2**{circuit.weight_width} - 1")
        low, grid, at = len(bits[0]), [], []
        for part in (weights & ((1 << low) - 1), weights >> low):
            seen = np.zeros(int(part.max()) + 1, dtype=bool)
            seen[part] = True
            grid.append(np.flatnonzero(seen))  # distinct local indices
            at.append(np.cumsum(seen)[part] - 1)  # each weight's place in them
    masks = [sum(1 << i for i in b) for b in bits]
    # the group whose support holds the wire, else None (input-only, crossing)
    home = {n: next((k for k, m in enumerate(masks)
                     if s and not s & ~m), None) for n, s in sup.items()}
    cross = [g for g in circuit.gates if home[g.out] is None]
    read = {n for g in cross for n in g.ins}.union(circuit.output_wires)
    boundary = [[n for n in sup if n in read and home[n] == k] for k in (0, 1)]
    gates = [[g for g in circuit.gates if not sup[g.out] & ~m] for m in masks]
    ones = [np.ones((1, len(g)), np.float32) for g in grid]
    chunk = max(1, _CHUNK_BOOLS >> max(map(len, bits)))
    for a in range(0, len(xs), chunk):
        x, y = xs[a:a + chunk], ys[a:a + chunk]
        (a0, pat0), (b0, pat1) = [_patterns(*group, x) for group in
                                  zip(gates, bits, boundary, grid)]
        acc = _accept(circuit, cross, boundary, x, y).astype(np.float32)
        base = acc[:, a0, b0]
        row = base.sum() + sum((acc[:, p, b0] - base) @ e for p, e in pat0)
        col = sum((acc[:, a0, q] - base) @ e for q, e in pat1)
        # the row and column terms enter the product as two rank-one rows
        left, right = [ones[1], ones[1] * col], [ones[0] * row, ones[0]]
        for p, e0 in pat0:
            for q, e1 in pat1:
                delta = acc[:, p, q] - acc[:, a0, q] - acc[:, p, b0] + base
                nz = np.flatnonzero(delta)
                left.append(e1[nz] * delta[nz, None])
                right.append(e0[nz])
        part = (np.concatenate(left).T @ np.concatenate(right)).astype(
            np.int64)
        counts = counts + part if a else part
    if weights is None:
        return counts.ravel()
    return counts[at[1], at[0]]


# ---------------------------------------------------------------------------
# experiment models

def _scan_rows(gates: list[Gate], kbits: list[str], bias: str, out: str,
               cell, tag: str) -> None:
    """OR over three scan lines of (AND over three XOR matches), XOR bias.

    cell(i, j) names the input wire at scan line i, position j.
    """
    rows = tuple(f"{tag}r{i}" for i in range(3))
    for i, row in enumerate(rows):
        terms = tuple(f"{tag}e{i}{j}" for j in range(3))
        gates += [Gate("XOR", e, (kbits[j], cell(i, j)))
                  for j, e in enumerate(terms)]
        gates.append(Gate("AND", row, terms))
    gates.append(Gate("OR", f"{tag}m", rows))
    gates.append(Gate("XOR", out, (f"{tag}m", bias)))


def edge_detection_model() -> ModelCircuit:
    """Two-output line scanner over a 3x3 image (x[3i+j] = row i, col j).

    Output 0 ORs a 3-bit XOR-match kernel (w0..w2, bias w3) across the three
    rows; output 1 applies its own kernel (w4..w6, bias w7) across the three
    columns. 8 weight bits, 9 input bits.
    """
    gates: list[Gate] = []
    _scan_rows(gates, ["w0", "w1", "w2"], "w3", "o0",
               lambda i, j: f"x{3 * i + j}", "a")
    _scan_rows(gates, ["w4", "w5", "w6"], "w7", "o1",
               lambda i, j: f"x{3 * j + i}", "b")
    return ModelCircuit(8, 9, gates, ("o0", "o1"))


def simplified_ed_model() -> ModelCircuit:
    """Single-output row scanner: output 0 of `edge_detection_model` with an
    independent 4-bit weight register (kernel w0..w2, bias w3)."""
    gates: list[Gate] = []
    _scan_rows(gates, ["w0", "w1", "w2"], "w3", "o0",
               lambda i, j: f"x{3 * i + j}", "a")
    return ModelCircuit(4, 9, gates, ("o0",))


def tiny_mnist_model() -> ModelCircuit:
    """Two masked-OR detectors over a 3x3 image: detector t is the OR of
    w[10t+3i+j] AND x[3i+j] over all cells, XOR a bias bit w[10t+9].

    The detectors (o0, o1) name a digit: o0 set means 1, else o1 set means
    2, else 7. Two more gates write that digit's canonical pattern, so the
    outputs are (o0, c1) with c1 = NOT o0 AND o1: 1 -> (1,0), 2 -> (0,1),
    7 -> (0,0), and exact match against the label is the digit test.
    20 weight bits, 9 input bits."""
    gates: list[Gate] = []
    for t in range(2):
        terms = tuple(f"h{t}{c}" for c in range(9))
        gates += [Gate("AND", h, (f"w{10 * t + c}", f"x{c}"))
                  for c, h in enumerate(terms)]
        gates.append(Gate("OR", f"m{t}", terms))
        gates.append(Gate("XOR", f"o{t}", (f"m{t}", f"w{10 * t + 9}")))
    gates.append(Gate("NOT", "n0", ("o0",)))
    gates.append(Gate("AND", "c1", ("n0", "o1")))
    return ModelCircuit(20, 9, gates, ("o0", "c1"))


def toy_xor_model() -> ModelCircuit:
    """One-bit model o = w XOR x (the smallest interesting instance)."""
    return ModelCircuit(1, 1, [Gate("XOR", "o0", ("w0", "x0"))], ("o0",))


# ---------------------------------------------------------------------------
# compilation to reversible gates

@dataclass(frozen=True)
class RGate:
    """X / CNOT / multi-controlled X, by control count. Flipping `target`
    happens on basis states where every control qubit is 1."""
    controls: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class GateList:
    """Reversible compilation of a ModelCircuit.

    Qubit layout: [0, n_w) weights, [n_w, n_w+n_x) inputs, then `out_qubits`
    (one per circuit output, applied to |0>), then `n_anc` ancilla qubits.
    Applying `gates` to |w, x, 0, 0> yields |w, x, yhat, 0>: every ancilla is
    returned to zero by the per-output uncompute segments baked into `gates`.
    """
    n_w: int
    n_x: int
    out_qubits: tuple[int, ...]
    n_anc: int
    gates: tuple[RGate, ...] = ()

    @property
    def n_qubits(self) -> int:
        return self.n_w + self.n_x + len(self.out_qubits) + self.n_anc


class _Compiler:
    def __init__(self, circuit: ModelCircuit):
        self.c = circuit
        self.qubit = {n: q for q, n in enumerate(circuit._input_wires())}
        self.defs = {g.out: g for g in circuit.gates}
        self.uses = Counter(n for g in circuit.gates for n in g.ins)
        self.uses.update(circuit.output_wires)
        n_io = len(self.qubit)
        self.out_qubits = tuple(range(n_io, n_io + circuit.output_width))
        self.anc_base = n_io + circuit.output_width
        self.out: list[RGate] = []
        self.free_anc: list[int] = []
        self.n_anc = 0
        self.live: list[str] = []  # materialized wires, in materialization order

    def _alloc(self) -> int:
        if self.free_anc:
            return self.free_anc.pop()
        self.n_anc += 1
        return self.anc_base + self.n_anc - 1

    def _materialize(self, name: str) -> int:
        q = self._alloc()
        self._write(name, q)
        self.qubit[name] = q
        self.live.append(name)
        return q

    def _controls(self, names) -> tuple[tuple[int, ...], list[RGate]]:
        """Resolve distinct AND/OR/MAJ operands to control qubits.

        Order of emission matters: operands that need computing are
        materialized first (capturing original input values), and only then
        are single-use XOR/NOT/COPY operands borrowed in place on an input
        qubit - a borrow mutates its base qubit, so a base may not collide
        with any qubit another operand reads.

        Returns (controls, gates that restore the borrowed bases)."""
        borrowed: list[str] = []
        bases: set[int] = set()
        for n in names:
            if n in self.qubit:
                continue
            d = self.defs[n]
            if (self.uses[n] == 1 and d.op in ("XOR", "NOT", "COPY")
                    and all(m in self.qubit for m in d.ins)):
                reads = [self.qubit[m] for m in d.ins]
                # no operand may sit on the base, also not one that an
                # earlier operand's materialization realized
                if (reads[0] not in map(self.qubit.get, names)
                        and reads[0] not in reads[1:]
                        and bases.isdisjoint(reads)):
                    bases.add(reads[0])
                    borrowed.append(n)
                    continue
            self._materialize(n)
        pre: list[RGate] = []
        for n in borrowed:
            d = self.defs[n]
            base = self.qubit[n] = self.qubit[d.ins[0]]
            pre += [RGate((self.qubit[m],), base) for m in d.ins[1:]]
            if d.op == "NOT":
                pre.append(RGate((), base))
        self.out += pre
        controls = tuple(self.qubit[n] for n in names)
        for n in borrowed:
            del self.qubit[n]
        return controls, pre[::-1]

    def _write(self, name: str, target: int) -> None:
        """Emit gates with net effect target ^= value(name)."""
        if name in self.qubit:
            self.out.append(RGate((self.qubit[name],), target))
            return
        g = self.defs[name]
        if g.op in ("XOR", "COPY", "NOT"):
            for n in g.ins:
                if n in self.qubit or self.uses[n] == 1:
                    self._write(n, target)  # a single-use one folds in place
                else:
                    self.out.append(RGate((self._materialize(n),), target))
            if g.op == "NOT":
                self.out.append(RGate((), target))
            return
        names = tuple(dict.fromkeys(g.ins))  # AND and OR are idempotent
        if g.op == "MAJ" and len(names) < 3:  # MAJ(a, a, b) = a
            self._write(max(g.ins, key=g.ins.count), target)
            return
        controls, restores = self._controls(names)
        if g.op == "AND":
            self.out.append(RGate(controls, target))
        elif g.op == "OR":
            flips = [RGate((), q) for q in controls]
            self.out += flips + [RGate(controls, target), RGate((), target)]
            self.out += flips
        else:  # MAJ
            a, b, c = controls
            self.out += [RGate((a, b), target), RGate((a, c), target),
                         RGate((b, c), target)]
        self.out += restores

    def run(self) -> GateList:
        for name, oq in zip(self.c.output_wires, self.out_qubits):
            self._write(name, oq)
            # uncompute this output's intermediates in reverse order (later
            # wires may read earlier ones, so earlier must still be live),
            # freeing their ancillas for the next output
            while self.live:
                wire = self.live.pop()
                q = self.qubit.pop(wire)
                self._write(wire, q)  # replay: q ^= value leaves q at zero
                self.free_anc.append(q)
            # a later output that reads this one reads its output qubit
            self.qubit.setdefault(name, oq)
        return GateList(self.c.weight_width, self.c.input_width,
                        self.out_qubits, self.n_anc, tuple(self.out))


def structure_key(circuit: ModelCircuit) -> tuple:
    """A hashable snapshot of what the circuit computes: equal for equal
    circuits, whichever object holds them."""
    return (circuit.weight_width, circuit.input_width, tuple(circuit.gates),
            tuple(circuit.output_wires))


_COMPILED: dict[tuple, GateList] = {}


def compile_circuit(circuit: ModelCircuit) -> GateList:
    """Compile a ModelCircuit to reversible gates (see GateList docstring),
    once per circuit structure: equal circuits share one frozen GateList."""
    key = structure_key(circuit)
    if key not in _COMPILED:
        _COMPILED[key] = _Compiler(circuit).run()
    return _COMPILED[key]
