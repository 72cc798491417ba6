"""Reversible Boolean model circuits: classical evaluation, bulk weight sweeps,
and compilation to reversible gate lists.

A model circuit maps a weight bit vector w and an input bit vector x to an
output bit vector through named single-assignment gates. Bit vectors are
tuples of 0/1 with index 0 first; `bits_to_index`/`index_to_bits` convert to
integers with bit j carrying weight 2**j.

Text serialization (one gate per line, parsed by `parse_circuit`):

    weights 4          # weight register width
    inputs 9           # input register width
    outputs o0 o1      # ordered output wire names
    XOR t0 <- w0 x0    # OP out <- in1 in2 ...

Ops: NOT (1 input), COPY (1), XOR (>=2), AND (>=2), OR (>=2), MAJ (exactly 3,
majority vote). Weight wires are w0..w{dw-1}, input wires x0..x{dx-1}; every
other wire is defined by exactly one gate.

Compilation targets the reversible gate set {X, CNOT, multi-controlled X}. Each
Boolean op has a gate sequence whose effect is `target ^= f(inputs)`, so a
defined wire is uncomputed by replaying its defining sequence. Single-use
intermediates are folded away: XOR/NOT/COPY operands of AND/OR/MAJ are written
temporarily onto one of their own input qubits (compute, use as control,
restore), and operands of XOR gates are accumulated directly onto the XOR
target. Remaining intermediates take ancilla qubits, uncomputed after each
output so the pool is reused.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_OPS = {"NOT": (1, 1), "COPY": (1, 1), "XOR": (2, None), "AND": (2, None),
        "OR": (2, None), "MAJ": (3, 3)}

_WORD_BITS = 64
# lane patterns for weight bits 0..5 inside one 64-lane word
_LANE_PATTERNS = [0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                  0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000]


def bits_to_index(bits) -> int:
    """Little-endian bits -> unsigned integer (bit j weighs 2**j)."""
    idx = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {j} is {b!r}, expected 0 or 1")
        idx |= b << j
    return idx


def index_to_bits(index: int, width: int) -> tuple[int, ...]:
    """Unsigned integer -> little-endian bit tuple of the given width."""
    if width <= 0:
        raise ValueError("width must be positive")
    if not 0 <= index < (1 << width):
        raise ValueError(f"index {index} out of range for width {width}")
    return tuple((index >> j) & 1 for j in range(width))


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


def eval_circuit(circuit: ModelCircuit, w, x) -> tuple[int, ...]:
    """Evaluate the circuit on one weight / input pair of bit tuples."""
    w, x = tuple(w), tuple(x)
    if len(w) != circuit.weight_width:
        raise ValueError(f"weight width {len(w)} != {circuit.weight_width}")
    if len(x) != circuit.input_width:
        raise ValueError(f"input width {len(x)} != {circuit.input_width}")
    vals: dict[str, int] = {}
    for i, b in enumerate(w):
        vals[f"w{i}"] = b
    for j, b in enumerate(x):
        vals[f"x{j}"] = b
    if any(v not in (0, 1) for v in vals.values()):
        raise ValueError("bits must be 0 or 1")
    for g in circuit.gates:
        a = [vals[n] for n in g.ins]
        if g.op == "NOT":
            r = a[0] ^ 1
        elif g.op == "COPY":
            r = a[0]
        elif g.op == "XOR":
            r = 0
            for v in a:
                r ^= v
        elif g.op == "AND":
            r = int(all(a))
        elif g.op == "OR":
            r = int(any(a))
        else:  # MAJ
            r = int(a[0] + a[1] + a[2] >= 2)
        vals[g.out] = r
    return tuple(vals[n] for n in circuit.output_wires)


# ---------------------------------------------------------------------------
# bulk evaluation over every weight at once (bit-parallel)
#
# Lane L of word j stands for weight index 64*j + L. Within one sweep the
# input bits are constants, so they are folded through the gates: AND with 0
# gives 0, OR with 1 gives 1, XOR with 1 is a NOT, and every other constant
# operand drops out. Only gates whose value still depends on w cost a pass
# over the words.

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@functools.cache
def _weight_words(width: int) -> tuple[np.ndarray, ...]:
    """Packed value of each weight bit across all lanes of all words. Built
    once per register width and shared read-only by every sweep."""
    n_words = ((1 << width) + _WORD_BITS - 1) // _WORD_BITS
    word = np.arange(n_words, dtype=np.uint64)
    planes = []
    for bit in range(width):
        if bit < 6:
            v = np.full(n_words, _LANE_PATTERNS[bit], dtype=np.uint64)
        else:
            v = np.where((word >> np.uint64(bit - 6)) & np.uint64(1),
                         _ALL_ONES, np.uint64(0))
        v.flags.writeable = False
        planes.append(v)
    return tuple(planes)


def _chain(ufunc, words: list[np.ndarray]) -> np.ndarray:
    """ufunc folded over the words, writing only into the array it made."""
    if len(words) == 1:
        return words[0]
    r = ufunc(words[0], words[1])
    for v in words[2:]:
        ufunc(r, v, out=r)
    return r


def _fold_gate(op: str, args: list) -> int | np.ndarray:
    """One gate over operands that are 0/1 constants or packed words."""
    if op == "COPY":
        return args[0]
    if op == "MAJ":  # (a AND (b OR c)) OR (b AND c), folded the same way
        a, b, c = args
        a_and_bc = _fold_gate("AND", [a, _fold_gate("OR", [b, c])])
        return _fold_gate("OR", [a_and_bc, _fold_gate("AND", [b, c])])
    consts, words = [], []
    for v in args:
        (words if v.__class__ is np.ndarray else consts).append(v)
    if op == "NOT":
        return ~words[0] if words else 1 - consts[0]
    if op == "XOR":
        flip = sum(consts) & 1
        if not words:
            return flip
        r = _chain(np.bitwise_xor, words)
        return ~r if flip else r
    if op == "AND":
        if 0 in consts or not words:
            return int(0 not in consts)
        return _chain(np.bitwise_and, words)
    if 1 in consts or not words:  # OR
        return int(1 in consts)
    return _chain(np.bitwise_or, words)


@functools.cache
def _wire_names(prefix: str, width: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(width))


def eval_all_weights(circuit: ModelCircuit, x) -> list[np.ndarray]:
    """Evaluate the circuit for one x across all 2**weight_width weights.

    Returns one packed uint64 array per output wire, owned by the caller; lane
    L of word j holds the output bit for weight index 64*j + L. An output the
    input bits fix is a word array of all zeros or all ones. Lanes past
    2**weight_width are meaningless and must be masked by the caller (see
    `unpack_lanes`).
    """
    x = tuple(x)
    if len(x) != circuit.input_width:
        raise ValueError(f"input width {len(x)} != {circuit.input_width}")
    weight_words = _weight_words(circuit.weight_width)
    vals: dict[str, int | np.ndarray] = dict(
        zip(_wire_names("w", circuit.weight_width), weight_words))
    vals.update(zip(_wire_names("x", circuit.input_width),
                    [1 if b else 0 for b in x]))
    for g in circuit.gates:
        vals[g.out] = _fold_gate(g.op, [vals[n] for n in g.ins])
    outs = []
    for name in circuit.output_wires:
        v = vals[name]
        if not isinstance(v, np.ndarray):
            v = np.full(len(weight_words[0]), _ALL_ONES if v else 0,
                        dtype=np.uint64)
        elif not v.flags.writeable:  # a shared weight-bit word
            v = v.copy()
        outs.append(v)
    return outs


def unpack_lanes(packed: np.ndarray, n_lanes: int) -> np.ndarray:
    """Packed uint64 words -> uint8 array of the first n_lanes bits."""
    as_bytes = packed.astype("<u8", copy=False).view("u1")
    return np.unpackbits(as_bytes, count=n_lanes, bitorder="little")


# ---------------------------------------------------------------------------
# experiment models

def _scan_rows(gates: list[Gate], kbits: list[str], bias: str, out: str,
               cell, tag: str) -> None:
    """OR over three scan lines of (AND over three XOR matches), XOR bias.

    cell(i, j) names the input wire at scan line i, position j.
    """
    rows = []
    for i in range(3):
        terms = []
        for j in range(3):
            name = f"{tag}e{i}{j}"
            gates.append(Gate("XOR", name, (kbits[j], cell(i, j))))
            terms.append(name)
        row = f"{tag}r{i}"
        gates.append(Gate("AND", row, tuple(terms)))
        rows.append(row)
    gates.append(Gate("OR", f"{tag}m", tuple(rows)))
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
        terms = []
        for c in range(9):
            name = f"h{t}{c}"
            gates.append(Gate("AND", name, (f"w{10 * t + c}", f"x{c}")))
            terms.append(name)
        gates.append(Gate("OR", f"m{t}", tuple(terms)))
        gates.append(Gate("XOR", f"o{t}", (f"m{t}", f"w{10 * t + 9}")))
    gates.append(Gate("NOT", "n0", ("o0",)))
    gates.append(Gate("AND", "c1", ("n0", "o1")))
    return ModelCircuit(20, 9, gates, ("o0", "c1"))


def toy_xor_model() -> ModelCircuit:
    """One-bit model o = w XOR x (the smallest interesting instance)."""
    return ModelCircuit(1, 1, [Gate("XOR", "o0", ("w0", "x0"))], ("o0",))


# ---------------------------------------------------------------------------
# serialization

def serialize_circuit(circuit: ModelCircuit) -> str:
    lines = [f"weights {circuit.weight_width}", f"inputs {circuit.input_width}",
             "outputs " + " ".join(circuit.output_wires)]
    for g in circuit.gates:
        lines.append(f"{g.op} {g.out} <- " + " ".join(g.ins))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> ModelCircuit:
    weights = inputs = None
    outputs: tuple[str, ...] = ()
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "weights":
                weights = int(tok[1])
            elif tok[0] == "inputs":
                inputs = int(tok[1])
            elif tok[0] == "outputs":
                outputs = tuple(tok[1:])
            else:
                if tok[2] != "<-":
                    raise ValueError("expected '<-'")
                gates.append(Gate(tok[0], tok[1], tuple(tok[3:])))
        except (IndexError, ValueError) as e:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {e}") from e
    if weights is None or inputs is None or not outputs:
        raise ValueError("missing weights/inputs/outputs header")
    return ModelCircuit(weights, inputs, gates, outputs)


# ---------------------------------------------------------------------------
# compilation to reversible gates

@dataclass(frozen=True)
class RGate:
    """X / CNOT / multi-controlled X, by control count. Flipping `target`
    happens on basis states where every control qubit is 1."""
    controls: tuple[int, ...]
    target: int


@dataclass
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
    gates: list[RGate] = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return self.n_w + self.n_x + len(self.out_qubits) + self.n_anc

    def inverse(self) -> list[RGate]:
        """Formal inverse (every gate is self-inverse, so just reversed)."""
        return list(reversed(self.gates))

    def remap(self, mapping) -> "GateList":
        """GateList with every qubit index renamed through `mapping`."""
        g = GateList(self.n_w, self.n_x,
                     tuple(mapping[q] for q in self.out_qubits), self.n_anc)
        g.gates = [RGate(tuple(mapping[c] for c in r.controls),
                         mapping[r.target]) for r in self.gates]
        return g


class _Compiler:
    def __init__(self, circuit: ModelCircuit):
        self.c = circuit
        self.qubit: dict[str, int] = {}
        for i in range(circuit.weight_width):
            self.qubit[f"w{i}"] = i
        for j in range(circuit.input_width):
            self.qubit[f"x{j}"] = circuit.weight_width + j
        self.defs = {g.out: g for g in circuit.gates}
        self.uses: dict[str, int] = {}
        for g in circuit.gates:
            for n in g.ins:
                self.uses[n] = self.uses.get(n, 0) + 1
        for n in circuit.output_wires:
            self.uses[n] = self.uses.get(n, 0) + 1
        self.out: list[RGate] = []
        self.free_anc: list[int] = []
        self.n_anc = 0
        self.live: list[str] = []  # materialized wires, in materialization order

    def _alloc(self) -> int:
        if self.free_anc:
            return self.free_anc.pop()
        q = -1 - self.n_anc  # placeholder, fixed up at the end
        self.n_anc += 1
        return q

    def _materialize(self, name: str) -> int:
        q = self._alloc()
        self._write(name, q)
        self.qubit[name] = q
        self.live.append(name)
        return q

    def _resolve_gate_controls(self, g: Gate):
        """Resolve AND/OR/MAJ operands to pairwise-distinct control qubits.

        Order of emission matters: operands that need computing are
        materialized first (capturing original input values), realized
        operands that share a qubit get gate-local copies next, and only then
        are single-use XOR/NOT/COPY operands borrowed in place on an input
        qubit - a borrow mutates its base qubit, so a base may not collide
        with any qubit another operand reads.

        Returns (controls, restore_ops, temp_ancillas)."""
        resolved: dict[int, int] = {}
        undo: list[list[RGate]] = []
        temp_anc: list[int] = []
        raw_qubits = {self.qubit[n] for n in g.ins if n in self.qubit}
        borrow_plan: list[tuple[int, str]] = []
        borrow_bases: set[int] = set()
        for i, n in enumerate(g.ins):
            if n in self.qubit:
                continue
            d = self.defs[n]
            ok = (self.uses.get(n, 0) == 1 and d.op in ("XOR", "NOT", "COPY")
                  and all(m in self.qubit for m in d.ins))
            if ok:
                reads = {self.qubit[m] for m in d.ins}
                base = self.qubit[d.ins[0]]
                ok = (base not in raw_qubits
                      and not reads & borrow_bases
                      and base not in {self.qubit[m] for m in d.ins[1:]})
            if ok:
                borrow_bases.add(base)
                borrow_plan.append((i, n))
            else:
                q = self._materialize(n)
                resolved[i] = q
                raw_qubits.add(q)
        seen = set(resolved.values())
        for i, n in enumerate(g.ins):
            if i in resolved or n not in self.qubit:
                continue
            q = self.qubit[n]
            if q in seen:
                t = self._alloc()
                cp = RGate((q,), t)
                self.out.append(cp)
                undo.append([cp])
                temp_anc.append(t)
                resolved[i] = t
            else:
                seen.add(q)
                resolved[i] = q
        for i, n in borrow_plan:
            d = self.defs[n]
            base = self.qubit[d.ins[0]]
            pre = [RGate((self.qubit[m],), base) for m in d.ins[1:]]
            if d.op == "NOT":
                pre.append(RGate((), base))
            self.out.extend(pre)
            undo.append([RGate(r.controls, r.target) for r in reversed(pre)])
            resolved[i] = base
        controls = [resolved[i] for i in range(len(g.ins))]
        restores = [r for seg in reversed(undo) for r in seg]
        return controls, restores, temp_anc

    def _write(self, name: str, target: int) -> None:
        """Emit gates with net effect target ^= value(name)."""
        if name in self.qubit:
            self.out.append(RGate((self.qubit[name],), target))
            return
        g = self.defs[name]
        if g.op in ("XOR", "COPY", "NOT"):
            for n in g.ins:
                if n in self.qubit:
                    self.out.append(RGate((self.qubit[n],), target))
                elif self.uses.get(n, 0) == 1:
                    self._write(n, target)  # fold single-use operand in place
                else:
                    self.out.append(RGate((self._materialize(n),), target))
            if g.op == "NOT":
                self.out.append(RGate((), target))
            return
        controls, restores, temp_anc = self._resolve_gate_controls(g)
        if g.op == "AND":
            self.out.append(RGate(tuple(controls), target))
        elif g.op == "OR":
            for q in controls:
                self.out.append(RGate((), q))
            self.out.append(RGate(tuple(controls), target))
            self.out.append(RGate((), target))
            for q in controls:
                self.out.append(RGate((), q))
        else:  # MAJ
            a, b, c = controls
            self.out.append(RGate((a, b), target))
            self.out.append(RGate((a, c), target))
            self.out.append(RGate((b, c), target))
        self.out.extend(restores)
        for q in temp_anc:
            self.free_anc.append(q)

    def run(self) -> GateList:
        n_io = self.c.weight_width + self.c.input_width
        out_qubits = tuple(range(n_io, n_io + len(self.c.output_wires)))
        for name, oq in zip(self.c.output_wires, out_qubits):
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
        gl = GateList(self.c.weight_width, self.c.input_width, out_qubits,
                      self.n_anc)
        anc_base = n_io + len(out_qubits)
        fix = lambda q: anc_base + (-1 - q) if q < 0 else q
        gl.gates = [RGate(tuple(fix(c) for c in r.controls), fix(r.target))
                    for r in self.out]
        return gl


def compile_circuit(circuit: ModelCircuit) -> GateList:
    """Compile a ModelCircuit to reversible gates (see GateList docstring)."""
    return _Compiler(circuit).run()
