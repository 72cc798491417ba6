"""Statevector simulation of the amplified weight search, on its support.

The full pipeline, end to end: a uniform weight register, k data registers
holding the dataset in superposition, the compiled reversible model writing
each register's prediction, a phase oracle marking the states where every
copy's prediction equals its label, and inversion about the mean. Its weight
marginal is the ground truth for the closed-form evolution in `amplify`. Every
gate is an X, CNOT or multi-controlled X, run bit-sliced (Biham, FSE 1997) on
packed bit planes: per qubit one row per data state, eight weights a byte, the
layout `boolcirc` evaluates its circuits on. The list restores every qubit it
uses as scratch (weights too: 3 of simplified-ed's, 6 of edge's), and each run
checks that. So the state stays on the 2^d_w * (N + n_aux)^k basis states of
|Psi_0> (on at most 62 qubits), the product of the k copies' equal slices: a
weight with c correct samples has c^k marked states. Only `support()`,
`dense()` and dumps build the basis indices, up to 2^26 of them, and the
last two refuse a basis of more than 2^26 states.
The oracle and the reflection about the uniform, real |Psi_0> (each amplitude
a to 2 * mean - a, quant-ph/9605043) keep equal amplitudes equal, so a round
updates just two: the marked states' and the rest's (quant-ph/9605034).

Qubit q is bit q of the basis index. The weight register takes the lowest
qubits, then come k data copies of input bits, label bits and (only with
auxiliary padding) a realness flag, then one prediction block per copy, then
the model's shared ancillas. Padded samples fill unused basis states of the
data registers with the flag at 0, so they never satisfy the oracle; padding
qubits above the flag hold what the input and label bits cannot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplify import CsvBlocks
from .boolcirc import GateList, ModelCircuit, compile_circuit
from .datasets import Dataset

MAX_QUBITS = 62  # basis indices, masks and state counts stay below 2**62
MAX_SUPPORT = 1 << 26  # support states that support() and dumps broadcast


@dataclass(frozen=True)
class CopyRegisters:
    """Qubit indices of one parallel data copy."""
    x: tuple[int, ...]
    y: tuple[int, ...]
    flag: int | None
    out: tuple[int, ...]
    pad: tuple[int, ...] = ()  # extra padding bits above the flag


@dataclass(frozen=True)
class SystemLayout:
    """Qubit indices of the full amplification system."""
    weight: tuple[int, ...]
    copies: tuple[CopyRegisters, ...]
    anc: tuple[int, ...]
    n_qubits: int


class QuantumState:
    """Real state over n_qubits on the support of |Psi_0>: `rows` states per
    weight, marked[w] (int64) of weight w's marked, at a_marked, the rest at
    a_unmarked. build() gives every support state's basis index (int64) and
    oracle mark in support order: weight fastest, then copy 0's state, on to
    copy k-1's slowest."""

    def __init__(self, n_qubits: int, rows: int, marked, a_marked,
                 a_unmarked, build):
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count must lie in [1, {MAX_QUBITS}]")
        if np.iscomplexobj(a_marked) or np.iscomplexobj(a_unmarked):
            raise ValueError("amplitudes must be real")
        self.n_qubits, self._build = n_qubits, build
        self.marked = np.asarray(marked, dtype=np.int64)
        self.a_marked, self.a_unmarked = float(a_marked), float(a_unmarked)
        if not 0 <= self.marked.min() <= self.marked.max() <= rows:
            raise ValueError("marked counts must lie in [0, rows]")
        self.unmarked = rows - self.marked
        self.n_marked = int(self.marked.sum())
        self.n_unmarked = rows * len(self.marked) - self.n_marked

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis index (int64) and oracle mark of every support state,
        in support order. For dumps and tests, not for rounds."""
        n = self.n_marked + self.n_unmarked
        if n > MAX_SUPPORT:
            raise ValueError(f"system has {n} basis states in its support, "
                             f"cap is {MAX_SUPPORT}")
        return self._build()

    def _keys(self) -> np.ndarray:
        """The uint8 key of every basis state, in index order: 0 marked, 1
        unmarked, 2 off the support. Refuses more than MAX_SUPPORT basis
        states (support() first refuses a support above it)."""
        if self.n_marked + self.n_unmarked <= MAX_SUPPORT < 1 << self.n_qubits:
            raise ValueError(f"system has 2**{self.n_qubits} basis states, "
                             f"cap is {MAX_SUPPORT}")
        idx, mark = self.support()
        keys = np.full(1 << self.n_qubits, 2, np.uint8)
        keys[idx] = ~mark
        return keys

    def dense(self) -> np.ndarray:
        """The full 2**n_qubits amplitude vector (for small states)."""
        return np.array([self.a_marked, self.a_unmarked, 0.0])[self._keys()]

    def norm(self) -> float:
        return math.sqrt(self.n_marked * self.a_marked ** 2
                         + self.n_unmarked * self.a_unmarked ** 2)

    def marginal(self) -> np.ndarray:
        """Probability of each weight, from its marked and unmarked counts."""
        return (self.marked * self.a_marked ** 2
                + self.unmarked * self.a_unmarked ** 2)


def apply_gates(planes, gates) -> None:
    """Flip, in place, each gate's target where its controls are 1, on
    packed bit planes: planes[q] holds qubit q's bit of every state, eight
    weights a byte along each state's row. X inverts the target's plane, CNOT
    XORs in its control's, a multi-controlled X the AND of its controls'."""
    buf = np.empty_like(planes[0])
    for g in gates:
        target = planes[g.target]
        if not g.controls:
            np.invert(target, out=target)
        elif len(g.controls) == 1:
            target ^= planes[g.controls[0]]
        else:
            np.bitwise_and(planes[g.controls[0]], planes[g.controls[1]],
                           out=buf)
            for c in g.controls[2:]:
                buf &= planes[c]
            target ^= buf


def oracle_mark(idx: np.ndarray, copy: CopyRegisters) -> np.ndarray:
    """Where one copy's basis indices idx are a real sample (flag 1) whose
    prediction equals its label. `build_layout` puts the prediction block
    above the label block, as wide, so one shift and XOR compares them."""
    flag = 0 if copy.flag is None else 1 << copy.flag
    label = sum(1 << q for q in copy.y)
    diff = ((idx >> (copy.out[0] - copy.y[0])) ^ idx) & label
    return (diff | (~idx & flag)) == 0


def build_layout(model: ModelCircuit, k: int, n_aux: int,
                 n_anc: int) -> SystemLayout:
    n_x, n_y, flag = model.input_width, model.output_width, int(n_aux > 0)
    n_pad = max(0, (n_aux - 1).bit_length() - n_x - n_y) if flag else 0
    # weights, k copies of (x, y, flag, padding), k prediction blocks, ancillas
    w, span = model.weight_width, n_x + n_y + flag + n_pad
    preds, anc = w + k * span, w + k * (span + n_y)

    def run(start: int, width: int) -> tuple[int, ...]:
        return tuple(range(start, start + width))

    copies = tuple(CopyRegisters(run(q, n_x), run(q + n_x, n_y),
                                 q + n_x + n_y if flag else None,
                                 run(preds + j * n_y, n_y),
                                 run(q + n_x + n_y + flag, n_pad))
                   for j, q in enumerate(range(w, preds, span)))
    return SystemLayout(run(0, w), copies, run(anc, n_anc), anc + n_anc)


def _copy_register_states(d: Dataset, n_aux: int) -> np.ndarray:
    """Basis states of one data copy, ascending: real samples |x, y, flag=1>
    plus n_aux distinct padded states |p, flag=0>, all at equal amplitude.
    Padded index p fills the x, y bits first and carries its higher bits on
    the padding qubits above the flag."""
    data_width = d.d_x + d.d_y
    flag_bit = 1 << data_width if n_aux > 0 else 0
    real = np.hstack([d.x, d.y]) @ (1 << np.arange(data_width)) | flag_bit
    p = np.arange(n_aux, dtype=np.int64)
    padded = (p & (flag_bit - 1)) | ((p >> data_width) << (data_width + 1))
    idx = np.sort(np.concatenate([real, padded]))
    if np.any(idx[1:] == idx[:-1]):
        # two equal samples would share one basis state and break the norm
        raise ValueError("dataset repeats a sample")
    return idx


def model_planes(gl: GateList, states: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """The packed bit planes, in the gate list's qubit order, after its gates
    ran on each state in `states` against each weight in `weights`, laid out
    like `boolcirc._patterns`' words: one row per state, eight weights a byte
    (little bit order, pad lanes at weight 0). Weight rows pack the weights'
    bits, input rows are all ones where the state sets the bit, the rest start
    at 0. RuntimeError names a non-output target the gates leave changed."""
    planes = np.zeros((gl.n_qubits, len(states), -(-len(weights) // 8)),
                      np.uint8)
    for q in range(gl.n_w):
        planes[q] = np.packbits((weights >> q) & 1, bitorder="little")
    for i in range(gl.n_x):
        planes[gl.n_w + i] = (states[:, None] >> i & 1) * 255
    kept = sorted({g.target for g in gl.gates} - set(gl.out_qubits))
    start = planes[kept]
    apply_gates(planes, gl.gates)
    for q, before in zip(kept, start):
        if (planes[q] != before).any():
            role = ("weight" if q < gl.n_w else
                    "input" if q < gl.n_w + gl.n_x else "ancilla")
            raise RuntimeError(
                f"model gates leave {role} qubit {q} of the gate list changed")
    return planes


def _support(gl: GateList, layout: SystemLayout,
             states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support's basis indices and oracle marks, in support order: each
    copy's slice (its states against every weight, prediction written)
    OR-broadcast, as with Kronecker products, and its marks AND-broadcast."""
    n_w = 1 << gl.n_w
    planes = model_planes(gl, states, np.arange(n_w))
    idx, mark = np.arange(n_w)[None], True
    for copy in layout.copies:
        part = (states[:, None] << copy.x[0]) | np.arange(n_w)
        for q, o in zip(gl.out_qubits, copy.out):
            part |= np.unpackbits(planes[q], axis=1, count=n_w,
                                  bitorder="little").astype(np.int64) << o
        idx = (part[:, None] | idx).reshape(-1, n_w)
        mark = (oracle_mark(part, copy)[:, None] & mark).reshape(-1, n_w)
    return idx.ravel(), mark.ravel()


def prepare_initial(model: ModelCircuit, d: Dataset, k: int, n_aux: int = 0
                    ) -> tuple[QuantumState, SystemLayout]:
    """|Psi_0>: uniform weights, k dataset superpositions, predictions written.

    Every copy's slice holds the same states, so a weight with c correct
    samples has c^k marked states. The gates count c on the real samples
    (padded states are never marked) as those where every prediction plane
    equals the label's row, per 2^14 weights (tiny-mnist's planes stay near
    32 MB).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_aux < 0:
        raise ValueError("n_aux must be >= 0")
    if len(d) + n_aux < 2:
        raise ValueError("need at least two states per data register")
    if (d.d_x, d.d_y) != (model.input_width, model.output_width):
        raise ValueError(f"dataset widths ({d.d_x}, {d.d_y}) differ from the "
                         f"model's ({model.input_width}, {model.output_width})")
    gl = compile_circuit(model)
    layout = build_layout(model, k, n_aux, gl.n_anc)
    if layout.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"system needs {layout.n_qubits} qubits, cap is {MAX_QUBITS}")
    states = _copy_register_states(d, n_aux)
    n_w, m = 1 << model.weight_width, len(states)
    real, counts = d.x @ (1 << np.arange(d.d_x)), np.empty(n_w, np.int64)
    for a in range(0, n_w, 1 << 14):
        weights = np.arange(a, min(a + (1 << 14), n_w))
        planes = model_planes(gl, real, weights)
        wrong = np.zeros_like(planes[0])
        for i, q in enumerate(gl.out_qubits):
            wrong |= planes[q] ^ d.y[:, i, None] * np.uint8(255)
        counts[a:a + len(weights)] = np.unpackbits(
            ~wrong, axis=1, count=len(weights), bitorder="little").sum(0)
    amp = 1.0 / math.sqrt(n_w)
    for _ in layout.copies:
        amp = (1.0 / math.sqrt(m)) * amp
    return QuantumState(layout.n_qubits, m ** k, counts ** k, amp, amp,
                        lambda: _support(gl, layout, states)), layout


def phase_oracle(state: QuantumState) -> None:
    """Negate the amplitude of every marked state."""
    state.a_marked = -state.a_marked


def reflect(state: QuantumState) -> None:
    """Reflect about |Psi_0>, uniform and real on the support: each
    amplitude a becomes 2 * mean - a, the mean exact from the counts."""
    n_m, n_u = state.n_marked, state.n_unmarked
    mean = (n_m * state.a_marked + n_u * state.a_unmarked) / (n_m + n_u)
    state.a_marked = 2 * mean - state.a_marked
    state.a_unmarked = 2 * mean - state.a_unmarked


def grover_run(model: ModelCircuit, d: Dataset, k: int, g: int,
               n_aux: int = 0, return_state: bool = False):
    """Run g rounds of `phase_oracle` then `reflect`; return the weight
    marginal, or with return_state=True (marginal, state, layout)."""
    if g < 0:
        raise ValueError("iteration count must be >= 0")
    state, layout = prepare_initial(model, d, k, n_aux)
    for _ in range(g):
        phase_oracle(state)
        reflect(state)
    marginal = state.marginal()
    return (marginal, state, layout) if return_state else marginal


def statevector_csv(state: QuantumState) -> CsvBlocks:
    """CSV dump of the amplitudes as byte blocks: basis_index,re,im (12
    significant digits, im 0); -0.0 prints apart from 0.0."""
    tails = [f"{a:.12g},0\n" for a in (state.a_marked, state.a_unmarked, 0.0)]
    return CsvBlocks("basis_index,re,im\n", tails, state._keys())
