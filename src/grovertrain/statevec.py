"""Statevector simulation of the amplified weight search, on its support.

The simulator runs the full quantum pipeline end to end: uniform weight
register, k parallel data registers carrying the dataset in superposition,
the compiled reversible model writing predictions per register, a phase
oracle marking the states where every copy's prediction equals its label,
and inversion-about-the-mean diffusion.
Its weight marginal is the ground truth the closed-form evolution in
`amplify` is checked against. Every gate is an X, CNOT or multi-controlled X
and only permutes basis states, so the state never leaves the
2^d_w * (N + n_aux)^k basis states of |Psi_0>. It is stored on those alone:
an int64 basis index and a float64 amplitude each (at most 2^26 of them,
on at most 62 qubits). Copy j's model gates run on copy j's
2^d_w * (N + n_aux) slice only. The oracle is one sign per basis state, found
once per run by comparing each copy's prediction and label bits in place.
|Psi_0> is uniform and real on the support, so the reflection about it is
inversion about the mean, 2 * mean(amps) - amps (Grover, quant-ph/9605043).

Qubit convention: qubit q is bit q of the basis index (LSB first). The global
layout puts the weight register at the lowest qubits, so the weight marginal
is a sum over the low index bits. Then come the k data copies, each
holding input bits, label bits, and (only when auxiliary padding is present)
one realness flag; then one prediction block per copy; then a shared ancilla
pool for the compiled model. Auxiliary padding occupies otherwise-unused
basis states of the data registers with the flag at 0, so padded states can
never satisfy the oracle. When there are more padded samples than the input
and label bits have basis states, padding qubits above the flag hold the rest.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .amplify import csv_blocks
from .boolcirc import ModelCircuit, compile_circuit
from .datasets import Dataset

MAX_QUBITS = 62  # basis indices and masks stay below the int64 sign bit
MAX_SUPPORT = 1 << 26
_MARGINAL_BLOCK = 1 << 20  # support entries the marginal reads at a time


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


def _bit_mask(qubits) -> int:
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask


class QuantumState:
    """State over n_qubits stored on its support: basis index idx[i] (int64)
    carries the real amplitude amps[i] (float64); every other amplitude is
    zero."""

    def __init__(self, n_qubits: int, idx, amps):
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count must lie in [1, {MAX_QUBITS}]")
        if np.iscomplexobj(amps):
            raise ValueError("amplitudes must be real")
        self.n_qubits = n_qubits
        self.idx = np.asarray(idx, dtype=np.int64)
        self.amps = np.asarray(amps, dtype=np.float64)
        if self.idx.shape != self.amps.shape or self.idx.ndim != 1:
            raise ValueError("index and amplitude arrays differ in length")

    def dense(self) -> np.ndarray:
        """The full 2**n_qubits amplitude vector (for small states)."""
        out = np.zeros(1 << self.n_qubits)
        out[self.idx] = self.amps
        return out

    def norm(self) -> float:
        return float(np.sqrt((self.amps ** 2).sum()))

    def apply_gates(self, gates) -> None:
        """Flip each gate's target on basis states where all its controls
        are 1. The amplitudes stay where they are; their indices move."""
        for g in gates:
            m = _bit_mask(g.controls)
            self.idx ^= ((self.idx & m) == m) << g.target

    def marginal(self, width: int) -> np.ndarray:
        """Probability distribution over the lowest `width` qubits, qubit 0
        as bit 0 (the weight register), summed in support order by blocks."""
        out, mask = np.zeros(1 << width), (1 << width) - 1
        for a in range(0, len(self.idx), _MARGINAL_BLOCK):
            amps = self.amps[a:a + _MARGINAL_BLOCK]
            np.add.at(out, self.idx[a:a + _MARGINAL_BLOCK] & mask, amps * amps)
        return out


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


def prepare_initial(model: ModelCircuit, d: Dataset, k: int, n_aux: int = 0
                    ) -> tuple[QuantumState, SystemLayout]:
    """|Psi_0>: uniform weights, k dataset superpositions, predictions written.

    Each copy's compiled model, its qubits remapped into place, runs on that
    copy's slice: the copy's basis states against every weight. The model
    leaves weights and ancillas as it found them, so the slice is
    OR-broadcast against the registers below it, weight by weight (so the
    weight register varies fastest, as with Kronecker products).
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
    copy_idx = _copy_register_states(d, n_aux)
    n_w, m = 1 << model.weight_width, len(copy_idx)
    if n_w * m ** k > MAX_SUPPORT:
        raise ValueError(f"system has {n_w * m ** k} basis states in its "
                         f"support, cap is {MAX_SUPPORT}")
    w = np.arange(n_w)
    idx, amp = w, 1.0 / math.sqrt(n_w)
    for copy in layout.copies:
        part = QuantumState(layout.n_qubits,
                            ((copy_idx[:, None] << copy.x[0]) | w).ravel(),
                            np.full(m * n_w, amp / math.sqrt(m)))
        # gate-list qubits are weights, inputs, outputs, then ancillas
        part.apply_gates(gl.remap(layout.weight + copy.x + copy.out
                                  + layout.anc).gates)
        idx = (part.idx.reshape(m, 1, n_w) | idx.reshape(-1, n_w)).ravel()
        amp = (1.0 / math.sqrt(m)) * amp
    return QuantumState(layout.n_qubits, idx, np.full(len(idx), amp)), layout


def oracle_sign(state: QuantumState, layout: SystemLayout) -> np.ndarray:
    """The phase oracle's diagonal on the support: -1.0 where every copy is
    a real sample (flag 1) whose prediction equals its label, else 1.0.
    `build_layout` puts each copy's prediction block above its label block,
    as wide, so one shift and XOR compares them. `state` is left untouched."""
    idx = state.idx
    flags = _bit_mask(c.flag for c in layout.copies if c.flag is not None)
    marked = (idx & flags) == flags
    for c in layout.copies:
        marked &= ((idx >> (c.out[0] - c.y[0]) ^ idx) & _bit_mask(c.y)) == 0
    return np.where(marked, -1.0, 1.0)


def reflect(state: QuantumState) -> None:
    """Reflect about |Psi_0>, uniform and real on the support: each
    amplitude becomes 2 * mean(amps) - amps."""
    np.subtract(2.0 * state.amps.mean(), state.amps, out=state.amps)


def grover_run(model: ModelCircuit, d: Dataset, k: int, g: int,
               n_aux: int = 0, return_state: bool = False):
    """Run g amplification rounds and return the weight-register marginal.

    Each round is the phase oracle, one multiplication by the sign found
    once, followed by the reflection about |Psi_0>. With return_state=True
    the (marginal, state, layout) triple comes back for inspection.
    """
    if g < 0:
        raise ValueError("iteration count must be >= 0")
    state, layout = prepare_initial(model, d, k, n_aux)
    sign = oracle_sign(state, layout)
    for _ in range(g):
        state.amps *= sign
        reflect(state)
    del sign  # the sign and the marginal's temporaries never meet
    marginal = state.marginal(len(layout.weight))
    if return_state:
        return marginal, state, layout
    return marginal


def statevector_csv(state: QuantumState) -> Iterator[bytes]:
    """CSV dump of the amplitudes as byte blocks: basis_index,re,im (12
    significant digits; im is 0, every amplitude being real). Each distinct
    bit pattern is formatted once, so -0.0 prints apart from 0.0."""
    bits, keys = np.unique(state.dense().view(np.uint64), return_inverse=True)
    tails = [f"{a:.12g},0\n" for a in bits.view(np.float64).tolist()]
    return csv_blocks("basis_index,re,im\n", tails, keys)
