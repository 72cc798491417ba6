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
an int64 basis index and a complex128 amplitude each (at most 2^26 of them,
on at most 62 qubits).

Qubit convention: qubit q is bit q of the basis index (LSB first). The global
layout puts the weight register at the lowest qubits, so the weight marginal
is one `bincount` over the low index bits. Then come the k data copies, each
holding input bits, label bits, and (only when auxiliary padding is present)
one realness flag; then one prediction block per copy; then a shared ancilla
pool for the compiled model. Auxiliary padding occupies otherwise-unused
basis states of the data registers with the flag at 0, so padded states can
never satisfy the oracle. When there are more padded samples than the input
and label bits have basis states, padding qubits above the flag hold the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boolcirc import ModelCircuit, RGate, compile_circuit
from .datasets import Dataset

MAX_QUBITS = 62  # basis indices and masks stay below the int64 sign bit
MAX_SUPPORT = 1 << 26


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
    carries amplitude amps[i] (complex128); every other amplitude is zero."""

    def __init__(self, n_qubits: int, idx, amps):
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count must lie in [1, {MAX_QUBITS}]")
        self.n_qubits = n_qubits
        self.idx = np.asarray(idx, dtype=np.int64)
        self.amps = np.asarray(amps, dtype=np.complex128)
        if self.idx.shape != self.amps.shape or self.idx.ndim != 1:
            raise ValueError("index and amplitude arrays differ in length")

    def dense(self) -> np.ndarray:
        """The full 2**n_qubits amplitude vector (for small states)."""
        out = np.zeros(1 << self.n_qubits, dtype=np.complex128)
        out[self.idx] = self.amps
        return out

    def norm(self) -> float:
        return float(np.sqrt((np.abs(self.amps) ** 2).sum()))

    def apply_gates(self, gates) -> None:
        """Flip each gate's target on basis states where all its controls
        are 1. The amplitudes stay where they are; their indices move."""
        for g in gates:
            m = _bit_mask(g.controls)
            self.idx ^= ((self.idx & m) == m) << g.target

    def apply_phase_flip(self, qubits) -> None:
        """Multiply by -1 every basis state with all `qubits` at 1."""
        m = _bit_mask(qubits)
        self.amps[(self.idx & m) == m] *= -1.0

    def marginal(self, qubits) -> np.ndarray:
        """Probability distribution over a register (its bit 0 first)."""
        sub = np.zeros(len(self.idx), dtype=np.int64)
        for pos, q in enumerate(qubits):
            sub |= ((self.idx >> q) & 1) << pos
        return np.bincount(sub, weights=np.abs(self.amps) ** 2,
                           minlength=1 << len(qubits))

    def measure_register(self, qubits, rng: np.random.Generator) -> int:
        """One Born-rule measurement outcome for the given register."""
        p = self.marginal(qubits)
        p = p / p.sum()
        return int(rng.choice(len(p), p=p))


def build_layout(model: ModelCircuit, k: int, n_aux: int,
                 n_anc: int) -> SystemLayout:
    has_flag = n_aux > 0
    data_width = model.input_width + model.output_width
    n_pad = max(0, (n_aux - 1).bit_length() - data_width) if has_flag else 0
    q = model.weight_width
    weight = tuple(range(q))
    copies = []
    for _ in range(k):
        x = tuple(range(q, q + model.input_width)); q += model.input_width
        y = tuple(range(q, q + model.output_width)); q += model.output_width
        flag = None
        if has_flag:
            flag = q; q += 1
        pad = tuple(range(q, q + n_pad)); q += n_pad
        copies.append([x, y, flag, pad])
    full = []
    for regs in copies:
        out = tuple(range(q, q + model.output_width)); q += model.output_width
        full.append(CopyRegisters(regs[0], regs[1], regs[2], out, regs[3]))
    anc = tuple(range(q, q + n_anc)); q += n_anc
    return SystemLayout(weight, tuple(full), anc, q)


def _copy_register_vector(d: Dataset, n_aux: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero amplitudes of one data copy, by ascending basis index: real
    samples |x, y, flag=1> plus n_aux distinct padded basis states
    |p, flag=0>, all at equal weight. Padded index p fills the x, y bits
    first and carries its higher bits on the padding qubits above the flag."""
    data_width = d.d_x + d.d_y
    flag_bit = 1 << data_width if n_aux > 0 else 0
    real = np.hstack([d.x, d.y]) @ (1 << np.arange(data_width)) | flag_bit
    p = np.arange(n_aux, dtype=np.int64)
    padded = (p & (flag_bit - 1)) | ((p >> data_width) << (data_width + 1))
    idx = np.sort(np.concatenate([real, padded]))
    if np.any(idx[1:] == idx[:-1]):
        # two equal samples would share one basis state and break the norm
        raise ValueError("dataset repeats a sample")
    return idx, np.full(len(idx), 1.0 / math.sqrt(len(idx)),
                        dtype=np.complex128)


def prepare_initial(model: ModelCircuit, d: Dataset, k: int, n_aux: int = 0
                    ) -> tuple[QuantumState, SystemLayout]:
    """|Psi_0>: uniform weights, k dataset superpositions, predictions written.

    Builds the product state on its support, one copy at a time: the copy's
    nonzero basis states are broadcast against the registers below it (so
    the weight register varies fastest, as with Kronecker products), then
    the compiled model runs on that copy with weight, input, output, and
    ancilla qubits remapped into place. The model leaves later copies'
    registers alone, so running it before they exist saves work and changes
    nothing.
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
    copy_idx, copy_amps = _copy_register_vector(d, n_aux)
    support = (1 << model.weight_width) * len(copy_idx) ** k
    if support > MAX_SUPPORT:
        raise ValueError(f"system has {support} basis states in its support, "
                         f"cap is {MAX_SUPPORT}")
    n_w = 1 << model.weight_width
    state = QuantumState(layout.n_qubits, np.arange(n_w),
                         np.full(n_w, 1.0 / math.sqrt(n_w)))
    for copy in layout.copies:
        state.idx = ((copy_idx[:, None] << copy.x[0]) | state.idx).ravel()
        state.amps = (copy_amps[:, None] * state.amps).ravel()
        # gate-list qubits are weights, inputs, outputs, then ancillas
        state.apply_gates(gl.remap(layout.weight + copy.x + copy.out
                                   + layout.anc).gates)
    return state, layout


def _comparator_gates(copy: CopyRegisters) -> list[RGate]:
    """In-place equality bits: out_b <- 1 iff out_b == y_b (self-inverse
    sequence: CNOT then X per bit)."""
    gates = []
    for yq, oq in zip(copy.y, copy.out):
        gates.append(RGate((yq,), oq))
        gates.append(RGate((), oq))
    return gates


def apply_oracle(state: QuantumState, layout: SystemLayout) -> None:
    """Phase-flip basis states where every copy is a real sample whose
    prediction equals its label. Padded states (flag 0) are never flipped."""
    controls = []
    forward = []
    for copy in layout.copies:
        forward.extend(_comparator_gates(copy))
        controls.extend(copy.out)
        if copy.flag is not None:
            controls.append(copy.flag)
    state.apply_gates(forward)
    state.apply_phase_flip(controls)
    state.apply_gates(reversed(forward))


def apply_diffusion(state: QuantumState, psi0: np.ndarray) -> None:
    """Reflect about the prepared state: psi <- 2 <psi0|psi> psi0 - psi.
    Each oracle ends with its gates reversed, so state.idx is back in its
    prepared order and psi0 lines up with state.amps."""
    overlap = np.vdot(psi0, state.amps)
    state.amps = 2.0 * overlap * psi0 - state.amps


def grover_run(model: ModelCircuit, d: Dataset, k: int, g: int,
               n_aux: int = 0, return_state: bool = False):
    """Run g amplification rounds and return the weight-register marginal.

    Each round is the phase oracle followed by reflection about the prepared
    state. With return_state=True the (marginal, state, layout) triple comes
    back for inspection or measurement.
    """
    if g < 0:
        raise ValueError("iteration count must be >= 0")
    state, layout = prepare_initial(model, d, k, n_aux)
    psi0 = state.amps.copy()
    for _ in range(g):
        apply_oracle(state, layout)
        apply_diffusion(state, psi0)
    marginal = state.marginal(layout.weight)
    if return_state:
        return marginal, state, layout
    return marginal


def statevector_csv(state: QuantumState) -> str:
    """CSV dump of the amplitudes: basis_index,re,im (12 significant digits)."""
    lines = ["basis_index,re,im"]
    for i, a in enumerate(state.dense()):
        lines.append(f"{i},{a.real:.12g},{a.imag:.12g}")
    return "\n".join(lines) + "\n"
