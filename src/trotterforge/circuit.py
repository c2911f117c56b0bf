"""Gate IR, dense simulator, and distance measures between unitaries.

Qubit q (1-based) owns bit q-1 of the basis index, so basis state
|z_Q ... z_1> has index sum_q z_q 2^{q-1}. A circuit's gate list is temporal:
the first gate acts first, so the lowered matrix is G_N ... G_1.

Composite gates carry an exact semantic action plus a declared gate-count
cost; bit-level lowering of their arithmetic is out of scope by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .hamlib import PAULI_MATRICES, HamiltonianSpec, PauliKind

CAPACITY_QUBITS = 14

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # index = z_ctrl + 2 z_tgt


@dataclass(frozen=True)
class PauliRotation:
    axis: str
    qubit: int
    angle: float

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y", "z"):
            raise ValidationError(f"rotation axis must be x, y, or z, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValidationError("rotation angle must be finite")


@dataclass(frozen=True)
class Hadamard:
    qubit: int


@dataclass(frozen=True)
class PhaseS:
    qubit: int


@dataclass(frozen=True)
class CNOT:
    ctrl: int
    tgt: int


@dataclass(frozen=True)
class CZ:
    q1: int
    q2: int


@dataclass(frozen=True)
class ControlledPhase:
    ctrl: int
    tgt: int
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValidationError("controlled phase angle must be finite")


@dataclass(frozen=True, eq=False)
class CompositeDiagonalPhase:
    """Exact diagonal unitary e^{i phase(bits)} on the listed qubits."""

    qubits: tuple[int, ...]
    phase_function: Callable[[tuple[int, ...]], float]
    cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.cost < 0:
            raise ValidationError("composite cost must be nonnegative")


@dataclass(frozen=True, eq=False)
class CompositeStatePrep:
    """Unitary sending |0...0> of the listed qubits to the target amplitudes."""

    qubits: tuple[int, ...]
    amplitudes: tuple[complex, ...]
    cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 1 << len(self.qubits):
            raise ValidationError("amplitude count must be 2^(qubit count)")
        if abs(sum(abs(a) ** 2 for a in amps) - 1.0) > 1e-10:
            raise ValidationError("target amplitudes must be normalized")
        if self.cost < 0:
            raise ValidationError("composite cost must be nonnegative")
        object.__setattr__(self, "amplitudes", amps)


Gate = (
    PauliRotation
    | Hadamard
    | PhaseS
    | CNOT
    | CZ
    | ControlledPhase
    | CompositeDiagonalPhase
    | CompositeStatePrep
)


def gate_qubits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, (PauliRotation, Hadamard, PhaseS)):
        return (g.qubit,)
    if isinstance(g, CNOT):
        return (g.ctrl, g.tgt)
    if isinstance(g, CZ):
        return (g.q1, g.q2)
    if isinstance(g, ControlledPhase):
        return (g.ctrl, g.tgt)
    return g.qubits


def gate_cost(g: Gate) -> int:
    if isinstance(g, (CompositeDiagonalPhase, CompositeStatePrep)):
        return g.cost
    return 1


@dataclass(frozen=True, eq=False)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...]
    system_qubits: int | None = None  # qubits 1..system_qubits are system, rest ancilla

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.qubit_count < 1:
            raise ValidationError("circuit needs at least one qubit")
        for g in self.gates:
            qs = gate_qubits(g)
            if len(set(qs)) != len(qs):
                raise ValidationError(f"gate {g} repeats a qubit")
            for q in qs:
                if not (1 <= q <= self.qubit_count):
                    raise ValidationError(f"gate {g} touches qubit {q} out of range")

    def cost(self) -> int:
        return sum(gate_cost(g) for g in self.gates)


def _householder_prep(amplitudes: Sequence[complex]) -> np.ndarray:
    """Deterministic unitary completion with the target vector as column 0."""
    v = np.asarray(amplitudes, dtype=complex)
    dim = v.size
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    if abs(v[0]) < 1e-300:
        phase = 1.0 + 0.0j
    else:
        phase = v[0] / abs(v[0])
    w = v - phase * e0
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(dim, dtype=complex) * phase
    w = w / nw
    refl = np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj())
    # refl maps phase*e0 to v; fold the phase into column scaling
    return refl * phase


def _gate_matrix(g: Gate) -> np.ndarray | None:
    """Dense matrix over the gate's own qubits; None for diagonal fast-path gates."""
    if isinstance(g, PauliRotation):
        p = PAULI_MATRICES[PauliKind(g.axis)]
        return math.cos(g.angle / 2.0) * np.eye(2) - 1j * math.sin(g.angle / 2.0) * p
    if isinstance(g, Hadamard):
        return _H
    if isinstance(g, PhaseS):
        return _S
    if isinstance(g, CNOT):
        return _CNOT
    if isinstance(g, CompositeStatePrep):
        return _householder_prep(g.amplitudes)
    return None


def _diagonal_phases(g: Gate) -> np.ndarray | None:
    """Per-subindex phase angles for diagonal gates, index = sum bits 2^i."""
    if isinstance(g, CZ):
        return np.array([0.0, 0.0, 0.0, math.pi])
    if isinstance(g, ControlledPhase):
        return np.array([0.0, 0.0, 0.0, g.angle])
    if isinstance(g, CompositeDiagonalPhase):
        k = len(g.qubits)
        out = np.empty(1 << k)
        for idx in range(1 << k):
            bits = tuple((idx >> i) & 1 for i in range(k))
            out[idx] = float(g.phase_function(bits))
        return out
    return None


def _apply_dense(u: np.ndarray, op: np.ndarray, qubits: Sequence[int], nq: int) -> np.ndarray:
    k = len(qubits)
    dim = u.shape[0]
    t = u.reshape((2,) * nq + (dim,))
    # op row index has qubits[0] as its least significant bit
    axes = [nq - q for q in reversed(qubits)]
    t = np.moveaxis(t, axes, range(k))
    shape = t.shape
    t = op @ t.reshape(1 << k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), axes)
    return np.ascontiguousarray(t.reshape(dim, dim))


def _apply_diagonal(u: np.ndarray, phases: np.ndarray, qubits: Sequence[int], nq: int) -> np.ndarray:
    x = np.arange(1 << nq)
    sub = np.zeros(1 << nq, dtype=np.int64)
    for i, q in enumerate(qubits):
        sub |= ((x >> (q - 1)) & 1) << i
    return np.exp(1j * phases[sub])[:, None] * u


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Lower to the dense product G_N ... G_1."""
    if c.qubit_count > CAPACITY_QUBITS:
        raise CapacityError(f"{c.qubit_count} qubits exceed the dense cap {CAPACITY_QUBITS}")
    u = np.eye(1 << c.qubit_count, dtype=complex)
    for g in c.gates:
        phases = _diagonal_phases(g)
        if phases is not None:
            u = _apply_diagonal(u, phases, gate_qubits(g), c.qubit_count)
        else:
            u = _apply_dense(u, _gate_matrix(g), gate_qubits(g), c.qubit_count)
    return u


def inverse_circuit(c: Circuit) -> Circuit:
    """Formal inverse within the gate set (state preparations have none)."""
    inv: list[Gate] = []
    for g in reversed(c.gates):
        if isinstance(g, PauliRotation):
            inv.append(PauliRotation(g.axis, g.qubit, -g.angle))
        elif isinstance(g, (Hadamard, CNOT, CZ)):
            inv.append(g)
        elif isinstance(g, PhaseS):
            inv.extend([PhaseS(g.qubit)] * 3)
        elif isinstance(g, ControlledPhase):
            inv.append(ControlledPhase(g.ctrl, g.tgt, -g.angle))
        elif isinstance(g, CompositeDiagonalPhase):
            fn = g.phase_function
            inv.append(CompositeDiagonalPhase(g.qubits, lambda bits, fn=fn: -fn(bits), g.cost))
        else:
            raise ValidationError("state preparations have no formal inverse here")
    return Circuit(c.qubit_count, tuple(inv), c.system_qubits)


def pauli_term_matrix(string: Sequence[tuple[int, PauliKind]], n: int) -> np.ndarray:
    """Dense matrix of a Pauli string on n qubits; every entry is 0, +-1 or +-i."""
    axes = dict(string)
    out = PAULI_MATRICES[axes.get(n, PauliKind.I)]
    for q in range(n - 1, 0, -1):
        out = np.kron(out, PAULI_MATRICES[axes.get(q, PauliKind.I)])
    return out


def dense_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hermitian matrix of the full 2-local spec."""
    if spec.n > CAPACITY_QUBITS:
        raise CapacityError(f"n={spec.n} exceeds the dense cap {CAPACITY_QUBITS}")
    dim = 1 << spec.n
    h = np.zeros((dim, dim), dtype=complex)
    for (s1, s2), mat in spec.two_local.items():
        for j, k, v in mat.nonzero_pairs():
            h += v * pauli_term_matrix([(j, s1), (k, s2)], spec.n)
    for s, vec in spec.on_site.items():
        for j in range(1, spec.n + 1):
            if vec[j - 1] != 0.0:
                h += vec[j - 1] * pauli_term_matrix([(j, s)], spec.n)
    if spec.identity != 0.0:
        h += spec.identity * np.eye(dim, dtype=complex)
    return h


def exact_evolution(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """e^{-itH} by Hermitian eigendecomposition."""
    h = dense_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def spectral_distance(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.linalg.svd(u - v, compute_uv=False)[0])


def hamming_projector_mask(n: int, eta: int) -> np.ndarray:
    if not (0 <= eta <= n):
        raise DomainError(f"Hamming weight must be in [0, {n}], got {eta}")
    x = np.arange(1 << n)
    counts = np.zeros(1 << n, dtype=int)
    for q in range(n):
        counts += (x >> q) & 1
    return counts == eta


def subspace_distance(u: np.ndarray, v: np.ndarray, eta: int) -> float:
    """Largest singular value of the difference compressed to Hamming weight eta."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    n = (u.shape[0] - 1).bit_length()
    mask = hamming_projector_mask(n, eta)
    diff = (u - v)[np.ix_(mask, mask)]
    if diff.size == 0:
        return 0.0
    return float(np.linalg.svd(diff, compute_uv=False)[0])


_BASIS_CHANGE_PRE = {
    PauliKind.X: lambda q: [Hadamard(q)],
    PauliKind.Y: lambda q: [PhaseS(q), PhaseS(q), PhaseS(q), Hadamard(q)],
    PauliKind.Z: lambda q: [],
}
_BASIS_CHANGE_POST = {
    PauliKind.X: lambda q: [Hadamard(q)],
    PauliKind.Y: lambda q: [Hadamard(q), PhaseS(q)],
    PauliKind.Z: lambda q: [],
}


def basis_change(p: PauliKind, q: int) -> tuple[list[Gate], list[Gate]]:
    """(pre, post) gate lists conjugating axis p on qubit q to the Z axis."""
    if p == PauliKind.I:
        raise ValidationError("identity axis has no basis change")
    return _BASIS_CHANGE_PRE[p](q), _BASIS_CHANGE_POST[p](q)


def pauli_string_exponential(
    string: Sequence[tuple[int, PauliKind]], theta: float, qubit_count: int | None = None
) -> Circuit:
    """CNOT-ladder circuit lowering to exp(-i theta P) exactly."""
    if not string:
        raise ValidationError("empty Pauli string")
    qubits = [q for q, _ in string]
    if len(set(qubits)) != len(qubits):
        raise ValidationError("Pauli string repeats a qubit")
    active = sorted((q, p) for q, p in string if p != PauliKind.I)
    nq = qubit_count if qubit_count is not None else max(qubits)
    if not active:
        if abs(math.remainder(theta, 2.0 * math.pi)) > 1e-15:
            raise ValidationError("identity string with nonzero angle has no circuit")
        return Circuit(nq, ())
    gates: list[Gate] = []
    for q, p in active:
        gates.extend(_BASIS_CHANGE_PRE[p](q))
    qs = [q for q, _ in active]
    for q in qs[:-1]:
        gates.append(CNOT(q, qs[-1]))
    gates.append(PauliRotation("z", qs[-1], 2.0 * theta))
    for q in reversed(qs[:-1]):
        gates.append(CNOT(q, qs[-1]))
    for q, p in reversed(active):
        gates.extend(_BASIS_CHANGE_POST[p](q))
    return Circuit(nq, tuple(gates))


def circuit_text(c: Circuit) -> str:
    """Line-per-gate export: GATE q[,q2][,angle]; composites with cost and qubits."""
    lines = []
    for g in c.gates:
        if isinstance(g, PauliRotation):
            lines.append(f"R{g.axis.upper()} {g.qubit},{g.angle!r}")
        elif isinstance(g, Hadamard):
            lines.append(f"H {g.qubit}")
        elif isinstance(g, PhaseS):
            lines.append(f"S {g.qubit}")
        elif isinstance(g, CNOT):
            lines.append(f"CNOT {g.ctrl},{g.tgt}")
        elif isinstance(g, CZ):
            lines.append(f"CZ {g.q1},{g.q2}")
        elif isinstance(g, ControlledPhase):
            lines.append(f"CPHASE {g.ctrl},{g.tgt},{g.angle!r}")
        elif isinstance(g, CompositeDiagonalPhase):
            qs = ",".join(str(q) for q in g.qubits)
            lines.append(f"COMPOSITE diagonal-phase cost={g.cost} qubits={qs}")
        else:
            qs = ",".join(str(q) for q in g.qubits)
            lines.append(f"COMPOSITE state-prep cost={g.cost} qubits={qs}")
    return "\n".join(lines) + ("\n" if lines else "")
