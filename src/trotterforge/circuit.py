"""Gate IR, dense simulator, and distance measures between unitaries.

Qubit q (1-based) owns bit q-1 of the basis index, so basis state
|z_Q ... z_1> has index sum_q z_q 2^{q-1}. A circuit's gate list is temporal:
the first gate acts first, so the lowered matrix is G_N ... G_1.

A composite diagonal phase carries an exact phase table and a declared
gate-count cost; bit-level lowering of its arithmetic is out of scope.

Lowering applies the gates, one by one, to a (2^n, k) block of columns and
copies it into no permuted layout: a CNOT swaps row blocks in place, a
one-qubit gate is a batched 2x2 matmul on a reshaped view, and a diagonal gate
multiplies rows by phases. The dense unitary is the block of the identity;
tests check each gate there, bit for bit, against applying the gate's matrix
on moved axes. A diagonal circuit is lowered onto four columns of ones, which
gives the 2^n diagonal of its unitary without a 2^n x 2^n matrix.

Exact evolution is always eigh of the dense H, and a distance is always the top
singular value of the dense difference: the plain oracle. Only
``compilers.step_distances`` treats a Z-only spec apart, through
``hamiltonian_diagonal`` and ``circuit_diagonal``, and the tests check it
against this oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ValidationError, check_memory
from .hamlib import PAULI_MATRICES, HamiltonianSpec, PauliKind, pauli_table

# Upper bound on the 2^n x 2^n complex matrices alive at once when a step of a spec with an X
# or Y term is checked against exact evolution (compilers.step_distances). It runs eigh before
# it lowers any step and peaks at five: in eigh (_EIGH_COPIES), and in the distance (V, e^{-itH},
# the lowered step, their difference and the SVD's copy). The sixth is allocator slack: the RSS
# peak of a three-step sweep rose by 5.3 matrices at n=11, but by 6.2 at n=10, where a matrix is
# below glibc's mmap threshold and freed ones are reused imperfectly. A Z-only spec holds no
# dense matrix: it compares 2^n vectors.
DENSE_COPIES = 6
# Peak matrices of exact_evolutions: H, eigh's copy of it, its two workspaces (zheevd's complex
# and real ones, about 2^{2n} entries each) and V. tracemalloc sees only H and V, since LAPACK's
# buffers are malloc'd; the RSS peak rose by 5.06 matrices at n=11. Each later t holds V, V e^{-itw},
# V^dagger and the product, and the caller may still hold the previous one: five again.
_EIGH_COPIES = 5
# Peak matrices of spectral_distance: u, v, u - v and the SVD's copy of it (tracemalloc: 1, the
# difference; RSS: 1.6 more over the inputs at n=11, the copy and O(2^n) workspaces).
_DISTANCE_COPIES = 4
# Peak bytes per basis state of hamiltonian_diagonal: w, the basis indices, b & z and its bit
# counts (tracemalloc: 25-28 B at n=12-16).
_DIAGONAL_H_BYTES = 32

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


class Gate(NamedTuple):
    """A cost-1 gate: RX, RY, RZ, H or S on qubit q, or CNOT or CPHASE with control q and target q2.

    RX, RY, RZ and CPHASE carry an angle; ``Circuit`` checks every gate against ``_GATE_SHAPES``.
    """

    name: str
    q: int
    q2: int | None = None
    angle: float | None = None

    cost = 1

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.q,) if self.q2 is None else (self.q, self.q2)


# name -> (qubit count, takes an angle) of each cost-1 gate
_GATE_SHAPES = {
    "RX": (1, True),
    "RY": (1, True),
    "RZ": (1, True),
    "H": (1, False),
    "S": (1, False),
    "CNOT": (2, False),
    "CPHASE": (2, True),
}


@dataclass(frozen=True, eq=False)
class CompositeDiagonalPhase:
    """Exact diagonal unitary e^{i phases[idx]}, read-only table; bit i of idx is on qubits[i]."""

    name = "COMPOSITE"

    qubits: tuple[int, ...]
    phases: np.ndarray
    cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        table = np.asarray(self.phases, dtype=float)
        if table.shape != (1 << len(self.qubits),):
            raise ValidationError(f"phase table needs {1 << len(self.qubits)} entries, got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValidationError("phase table entries must be finite")
        if table.flags.writeable:
            table = table.copy()  # the caller may still hold the input
            table.setflags(write=False)
        object.__setattr__(self, "phases", table)
        if self.cost < 0:
            raise ValidationError("composite cost must be nonnegative")

    def __reduce__(self):
        # unpickling runs the constructor, so the table comes back read-only
        return (CompositeDiagonalPhase, (self.qubits, self.phases, self.cost))


@dataclass(frozen=True, eq=False)
class Circuit:
    qubit_count: int
    gates: tuple[Gate | CompositeDiagonalPhase, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.qubit_count < 1:
            raise ValidationError("circuit needs at least one qubit")
        for g in self.gates:
            shape = _GATE_SHAPES.get(g.name)
            if shape is None:
                if g.name != "COMPOSITE" or not hasattr(g, "phases"):  # a Gate may not pose as a composite
                    raise ValidationError(f"unknown gate {g.name!r}")
                qs = g.qubits
            else:
                count, angled = shape
                qs = (g.q,) if g.q2 is None else (g.q, g.q2)
                if len(qs) != count:
                    raise ValidationError(f"gate {g} needs {count} qubit{'s' * (count > 1)}")
                if (g.angle is not None) != angled:
                    raise ValidationError(f"gate {g} {'needs an' if angled else 'takes no'} angle")
                if angled and not math.isfinite(g.angle):
                    raise ValidationError(f"{'controlled phase' if count == 2 else 'rotation'} angle must be finite")
            if len(set(qs)) != len(qs):
                raise ValidationError(f"gate {g} repeats a qubit")
            for q in qs:
                if not (1 <= q <= self.qubit_count):
                    raise ValidationError(f"gate {g} touches qubit {q} out of range")

    def cost(self) -> int:
        return sum(g.cost for g in self.gates)


def _one_qubit_matrix(g: Gate) -> np.ndarray:
    if g.name == "H":
        return _H
    if g.name == "S":
        return _S
    p = PAULI_MATRICES[PauliKind[g.name[1]]]  # RX, RY or RZ
    return math.cos(g.angle / 2.0) * np.eye(2) - 1j * math.sin(g.angle / 2.0) * p


# the gates lowered as a phase table over their qubits: a CPHASE's is [0, 0, 0, angle]
_PHASE_TABLE_GATES = ("CPHASE", "COMPOSITE")


def _swap_cnot_rows(u: np.ndarray, ctrl: int, tgt: int, spare: np.ndarray) -> None:
    """Apply CNOT in place: swap the target-0 and target-1 rows where the control bit is 1.

    ``spare``, a scratch array of u's shape and dtype, holds the rows in transit.
    """
    dim, cols = u.shape
    hi, lo = max(ctrl, tgt) - 1, min(ctrl, tgt) - 1
    # views, since u and spare are C-contiguous: axis 1 is bit hi, axis 3 is bit lo
    shape = (dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, (1 << lo) * cols)
    v = u.reshape(shape)
    if ctrl - 1 == hi:
        a, b = v[:, 1, :, 0], v[:, 1, :, 1]
    else:
        a, b = v[:, 0, :, 1], v[:, 1, :, 1]
    held = spare.reshape(shape)[:, 1, :, 1]
    held[...] = a
    a[...] = b
    b[...] = held


def _index_dtype(qubits: Sequence[int]) -> np.dtype:
    """The smallest unsigned type that holds a phase-table index over ``qubits``."""
    return np.min_scalar_type((1 << len(qubits)) - 1)


def _diagonal_index(qubits: Sequence[int], nq: int) -> np.ndarray:
    """Phase-table index of every basis state: bit i of entry b is bit qubits[i] - 1 of b."""
    x = np.arange(1 << nq)
    sub = np.zeros(1 << nq, dtype=np.int64)
    for i, q in enumerate(qubits):
        sub |= ((x >> (q - 1)) & 1) << i
    return sub.astype(_index_dtype(qubits))


def _apply_diagonal(u: np.ndarray, phases: np.ndarray, sub: np.ndarray) -> None:
    """Multiply row b of u by e^{i phases[sub[b]]}, in place."""
    np.multiply(np.exp(1j * phases[sub])[:, None], u, out=u)


def _lowering_bytes(c: Circuit, cols: int) -> int:
    """Peak bytes of lowering c onto a (2^n, cols) block: the block, the spare a gate writes, and the
    phase-table indices, one per qubit tuple of a diagonal gate."""
    tuples = {g.qubits for g in c.gates if g.name in _PHASE_TABLE_GATES}
    index_bytes = sum(_index_dtype(qs).itemsize for qs in tuples)
    return (2 * 16 * cols + index_bytes) << c.qubit_count


def apply_circuit(c: Circuit, block: np.ndarray) -> np.ndarray:
    """G_N ... G_1 @ block for a C-contiguous (2^n, k) complex block, which it overwrites as workspace.

    Every gate acts on the row axis only, so each column is lowered alone and k may be anything.
    """
    dim = 1 << c.qubit_count
    if block.ndim != 2 or block.shape[0] != dim or block.dtype != complex or not block.flags.c_contiguous:
        raise ValidationError(f"need a C-contiguous complex ({dim}, k) block, got {block.dtype} {block.shape}")
    cols = block.shape[1]
    subs: dict[tuple[int, ...], np.ndarray] = {}  # one phase-table index per qubit tuple
    u, spare = block, np.empty_like(block)  # a one-qubit gate writes the spare, then the two swap
    for g in c.gates:
        if g.name == "CNOT":
            _swap_cnot_rows(u, g.q, g.q2, spare)
        elif g.name in _PHASE_TABLE_GATES:
            qubits = g.qubits
            if qubits not in subs:
                subs[qubits] = _diagonal_index(qubits, c.qubit_count)
            phases = g.phases if g.name == "COMPOSITE" else np.array([0.0, 0.0, 0.0, g.angle])
            _apply_diagonal(u, phases, subs[qubits])
        else:
            # rows split as (bits above the qubit, its bit, bits below it x columns)
            shape = (dim >> g.q, 2, (1 << (g.q - 1)) * cols)
            np.matmul(_one_qubit_matrix(g), u.reshape(shape), out=spare.reshape(shape))
            u, spare = spare, u
    return u


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Lower to the dense product G_N ... G_1."""
    dim = 1 << c.qubit_count
    what = f"lowering a {c.qubit_count}-qubit circuit (2 dense 2^{c.qubit_count} x 2^{c.qubit_count} matrices)"
    check_memory(_lowering_bytes(c, dim), what)
    return apply_circuit(c, np.eye(dim, dtype=complex))


def circuit_diagonal(c: Circuit) -> np.ndarray:
    """The 2^n diagonal of a diagonal circuit's unitary, bit-equal to ``circuit_to_unitary(c).diagonal()``.

    A circuit is diagonal when every gate is a CNOT or diagonal (z rotation, S, controlled phase,
    composite) and its CNOTs compose to the identity permutation. It is lowered onto a block
    of ones: row b then holds the one nonzero entry of row b of the unitary. The block has 4 columns,
    not 1, because the one-qubit matmul rounds like the dense lowering's only from 4 columns on
    (fewer columns take other BLAS kernels).
    """
    diagonal = ("CNOT", "RZ", "S", *_PHASE_TABLE_GATES)  # a CNOT, and every gate whose matrix is diagonal
    bad = next((g for g in c.gates if g.name not in diagonal), None)
    if bad is not None:
        raise ValidationError(f"circuit is not diagonal: {bad} is not a CNOT or a diagonal gate")
    # bits[q] is the GF(2) mask of input bits that output bit q holds after the CNOTs
    bits = [1 << q for q in range(c.qubit_count)]
    for g in c.gates:
        if g.name == "CNOT":
            bits[g.q2 - 1] ^= bits[g.q - 1]
    if any(mask != 1 << q for q, mask in enumerate(bits)):
        raise ValidationError("circuit is not diagonal: its CNOTs do not compose to the identity")
    dim = 1 << c.qubit_count
    cols = min(4, dim)
    what = f"lowering a {c.qubit_count}-qubit diagonal circuit (2^{c.qubit_count} x {cols} blocks)"
    check_memory(_lowering_bytes(c, cols), what)
    return apply_circuit(c, np.ones((dim, cols), dtype=complex))[:, 0].copy()


def dense_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hermitian matrix of the full 2-local spec, one scatter per Pauli term."""
    dim = 1 << spec.n
    check_memory(16 * dim * dim, f"a dense {spec.n}-qubit Hamiltonian (2^{spec.n} x 2^{spec.n})")
    h = np.zeros((dim, dim), dtype=complex)
    table = pauli_table(spec)
    b = np.arange(dim)
    for x, z, c in zip(table.x.tolist(), table.z.tolist(), table.coeff.tolist()):
        # P|b> = i^{|x & z|} (-1)^{|b & z|} |b ^ x>: one entry per column
        value = c * _I_POWERS[(x & z).bit_count() % 4]
        h[b ^ x, b] += np.where(np.bitwise_count(b & z) & 1, -value, value)
    if spec.identity != 0.0:
        h.ravel()[:: dim + 1] += spec.identity  # the diagonal of h, in place
    return h


def is_z_only(spec: HamiltonianSpec) -> bool:
    """True when every nonzero term is a Z string (all Pauli-table x masks are 0), so H is diagonal."""
    return all(k == PauliKind.Z for kinds, coeffs in spec.term_groups() if np.any(coeffs) for k in kinds)


def hamiltonian_diagonal(spec: HamiltonianSpec) -> np.ndarray:
    """w = diag(H) of a Z-only spec, bit-equal to ``dense_hamiltonian(spec).diagonal().real``.

    The terms are added in Pauli-table order and the identity last, as ``dense_hamiltonian`` adds them.
    """
    if not is_z_only(spec):
        raise ValidationError("the Hamiltonian is not diagonal: a term has an X or Y factor")
    dim = 1 << spec.n
    check_memory(_DIAGONAL_H_BYTES << spec.n, f"the diagonal of a {spec.n}-qubit Hamiltonian (2^{spec.n} entries)")
    table = pauli_table(spec)
    w = np.zeros(dim)
    b = np.arange(dim)
    for z, c in zip(table.z.tolist(), table.coeff.tolist()):
        w += np.where(np.bitwise_count(b & z) & 1, -c, c)  # Z^z|b> = (-1)^{|b & z|} |b>
    if spec.identity != 0.0:
        w += spec.identity
    return w


def check_dense_capacity(n: int) -> None:
    """Raise CapacityError if an n-qubit step checked against exact evolution exceeds physical memory."""
    dim = 1 << n
    what = f"checking a {n}-qubit step against exact evolution ({DENSE_COPIES} dense 2^{n} x 2^{n} matrices)"
    check_memory(DENSE_COPIES * 16 * dim * dim, what)


def exact_evolution(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """e^{-itH} by Hermitian eigendecomposition of the dense H."""
    return next(exact_evolutions(spec, (t,)))


def exact_evolutions(spec: HamiltonianSpec, ts: Iterable[float]) -> Iterator[np.ndarray]:
    """e^{-itH} for each t in ts, from one eigendecomposition made at the first request."""
    n, dim = spec.n, 1 << spec.n
    what = f"exact evolution of a {n}-qubit Hamiltonian ({_EIGH_COPIES} dense 2^{n} x 2^{n} matrices)"
    check_memory(_EIGH_COPIES * 16 * dim * dim, what)  # before H, which dense_hamiltonian sizes alone
    w, v = np.linalg.eigh(dense_hamiltonian(spec))  # H is released when eigh returns
    for t in ts:
        yield (v * np.exp(-1j * t * w)) @ v.conj().T


def _spectral_norm(d: np.ndarray) -> float:
    """Largest singular value of d: the first of its SVD's values, which LAPACK returns in descending order."""
    return float(np.linalg.svd(d, compute_uv=False)[0])


def spectral_distance(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    what = f"a spectral distance of {u.shape} matrices ({_DISTANCE_COPIES} copies)"
    check_memory(_DISTANCE_COPIES * 16 * u.size, what)
    return _spectral_norm(u - v)


def hamming_projector_mask(n: int, eta: int) -> np.ndarray:
    if not (0 <= eta <= n):
        raise DomainError(f"Hamming weight must be in [0, {n}], got {eta}")
    return np.bitwise_count(np.arange(1 << n)) == eta


def subspace_distance(u: np.ndarray, v: np.ndarray, eta: int) -> float:
    """Largest singular value of the difference compressed to Hamming weight eta."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValidationError(f"shape mismatch {u.shape} vs {v.shape}")
    n = (u.shape[0] - 1).bit_length()
    m = hamming_projector_mask(n, eta)
    k = int(np.count_nonzero(m))  # at least 1: C(n, eta) states
    # the two sectors, their difference and the SVD's copy of it
    check_memory(_DISTANCE_COPIES * 16 * k * k, f"a weight-{eta} sector distance ({_DISTANCE_COPIES} {k} x {k} copies)")
    return _spectral_norm(u[np.ix_(m, m)] - v[np.ix_(m, m)])


# one-qubit gate names, in temporal order, that take axis p to Z (pre) and back (post)
_BASIS_CHANGE_PRE = {
    PauliKind.X: ("H",),
    PauliKind.Y: ("S", "S", "S", "H"),
    PauliKind.Z: (),
}
_BASIS_CHANGE_POST = {
    PauliKind.X: ("H",),
    PauliKind.Y: ("H", "S"),
    PauliKind.Z: (),
}


def basis_change(p: PauliKind, q: int) -> tuple[list[Gate], list[Gate]]:
    """(pre, post) gate lists conjugating axis p on qubit q to the Z axis."""
    if p == PauliKind.I:
        raise ValidationError("identity axis has no basis change")
    return [Gate(name, q) for name in _BASIS_CHANGE_PRE[p]], [Gate(name, q) for name in _BASIS_CHANGE_POST[p]]


def pauli_string_exponential(
    string: Sequence[tuple[int, PauliKind]], theta: float, qubit_count: int | None = None
) -> Circuit:
    """CNOT-ladder circuit lowering to exp(-i theta P) exactly."""
    if not string:
        raise ValidationError("empty Pauli string")
    qubits = [q for q, _ in string]
    if len(set(qubits)) != len(qubits):
        raise ValidationError("Pauli string repeats a qubit")
    nq = qubit_count if qubit_count is not None else max(qubits)
    if all(p == PauliKind.I for _, p in string):
        if abs(math.remainder(theta, 2.0 * math.pi)) > 1e-15:
            raise ValidationError("identity string with nonzero angle has no circuit")
        return Circuit(nq, ())
    return Circuit(nq, tuple(_exponential_gates(string, theta)))


def _exponential_gates(string: Iterable[tuple[int, PauliKind]], theta: float) -> list[Gate]:
    """The gates of exp(-i theta P), unchecked: a string of distinct qubits with an X, Y or Z factor.

    The one emitter of Pauli exponentials: ``pauli_string_exponential`` and the compilers call it."""
    active = sorted((q, p) for q, p in string if p != PauliKind.I)
    *ladder, top = [q for q, _ in active]  # a CNOT ladder onto the highest qubit
    gates = [Gate(name, q) for q, p in active for name in _BASIS_CHANGE_PRE[p]]
    gates += [Gate("CNOT", q, top) for q in ladder]
    gates.append(Gate("RZ", top, None, 2.0 * theta))
    gates += [Gate("CNOT", q, top) for q in reversed(ladder)]
    gates += [Gate(name, q) for q, p in reversed(active) for name in _BASIS_CHANGE_POST[p]]
    return gates


def circuit_text(c: Circuit) -> str:
    """Line-per-gate export: NAME q[,q2][,angle]; composites with cost and qubits."""
    lines = []
    for g in c.gates:
        if g.name == "COMPOSITE":
            qs = ",".join(str(q) for q in g.qubits)
            lines.append(f"COMPOSITE diagonal-phase cost={g.cost} qubits={qs}")
        else:
            q2 = "" if g.q2 is None else f",{g.q2}"
            angle = "" if g.angle is None else f",{g.angle!r}"
            lines.append(f"{g.name} {g.q}{q2}{angle}")
    return "\n".join(lines) + ("\n" if lines else "")
