"""Trotter-step compilers.

The three step compilers take the product-formula order p as ``formula``
(1 Lie-Trotter, 2 Strang, 4 Suzuki). ``make_product_formula`` builds its
schedule in closed form as two read-only arrays: the stage of each entry and
its fraction of the step. Four lowering strategies:

* sequential — one Pauli exponential per term, every term its own stage;
* lowrank    — far blocks become diagonal-phase composites built from
  truncated factors, near/within remainders stay sequential;
* avgcost    — every subdivision cell becomes one diagonal-phase composite
  costed by qubitization step counts;
* hamming2   — the binary-to-unary phase gadget over two index registers.

lowrank and avgcost share one stage plan: per schedule entry, the stage's
basis change and a list of ops (diagonal composites, ZZ ladders, on-site
rotations), each with its declared cost and the array slice it lowers from.
The gate count is the sum of the declared costs; the circuit is the same
plan lowered, so the two agree by construction. Count-only mode skips the
lowering. Verification-mode circuits are exact: the only approximations are
the product formula itself and low-rank truncation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blockenc import cell_prep_cost, cell_select_cost, qubitization_step_count
from .circuit import (
    CAPACITY_QUBITS,
    Circuit,
    CompositeDiagonalPhase,
    ControlledPhase,
    Gate,
    Hadamard,
    PauliRotation,
    basis_change,
    circuit_text,
    circuit_to_unitary,
    pauli_string_exponential,
)
from .decomp import bisection_decompose, cells_for_pair, lowrank_decompose
from .errors import CapacityError, DomainError, ValidationError
from .hamlib import CoeffMatrix, HamiltonianSpec, PauliKind
from .lowrank import truncated_svd

SUPPORTED_ORDERS = (1, 2, 4)


@dataclass(frozen=True, eq=False)
class ProductFormula:
    """Stage schedule of an order-p splitting, as two read-only arrays.

    Entry i runs stage ``stages[i]`` (1-based) for ``fractions[i]`` of the
    step; the fractions of each stage sum to 1.
    """

    p: int
    stage_count: int
    stages: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_ORDERS:
            raise DomainError(f"order must be one of {SUPPORTED_ORDERS}, got {self.p}")
        if self.stage_count < 1:
            raise ValidationError("need at least one stage")
        idx = np.array(self.stages, dtype=np.int64)
        frac = np.array(self.fractions, dtype=float)
        if idx.ndim != 1 or idx.shape != frac.shape:
            raise ValidationError(f"stages {idx.shape} and fractions {frac.shape} need one 1-D length")
        bad = idx[(idx < 1) | (idx > self.stage_count)]
        if bad.size:
            raise ValidationError(f"stage index {bad[0]} out of range")
        # bincount adds the weights in schedule order, as a running sum per stage would
        totals = np.bincount(idx, weights=frac, minlength=self.stage_count + 1)[1:]
        off = np.flatnonzero(np.abs(totals - 1.0) > 1e-12)
        if off.size:
            total = float(totals[off[0]])
            raise ValidationError(f"stage {off[0] + 1} fractions sum to {total}, not 1")
        idx.setflags(write=False)
        frac.setflags(write=False)
        object.__setattr__(self, "stages", idx)
        object.__setattr__(self, "fractions", frac)


def make_product_formula(p: int, stage_count: int = 2) -> ProductFormula:
    """Lie-Trotter (p=1), Strang (p=2), or the p=4 Suzuki recursion."""
    if p not in SUPPORTED_ORDERS:
        raise DomainError(f"order must be one of {SUPPORTED_ORDERS}, got {p}")
    if stage_count < 1:
        raise ValidationError("need at least one stage")
    if p == 1:
        return ProductFormula(p, stage_count, np.arange(1, stage_count + 1), np.ones(stage_count))
    # Strang: stages 1..S-1 for half a step, S for a whole one, then S-1..1 again
    stages = np.concatenate([np.arange(1, stage_count), np.arange(stage_count, 0, -1)])
    fractions = np.full(stages.size, 0.5)
    fractions[stage_count - 1] = 1.0
    if p == 4:
        # five scaled Strang segments; a segment's last stage 1 meets the next one's first
        u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
        segments = np.array([u, u, 1.0 - 4.0 * u, u, u])
        stages = np.tile(stages, segments.size)
        fractions = (segments[:, None] * fractions).ravel()
        starts = np.flatnonzero(np.diff(stages, prepend=0))
        stages, fractions = stages[starts], np.add.reduceat(fractions, starts)
    return ProductFormula(p, stage_count, stages, fractions)


@dataclass(frozen=True, eq=False)
class CompiledStep:
    """One Trotter step; lowered unitary = e^{-i global_phase} * circuit matrix."""

    method: str
    t: float
    gate_count: int
    circuit: Circuit | None
    global_phase: float

    def __post_init__(self) -> None:
        if self.circuit is not None and self.circuit.cost() != self.gate_count:
            raise ValidationError("declared gate count disagrees with the circuit")


def lowered_step_unitary(step: CompiledStep) -> np.ndarray:
    if step.circuit is None:
        raise ValidationError("count-only steps carry no circuit to lower")
    return np.exp(-1j * step.global_phase) * circuit_to_unitary(step.circuit)


def step_cost_json(step: CompiledStep) -> str:
    composites = []
    if step.circuit is not None:
        for g in step.circuit.gates:
            if isinstance(g, CompositeDiagonalPhase):
                composites.append({"kind": "diagonal-phase", "cost": g.cost})
    doc = {"method": step.method, "gates": step.gate_count, "composites": composites}
    return json.dumps(doc, indent=2, sort_keys=True)


def step_to_text(step: CompiledStep) -> str:
    if step.circuit is None:
        raise ValidationError("count-only steps carry no circuit to export")
    return circuit_text(step.circuit)


# -- sequential ---------------------------------------------------------------

_AXIS_OVERHEAD = {PauliKind.X: 2, PauliKind.Y: 6, PauliKind.Z: 0}


def sequential_term_cost(axes: Sequence[PauliKind]) -> int:
    """Gate count of one Pauli exponential: basis changes + CNOT ladder + Rz."""
    active = [p for p in axes if p != PauliKind.I]
    if not active:
        return 0
    return sum(_AXIS_OVERHEAD[p] for p in active) + 2 * (len(active) - 1) + 1


def sequential_terms(spec: HamiltonianSpec) -> list[tuple[list[tuple[int, PauliKind]], float]]:
    """Every nonzero term in (sigma, sigma', j, k) order, on-site terms last."""
    terms: list[tuple[list[tuple[int, PauliKind]], float]] = []
    for s1, s2 in spec.groups():
        for j, k, v in spec.two_local[(s1, s2)].nonzero_pairs():
            terms.append(([(j, s1), (k, s2)], v))
    for s in sorted(spec.on_site, key=lambda s: s.value):
        vec = spec.on_site[s]
        for j in range(1, spec.n + 1):
            if vec[j - 1] != 0.0:
                terms.append(([(j, s)], float(vec[j - 1])))
    return terms


def compile_sequential_step(
    spec: HamiltonianSpec,
    t: float,
    formula: int,
    *,
    count_only: bool = False,
) -> CompiledStep:
    """One Pauli exponential per nonzero term; each term is its own stage."""
    # Stages run over the terms in sequential_terms order: each group's
    # nonzero pairs, then each on-site kind's nonzero sites.
    runs = [
        (int(np.count_nonzero(spec.two_local[pair].data)), sequential_term_cost(pair))
        for pair in spec.groups()
    ] + [
        (int(np.count_nonzero(spec.on_site[s])), sequential_term_cost([s]))
        for s in sorted(spec.on_site, key=lambda s: s.value)
    ]
    term_count = sum(size for size, _ in runs)
    fr = make_product_formula(formula, max(term_count, 1))
    phase = t * spec.identity
    if term_count == 0:
        return CompiledStep("sequential", t, 0, None if count_only else Circuit(spec.n, ()), phase)
    if count_only:
        # occurrences[i] counts the schedule entries of stage i; stages are 1-based
        occurrences = np.bincount(fr.stages, minlength=term_count + 1)
        count, start = 0, 1
        for size, cost in runs:
            count += int(occurrences[start : start + size].sum()) * cost
            start += size
        return CompiledStep("sequential", t, count, None, phase)
    if spec.n > CAPACITY_QUBITS:
        raise CapacityError(f"verification mode caps n at {CAPACITY_QUBITS}, got {spec.n}")
    terms = sequential_terms(spec)
    gates: list[Gate] = []
    for idx, frac in zip(fr.stages.tolist(), fr.fractions.tolist()):
        string, coeff = terms[idx - 1]
        gates.extend(pauli_string_exponential(string, frac * t * coeff, spec.n).gates)
    circuit = Circuit(spec.n, tuple(gates), system_qubits=spec.n)
    return CompiledStep("sequential", t, circuit.cost(), circuit, phase)


# -- the stage plan shared by the decomposition methods -----------------------


def group_stages(spec: HamiltonianSpec) -> list[tuple[str, tuple[PauliKind, PauliKind] | None]]:
    """Coarse stages: one per (sigma, sigma') matrix, plus one on-site stage."""
    stages: list[tuple[str, tuple[PauliKind, PauliKind] | None]] = [
        ("two_local", pair) for pair in spec.groups()
    ]
    if any(np.any(vec != 0.0) for vec in spec.on_site.values()):
        stages.append(("onsite", None))
    return stages


def _stage_axis_map(mat: CoeffMatrix, s1: PauliKind, s2: PauliKind) -> dict[int, PauliKind]:
    """Basis of every site the stage touches: s1 on the j side, s2 on the k side."""
    as_j = np.flatnonzero(mat.data.any(axis=1)) + 1
    as_k = np.flatnonzero(mat.data.any(axis=0)) + 1
    if s1 != s2:
        both = np.intersect1d(as_j, as_k)
        if both.size:
            raise ValidationError(
                f"site {both[0]} needs two different basis changes within one stage"
            )
    axis = {int(q): s2 for q in as_k}
    axis.update((int(q), s1) for q in as_j)
    return axis


def _wrap_cost(axis: dict[int, PauliKind]) -> int:
    return sum(_AXIS_OVERHEAD[p] for p in axis.values())


def phase_register_width(n: int, t: float, eps: float) -> int:
    """Declared fixed-point width of phase registers: ceil(log2(nt/eps)) + 4."""
    if eps <= 0:
        raise DomainError(f"accuracy must be positive, got {eps}")
    raw = n * abs(t) / eps
    return max(1, math.ceil(math.log2(raw))) + 4 if raw > 1.0 else 5


def _zsigns(bits: Sequence[int]) -> np.ndarray:
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


@dataclass(eq=False)
class _StageOp:
    """One piece of a stage: its declared gate cost and the data it lowers from.

    * ``far``: one diagonal composite e^{-i theta z_u.A z_v} on the sites
      ``rows`` + ``cols``, with A the far block's truncated factor ``data``;
    * ``cell``: the same, with A the subdivision cell's coefficient slice;
    * ``ladder``: one ZZ CNOT ladder per nonzero of the slice ``data``, whose
      entry [r, c] couples sites rows[r] and cols[c];
    * ``onsite``: one rotation per nonzero on-site coefficient.
    """

    kind: str
    cost: int
    rows: range = range(0)
    cols: range = range(0)
    data: object = None


def _op_gates(op: _StageOp, theta: float, spec: HamiltonianSpec) -> list[Gate]:
    if op.kind == "onsite":
        gates: list[Gate] = []
        for s in sorted(spec.on_site, key=lambda s: s.value):
            vec = spec.on_site[s]
            for j in range(1, spec.n + 1):
                if vec[j - 1] != 0.0:
                    gates.append(PauliRotation(s.value, j, 2.0 * theta * float(vec[j - 1])))
        return gates
    if op.kind == "ladder":
        gates = []
        for r, c in zip(*np.nonzero(op.data)):
            string = [(op.rows[r], PauliKind.Z), (op.cols[c], PauliKind.Z)]
            gates.extend(pauli_string_exponential(string, theta * float(op.data[r, c]), spec.n).gates)
        return gates
    half = len(op.rows)
    if op.kind == "far":
        left, sing, right = op.data.left, op.data.singulars, op.data.right

        def coupling(zu, zv):
            return float(((zu @ left) * sing) @ (right.T @ zv))

    else:
        values = np.ascontiguousarray(op.data)

        def coupling(zu, zv):
            return float(zu @ values @ zv)

    def phase_fn(bits):
        return -theta * coupling(_zsigns(bits[:half]), _zsigns(bits[half:]))

    return [CompositeDiagonalPhase(tuple(op.rows) + tuple(op.cols), phase_fn, op.cost)]


def _compile_stages(
    method: str,
    spec: HamiltonianSpec,
    t: float,
    formula: int,
    count_only: bool,
    stage_ops: Callable[[tuple[PauliKind, PauliKind], CoeffMatrix, float], list[_StageOp]],
) -> CompiledStep:
    """Plan every schedule entry of the group stages, then count or lower the plan.

    A two-local stage is the basis change of its axis map, the ops
    ``stage_ops(pair, matrix, theta)`` lists, and the inverse basis change;
    the on-site stage is one rotation op. The gate count is the sum of the
    declared costs, and the circuit is the same plan lowered gate by gate.
    """
    stages = group_stages(spec)
    if not stages:
        raise ValidationError("spec has no terms to compile")
    fr = make_product_formula(formula, len(stages))
    if not count_only and spec.n > CAPACITY_QUBITS:
        raise CapacityError(f"verification mode caps n at {CAPACITY_QUBITS}, got {spec.n}")
    onsite = _StageOp("onsite", int(sum(np.count_nonzero(vec) for vec in spec.on_site.values())))
    plan: list[tuple[float, dict[int, PauliKind], list[_StageOp]]] = []
    for idx, frac in zip(fr.stages.tolist(), fr.fractions.tolist()):
        kind, pair_key = stages[idx - 1]
        theta = frac * t
        if kind == "onsite":
            plan.append((theta, {}, [onsite]))
        else:
            mat = spec.two_local[pair_key]
            plan.append((theta, _stage_axis_map(mat, *pair_key), stage_ops(pair_key, mat, theta)))
    count = sum(_wrap_cost(axis) + sum(op.cost for op in ops) for _, axis, ops in plan)
    phase = t * spec.identity
    if count_only:
        return CompiledStep(method, t, count, None, phase)
    gates: list[Gate] = []
    for theta, axis, ops in plan:
        changes = [basis_change(axis[q], q) for q in sorted(axis)]
        for pre, _ in changes:
            gates.extend(pre)
        for op in ops:
            gates.extend(_op_gates(op, theta, spec))
        for _, post in changes:
            gates.extend(post)
    circuit = Circuit(spec.n, tuple(gates), system_qubits=spec.n)
    return CompiledStep(method, t, count, circuit, phase)


# -- lowrank ------------------------------------------------------------------


def compile_lowrank_step(
    spec: HamiltonianSpec,
    t: float,
    tol: float,
    cutoff_size: int,
    formula: int,
    *,
    count_only: bool = False,
    eps: float = 1e-3,
) -> CompiledStep:
    """Far blocks as rank-truncated diagonal composites, remainder sequential.

    Inside each stage everything is diagonal after the basis change, so the
    only errors are the stage-level formula error and the rank truncation.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    dec = lowrank_decompose(spec.n, cutoff_size)
    width = phase_register_width(spec.n, t, eps)
    # near-field rectangles, then the within blocks (data is zero below the diagonal)
    remainder = [(p.left, p.right) for p in dec.near_field]
    remainder += [(block, block) for block in dec.within_blocks]
    factors: dict[tuple[PauliKind, PauliKind], list] = {}

    def stage_ops(pair_key, mat, theta):
        if pair_key not in factors:
            factors[pair_key] = [
                truncated_svd(mat.block(p.left.sites(), p.right.sites()), tol, p)
                for p in dec.far_field
            ]
        ops = [
            _StageOp("far", p.left.length * fac.rank * width, p.left.sites(), p.right.sites(), fac)
            for fac, p in zip(factors[pair_key], dec.far_field)
            if fac.rank
        ]
        for left, right in remainder:
            sub = mat.data[left.lo - 1 : left.hi, right.lo - 1 : right.hi]
            ops.append(_StageOp("ladder", 3 * int(np.count_nonzero(sub)), left.sites(), right.sites(), sub))
        return ops

    return _compile_stages("lowrank", spec, t, formula, count_only, stage_ops)


# -- avgcost ------------------------------------------------------------------


def compile_avgcost_step(
    spec: HamiltonianSpec,
    t: float,
    m: int,
    formula: int,
    *,
    count_only: bool = False,
    eps: float = 1e-3,
) -> CompiledStep:
    """One exact diagonal composite per nonempty subdivision cell.

    Declared cell cost = qubitization steps for the cell's 1-norm times the
    preparation + selection model, with the cell's own amplification ratio.
    """
    if not (1 <= m <= spec.n // 2):
        raise DomainError(f"m must be in [1, {spec.n // 2}], got {m}")
    dec = bisection_decompose(spec.n)

    def stage_ops(pair_key, mat, theta):
        ops = []
        for pair in dec.pairs:
            for cell in cells_for_pair(pair, m):
                jlo, jhi, klo, khi = cell.region.rectangles[0]
                sub = mat.data[jlo - 1 : jhi, klo - 1 : khi]
                cell_1 = float(np.abs(sub).sum())
                if cell_1 == 0.0:
                    continue
                cell_max = float(np.abs(sub).max())
                ratio = cell.width_j * cell.width_k * cell_max / cell_1
                steps = qubitization_step_count(cell_1 * abs(theta), eps)
                cost = steps * (
                    cell_prep_cost(cell.width_j, cell.width_k, ratio)
                    + cell_select_cost(cell.width_j, cell.width_k)
                )
                ops.append(_StageOp("cell", cost, range(jlo, jhi + 1), range(klo, khi + 1), sub))
        return ops

    return _compile_stages("avgcost", spec, t, formula, count_only, stage_ops)


# -- Hamming-weight-2 reduction gadget ----------------------------------------


def _register_match_phase(target: int, reg_width: int) -> Callable:
    def fn(bits: Sequence[int]) -> float:
        value = sum(b << i for i, b in enumerate(bits[:reg_width]))
        return math.pi if value == target and bits[reg_width] else 0.0

    return fn


def _binary_to_unary_pass(reg_start: int, reg_width: int, unary_start: int, n: int) -> list[Gate]:
    """XOR the unary marker of the register's value; self-inverse."""
    reg = tuple(range(reg_start, reg_start + reg_width))
    gates: list[Gate] = []
    for u in range(1, n + 1):
        uq = unary_start + u - 1
        gates.append(Hadamard(uq))
        gates.append(
            CompositeDiagonalPhase(
                reg + (uq,), _register_match_phase(u - 1, reg_width), 2 * reg_width + 1
            )
        )
        gates.append(Hadamard(uq))
    return gates


def compile_hamming2_reduction(coeffs: CoeffMatrix) -> Circuit:
    """Phase e^{-i 4 beta_{j,k}} on register states |j>|k> (either order).

    Two binary-to-unary conversions mark sites j and k on an n-qubit unary
    register (the marks cancel when j = k), controlled phases fire once per
    stored coefficient, and the conversions are undone, restoring ancillas.
    """
    n = coeffs.n
    if n < 2 or (n & (n - 1)) != 0:
        raise DomainError(f"register reduction needs n a power of 2, got {n}")
    reg_width = n.bit_length() - 1
    total = 2 * reg_width + n
    # construction is count-only safe at any n; the 14-qubit cap applies at lowering
    unary_start = 2 * reg_width + 1
    j_pass = _binary_to_unary_pass(1, reg_width, unary_start, n)
    k_pass = _binary_to_unary_pass(1 + reg_width, reg_width, unary_start, n)
    gates: list[Gate] = list(j_pass) + list(k_pass)
    for j, k, v in coeffs.nonzero_pairs():
        gates.append(ControlledPhase(unary_start + j - 1, unary_start + k - 1, -4.0 * v))
    gates.extend(k_pass)
    gates.extend(j_pass)
    return Circuit(total, tuple(gates), system_qubits=2 * reg_width)
