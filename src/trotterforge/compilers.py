"""Trotter-step compilers.

The three step compilers take the product-formula order p as ``formula``
(1 Lie-Trotter, 2 Strang, 4 Suzuki). ``make_product_formula`` builds its
schedule in closed form as two read-only arrays: the stage of each entry and
its fraction of the step. Four lowering strategies:

* sequential — one Pauli exponential per term, every term its own stage;
  its count takes how often the schedule runs each stage in closed form;
* lowrank    — far blocks become diagonal-phase composites built from
  truncated factors, near/within remainders stay sequential;
* avgcost    — every subdivision cell becomes one diagonal-phase composite
  costed by qubitization step counts;
* hamming2   — the binary-to-unary phase gadget over two index registers.

lowrank and avgcost share one stage plan: per schedule entry, the stage's
basis change and a list of ops (diagonal composites, ZZ ladders, on-site
rotations), each with its declared cost and the array slice it lowers from.
The gate count is the sum of the declared costs; the circuit is the same
plan lowered, so the two agree by construction. Lowering a composite builds
its phase table with one matmul over the +-1 signs of its sites; count-only
mode returns before lowering, which is sized against memory first. Verification-mode
circuits are exact: the only approximations are the product formula and low-rank truncation.

What lowrank and avgcost compute from a coefficient block (its truncated
factor, its cells' costs) goes through a ``BlockMemo``, so equal blocks share
it. Each compile makes its own memo unless the caller passes one, as a cost
report does for its whole sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blockenc import cell_prep_cost, cell_select_cost, qubitization_step_count
from .circuit import (
    Circuit,
    CompositeDiagonalPhase,
    ControlledPhase,
    Gate,
    Hadamard,
    PauliRotation,
    basis_change,
    check_dense_capacity,
    circuit_diagonal,
    circuit_to_unitary,
    exact_evolutions,
    hamiltonian_diagonal,
    is_z_only,
    pauli_string_exponential,
    spectral_distance,
)
from .decomp import Cell, bisection_decompose, cell_norms, cells_for_pair, lowrank_decompose
from .errors import DomainError, ValidationError, check_float_range, check_memory
from .hamlib import BlockMemo, CoeffMatrix, HamiltonianSpec, IndexRegion, PauliKind, nonzero_terms
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
        _check_order(self.p)
        if self.stage_count < 1:
            raise ValidationError("need at least one stage")
        idx = np.asarray(self.stages, dtype=np.int64)
        frac = np.asarray(self.fractions, dtype=float)
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
        # the caller may still hold writeable input; make_product_formula hands its arrays over
        if idx.flags.writeable:
            idx = idx.copy()
            idx.setflags(write=False)
        if frac.flags.writeable:
            frac = frac.copy()
            frac.setflags(write=False)
        object.__setattr__(self, "stages", idx)
        object.__setattr__(self, "fractions", frac)

    def __reduce__(self):
        # unpickling runs the constructor, so the arrays come back read-only
        return (ProductFormula, (self.p, self.stage_count, self.stages, self.fractions))


def _check_order(p: int) -> None:
    if p not in SUPPORTED_ORDERS:
        raise DomainError(f"order must be one of {SUPPORTED_ORDERS}, got {p}")


def make_product_formula(p: int, stage_count: int = 2) -> ProductFormula:
    """Lie-Trotter (p=1), Strang (p=2), or the p=4 Suzuki recursion."""
    _check_order(p)
    if stage_count < 1:
        raise ValidationError("need at least one stage")
    if p == 1:
        return _handed_over(p, stage_count, np.arange(1, stage_count + 1), np.ones(stage_count))
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
    return _handed_over(p, stage_count, stages, fractions)


def _stage_runs(p: int, stage_count: int, first: int, last: int) -> int:
    """How many entries of ``make_product_formula(p, stage_count).stages`` lie in first..last.

    Strang runs every stage twice but stage S, the middle, once. Suzuki's five
    Strang segments run each stage ten times, but stage S five and stage 1 six:
    each of the four joins merges two runs of stage 1. A lone stage runs once.
    """
    if last < first:
        return 0
    span = last - first + 1
    if p == 1 or stage_count == 1:
        return span
    if p == 2:
        return 2 * span - (last == stage_count)
    return 10 * span - 4 * (first == 1) - 5 * (last == stage_count)


def _handed_over(p: int, stage_count: int, stages: np.ndarray, fractions: np.ndarray) -> ProductFormula:
    """The formula over arrays no one else holds, marked read-only so the constructor keeps them uncopied."""
    stages.setflags(write=False)
    fractions.setflags(write=False)
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


def _lowered(step: CompiledStep, lower: Callable[[Circuit], np.ndarray]) -> np.ndarray:
    """e^{-i global_phase} times ``lower(step.circuit)``."""
    if step.circuit is None:
        raise ValidationError("count-only steps carry no circuit to lower")
    return np.exp(-1j * step.global_phase) * lower(step.circuit)


def lowered_step_unitary(step: CompiledStep) -> np.ndarray:
    return _lowered(step, circuit_to_unitary)


# Peak bytes per basis state of step_distances on a Z-only spec: the 4-column block and the
# spare that a one-qubit gate writes and a CNOT swaps through (2 x 64 B), w and the diagonal
# (tracemalloc: 152 B at n=12-16, under this bound). Each distinct qubit tuple of a diagonal
# gate adds its phase-table index, which circuit_diagonal sizes once the circuit is known.
_DIAGONAL_DISTANCE_BYTES = 176


def check_distance_capacity(spec: HamiltonianSpec) -> None:
    """Raise CapacityError if ``step_distances`` on this spec would exceed physical memory or the float range.

    It decides the path from the spec alone, so it can run before any step is compiled.
    """
    if is_z_only(spec):
        n = spec.n
        check_memory(
            _DIAGONAL_DISTANCE_BYTES << n, f"checking a {n}-qubit Z-only step against exact evolution (2^{n} vectors)"
        )
    else:
        check_dense_capacity(spec.n)
    with np.errstate(over="ignore"):
        one_norm = sum(float(np.abs(coeffs).sum()) for _, coeffs in spec.term_groups()) + abs(spec.identity)
    check_float_range(one_norm, "the sum of the spec's |coefficients|")


def step_distances(spec: HamiltonianSpec, steps: Sequence[CompiledStep]) -> list[float]:
    """Spectral distance of each lowered step from e^{-itH} at its own t.

    A Z-only spec has a diagonal e^{-itH} and diagonal steps, so the distance is
    max_b |e^{-i phase} U_bb - e^{-itw_b}| over 2^n vectors, with no dense matrix,
    eigendecomposition or SVD. Any other spec lowers each step to its dense
    unitary and compares it with e^{-itH} from one eigendecomposition of H.
    """
    if is_z_only(spec):
        w = hamiltonian_diagonal(spec)
        return [float(np.abs(_lowered(s, circuit_diagonal) - np.exp(-1j * s.t * w)).max()) for s in steps]
    exact = exact_evolutions(spec, [s.t for s in steps])
    return [spectral_distance(lowered_step_unitary(s), e) for s, e in zip(steps, exact)]


def step_cost_json(step: CompiledStep) -> str:
    composites = []
    if step.circuit is not None:
        for g in step.circuit.gates:
            if isinstance(g, CompositeDiagonalPhase):
                composites.append({"kind": "diagonal-phase", "cost": g.cost})
    doc = {"method": step.method, "gates": step.gate_count, "composites": composites}
    return json.dumps(doc, indent=2, sort_keys=True)


# Peak bytes per lowered gate object: tracemalloc measured 170-180 B on
# sequential lowering at n=16-64 (Python 3.11), gate lists and terms included.
_GATE_BYTES = 180


def _check_lowering_memory(method: str, n: int, gates: int, tables: Sequence[int] = ()) -> None:
    """Raise CapacityError if ``gates`` gate objects and phase ``tables`` exceed physical memory.

    The largest table is built beside its coupling matrix and a transposed copy.
    """
    need = gates * _GATE_BYTES + sum(tables) + 2 * max(tables, default=0)
    check_memory(need, f"lowering the {method} step on {n} qubits ({gates} gates, {len(tables)} composites)")


# -- sequential ---------------------------------------------------------------

# gates of one axis's basis change and its inverse, counted from the gates it emits
_AXIS_OVERHEAD = {p: sum(map(len, basis_change(p, 1))) for p in (PauliKind.X, PauliKind.Y, PauliKind.Z)}


def sequential_term_cost(axes: Sequence[PauliKind]) -> int:
    """Gate count of one Pauli exponential: basis changes + CNOT ladder + Rz."""
    active = [p for p in axes if p != PauliKind.I]
    if not active:
        return 0
    return sum(_AXIS_OVERHEAD[p] for p in active) + 2 * (len(active) - 1) + 1


def compile_sequential_step(
    spec: HamiltonianSpec,
    t: float,
    formula: int,
    *,
    count_only: bool = False,
) -> CompiledStep:
    """One Pauli exponential per nonzero term; each term is its own stage."""
    # stages run over the terms in spec.term_groups() order, one run of equal cost per group
    groups = spec.term_groups()
    runs = [(int(np.count_nonzero(coeffs)), sequential_term_cost(kinds)) for kinds, coeffs in groups]
    term_count = sum(size for size, _ in runs)
    _check_order(formula)
    phase = t * spec.identity
    if term_count == 0:
        return CompiledStep("sequential", t, 0, None if count_only else Circuit(spec.n, ()), phase)
    count, start = 0, 1  # stages are 1-based
    for size, cost in runs:
        count += _stage_runs(formula, term_count, start, start + size - 1) * cost
        start += size
    if count_only:
        return CompiledStep("sequential", t, count, None, phase)
    _check_lowering_memory("sequential", spec.n, count)  # every gate here costs 1
    terms = [(list(zip(qs, kinds)), c) for kinds, coeffs in groups for qs, c in nonzero_terms(coeffs)]
    fr = make_product_formula(formula, term_count)
    gates: list[Gate] = []
    for idx, frac in zip(fr.stages.tolist(), fr.fractions.tolist()):
        string, coeff = terms[idx - 1]
        gates.extend(pauli_string_exponential(string, frac * t * coeff, spec.n).gates)
    circuit = Circuit(spec.n, tuple(gates))
    return CompiledStep("sequential", t, count, circuit, phase)


# -- the stage plan shared by the decomposition methods -----------------------


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
    raw = check_float_range(n * abs(t) / eps, f"n t / eps at n={n}, t={t!r}, eps={eps!r}")
    return max(1, math.ceil(math.log2(raw))) + 4 if raw > 1.0 else 5


def _sign_table(width: int) -> np.ndarray:
    """Row idx holds z_i = (-1)^(bit i of idx) for i < width."""
    return 1.0 - 2.0 * ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1)


@dataclass(eq=False)
class _StageOp:
    """One piece of a stage: its declared gate cost and the data it lowers from.

    * ``far``: one diagonal composite e^{-i theta z_u.A z_v} on the sites
      ``rows`` + ``cols``, with A the far block's truncated factor ``data``;
    * ``cell``: the same, with A the subdivision cell's view of its pair's cross block;
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
        return [
            PauliRotation(kinds[0].value, q, 2.0 * theta * c)
            for kinds, coeffs in spec.term_groups()
            if len(kinds) == 1
            for (q,), c in nonzero_terms(coeffs)
        ]
    if op.kind == "ladder":
        gates = []
        for r, c in zip(*np.nonzero(op.data)):
            string = [(op.rows[r], PauliKind.Z), (op.cols[c], PauliKind.Z)]
            gates.extend(pauli_string_exponential(string, theta * float(op.data[r, c]), spec.n).gates)
        return gates
    zu, zv = _sign_table(len(op.rows)), _sign_table(len(op.cols))
    if op.kind == "far":
        fac = op.data
        coupling = ((zu @ fac.left) * fac.singulars) @ (fac.right.T @ zv.T)
    else:
        coupling = zu @ np.ascontiguousarray(op.data) @ zv.T
    # coupling[u, v] = z_u.A z_v; the row sites are the low bits of the table index
    phases = -theta * coupling.T.ravel()
    return [CompositeDiagonalPhase(tuple(op.rows) + tuple(op.cols), phases, op.cost)]


def _compile_stages(
    method: str,
    spec: HamiltonianSpec,
    t: float,
    formula: int,
    count_only: bool,
    stage_ops: Callable[[tuple[PauliKind, PauliKind], CoeffMatrix, float], list[_StageOp]],
) -> CompiledStep:
    """Plan every schedule entry of the group stages, then count or lower the plan.

    The stages are one per (sigma, sigma') matrix, then one on-site stage
    (``None``) if any field is nonzero. A two-local stage is the basis change
    of its axis map, the ops ``stage_ops(pair, matrix, theta)`` lists, and the
    inverse basis change; the on-site stage is one rotation op. The gate count
    is the sum of the declared costs, and the circuit is the same plan lowered.
    """
    stages: list[tuple[PauliKind, PauliKind] | None] = list(spec.two_local)
    if any(np.any(vec != 0.0) for vec in spec.on_site.values()):
        stages.append(None)
    if not stages:
        raise ValidationError("spec has no terms to compile")
    fr = make_product_formula(formula, len(stages))
    onsite = _StageOp("onsite", int(sum(np.count_nonzero(vec) for vec in spec.on_site.values())))
    plan: list[tuple[float, dict[int, PauliKind], list[_StageOp]]] = []
    for idx, frac in zip(fr.stages.tolist(), fr.fractions.tolist()):
        pair_key = stages[idx - 1]
        theta = frac * t
        if pair_key is None:
            plan.append((theta, {}, [onsite]))
        else:
            mat = spec.two_local[pair_key]
            plan.append((theta, _stage_axis_map(mat, *pair_key), stage_ops(pair_key, mat, theta)))
    count = sum(_wrap_cost(axis) + sum(op.cost for op in ops) for _, axis, ops in plan)
    phase = t * spec.identity
    if count_only:
        return CompiledStep(method, t, count, None, phase)
    composites = [op for _, _, ops in plan for op in ops if op.kind in ("far", "cell")]
    # a composite is one gate object, whatever its declared cost, with an 8 * 2^k byte table
    tables = [8 << (len(op.rows) + len(op.cols)) for op in composites]
    _check_lowering_memory(method, spec.n, count - sum(op.cost - 1 for op in composites), tables)
    gates: list[Gate] = []
    for theta, axis, ops in plan:
        changes = [basis_change(axis[q], q) for q in sorted(axis)]
        for pre, _ in changes:
            gates.extend(pre)
        for op in ops:
            gates.extend(_op_gates(op, theta, spec))
        for _, post in changes:
            gates.extend(post)
    circuit = Circuit(spec.n, tuple(gates))
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
    memo: BlockMemo | None = None,
) -> CompiledStep:
    """Far blocks as rank-truncated diagonal composites, remainder sequential.

    Inside each stage everything is diagonal after the basis change, so the
    only errors are the stage-level formula error and the rank truncation.
    Equal far blocks share one SVD through ``memo`` (a fresh one by default).
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    dec = lowrank_decompose(spec.n, cutoff_size)
    width = phase_register_width(spec.n, t, eps)
    remainder = dec.remainder_regions()
    memo = BlockMemo() if memo is None else memo

    def stage_ops(pair_key, mat, theta):
        ops = []
        for p in dec.far_field:
            block = mat.block(p.cross_region())
            fac = memo.get(block, ("svd", tol), lambda: truncated_svd(block, tol))
            if fac.rank:  # each op keeps its own sites, whichever block took the SVD
                ops.append(_StageOp("far", len(p.left) * fac.rank * width, p.left, p.right, fac))
        for region in remainder:
            sub = mat.block(region)
            ops.append(_StageOp("ladder", 3 * int(np.count_nonzero(sub)), region.rows, region.cols, sub))
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
    memo: BlockMemo | None = None,
) -> CompiledStep:
    """One exact diagonal composite per nonempty subdivision cell.

    Declared cell cost = qubitization steps for the cell's 1-norm times the
    preparation + selection model, with the cell's own amplification ratio.
    Pairs with equal cross blocks share their cell costs through ``memo`` (a
    fresh one by default).
    """
    if not (1 <= m <= spec.n // 2):
        raise DomainError(f"m must be in [1, {spec.n // 2}], got {m}")
    dec = bisection_decompose(spec.n)
    memo = BlockMemo() if memo is None else memo

    def cell_costs(block: np.ndarray, cells: list[Cell], theta: float) -> list[tuple[IndexRegion, int]]:
        """(region, declared cost) of every nonempty cell of the cross block ``block``."""
        costs = []
        for cell in cells:
            sub, cell_1, ratio = cell_norms(block, cell)
            if cell_1 == 0.0:
                continue
            steps = qubitization_step_count(cell_1 * abs(theta), eps)
            width_j, width_k = sub.shape
            cost = steps * (cell_prep_cost(width_j, width_k, ratio) + cell_select_cost(width_j, width_k))
            costs.append((cell.region, cost))
        return costs

    def stage_ops(pair_key, mat, theta):
        ops = []
        for pair in dec.pairs:
            block = mat.block(pair.cross_region())
            # the cells are regions of the block, so its bytes fix them and their costs
            params = ("cells", m, abs(theta), eps)
            costs = memo.get(block, params, lambda: cell_costs(block, cells_for_pair(pair, m), theta))
            for region, cost in costs:
                rows, cols = region.slices()
                ops.append(_StageOp("cell", cost, pair.left[rows], pair.right[cols], region.of(block)))
        return ops

    return _compile_stages("avgcost", spec, t, formula, count_only, stage_ops)


# -- Hamming-weight-2 reduction gadget ----------------------------------------


def _binary_to_unary_pass(reg_start: int, reg_width: int, unary_start: int, tables: np.ndarray) -> list[Gate]:
    """XOR the unary marker of the register's value; self-inverse. Row u of tables marks value u."""
    reg = tuple(range(reg_start, reg_start + reg_width))
    gates: list[Gate] = []
    for u, table in enumerate(tables):
        uq = unary_start + u
        gates.append(Hadamard(uq))
        gates.append(CompositeDiagonalPhase(reg + (uq,), table, 2 * reg_width + 1))
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
    # construction is count-only safe at any n; lowering is sized by circuit_to_unitary
    unary_start = 2 * reg_width + 1
    # row u: phase pi where the register holds u and the marker (bit reg_width) is set;
    # the j pass and the k pass share these read-only rows
    tables = np.zeros((n, 2 << reg_width))
    tables[np.arange(n), np.arange(n) | (1 << reg_width)] = math.pi
    tables.setflags(write=False)
    j_pass = _binary_to_unary_pass(1, reg_width, unary_start, tables)
    k_pass = _binary_to_unary_pass(1 + reg_width, reg_width, unary_start, tables)
    gates: list[Gate] = list(j_pass) + list(k_pass)
    for j, k, v in coeffs.nonzero_pairs():
        gates.append(ControlledPhase(unary_start + j - 1, unary_start + k - 1, -4.0 * v))
    gates.extend(k_pass)
    gates.extend(j_pass)
    return Circuit(total, tuple(gates))
