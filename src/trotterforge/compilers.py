"""Trotter-step compilers.

The four step compilers take the product-formula order p as ``formula``
(1 Lie-Trotter, 2 Strang, 4 Suzuki). ``make_product_formula`` lists its
schedule as (stage, fraction) pairs in order. Five lowering strategies:

* sequential — one Pauli exponential per term, every term its own stage;
* lowrank    — far blocks become diagonal-phase composites built from
  truncated factors, near/within remainders stay sequential;
* avgcost    — every nonempty subdivision cell becomes one diagonal-phase
  composite costed by qubitization step counts, one op per bisection pair;
* block      — one composite per nonzero bisection cross block, costed as its qubitized boxed encoding;
* hamming2   — the binary-to-unary phase gadget over two index registers.

All four step methods plan runs of equal-cost stages: a sequential term group is a run of
one stage per term, a structured method's a run of one stage. A stage is a flat list of ops
(Pauli exponentials, basis changes, diagonal composites, ZZ ladders, on-site rotations), each
with its declared cost and the data it lowers from. The count prices each run once per fraction
the schedule runs it at, and the circuit is the same ops lowered in schedule order, so the
two agree by construction. Lowering a composite
builds its phase table with one matmul over the +-1 signs of its sites; count-only
mode returns before lowering, which is sized against memory first. Verification-mode
circuits are exact: the only approximations are the product formula and low-rank truncation.

A plan holds what a count reads: a far op its block's rank, taken from the
singular values alone, and a pair op the sum of its cells' costs. avgcost and
block build their pair ops in one loop, which takes from each method only the
subdivision of a cross block (block's m = 1: one cell, the whole block) and the
cost of one cell; a cell's norms are read by ``hamlib.norms`` with no copy. Lowering
takes the far block's truncated factor and cuts it at the plan's rank, and
expands a pair op into its cells. What the three compute from a block (rank,
truncated factor, priced cells, box norms) goes
through a ``BlockMemo``, so equal blocks share it. Each compile makes its own
memo unless the caller passes one, as a cost report does for its whole sweep.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .blockenc import block_prep_cost, block_select_cost, cell_prep_cost, cell_select_cost, qubitization_step_count
from .circuit import (
    _exponential_gates,
    Circuit,
    CompositeDiagonalPhase,
    Gate,
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
from .decomp import BisectionDecomposition, Cell, IntervalPair, bisection_decompose, cell_norms, cells_for_pair
from .decomp import lowrank_decompose, pair_box_norms
from .errors import DomainError, ValidationError, check_float_range, check_memory
from .hamlib import BlockMemo, CoeffMatrix, HamiltonianSpec, IndexRegion, PauliKind, nonzero_terms
from .lowrank import singular_truncation, truncated_svd

SUPPORTED_ORDERS = (1, 2, 4)


def _check_order(p: int) -> None:
    if p not in SUPPORTED_ORDERS:
        raise DomainError(f"order must be one of {SUPPORTED_ORDERS}, got {p}")


def make_product_formula(p: int, stage_count: int) -> list[tuple[int, float]]:
    """Lie-Trotter (p=1), Strang (p=2), or the p=4 Suzuki recursion, as its (stage, fraction) entries in order.

    Entry (i, f) runs stage i (1-based) for f of the step; the fractions of each stage sum to 1.
    """
    return list(_product_formula(p, stage_count))


def _product_formula(p: int, stage_count: int) -> Iterator[tuple[int, float]]:
    """The entries of ``make_product_formula(p, stage_count)``, one at a time, so a lowering holds none of them."""
    _check_order(p)
    if stage_count < 1:
        raise ValidationError("need at least one stage")
    if p == 1:
        yield from ((i, 1.0) for i in range(1, stage_count + 1))
        return

    def strang() -> Iterator[tuple[int, float]]:
        # stages 1..S-1 for half a step, S for a whole one, then S-1..1 again
        yield from ((i, 0.5) for i in range(1, stage_count))
        yield stage_count, 1.0
        yield from ((i, 0.5) for i in range(stage_count - 1, 0, -1))

    if p == 2:
        yield from strang()
        return
    # five scaled Strang segments; a segment's last stage 1 meets the next one's first, and the two merge
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    entries = ((stage, scale * frac) for scale in (u, u, 1.0 - 4.0 * u, u, u) for stage, frac in strang())
    last = next(entries)
    for stage, frac in entries:
        if stage == last[0]:
            last = (stage, last[1] + frac)
        else:
            yield last
            last = (stage, frac)
    yield last


def _stage_fractions(p: int, stage_count: int, first: int, last: int) -> dict[float, int]:
    """How many entries of ``make_product_formula(p, stage_count)`` run a stage in first..last, by fraction.

    Every stage strictly between 1 and S runs at the fractions of stage 2 of the
    three-stage schedule, so that schedule stands for any S of 3 or more.
    """
    short = min(stage_count, 3)
    fractions: dict[float, int] = {}
    for stage, frac in make_product_formula(p, short):
        lo, hi = (1, 1) if stage == 1 else (stage_count, stage_count) if stage == short else (2, stage_count - 1)
        entries = min(hi, last) - max(lo, first) + 1
        if entries > 0:
            fractions[frac] = fractions.get(frac, 0) + entries
    return fractions


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
            if g.name == "COMPOSITE":
                composites.append({"kind": "diagonal-phase", "cost": g.cost})
    doc = {"method": step.method, "gates": step.gate_count, "composites": composites}
    return json.dumps(doc, indent=2, sort_keys=True)


# Peak bytes of a lowering per gate object, per stage (a sequential stage's entry in its term list and
# schedule) and per composite beside its phase table (sign tables, factors, cell lists, memo entries).
# Fitted to tracemalloc peaks of all four methods on seeded-random power-law chains, with and without
# an X field, at n=16-64 and p=1, 2 and 4 (Python 3.11): every peak is at most 0.997 of its charge.
# Block's n=16 sign tables set the composite constant, so avgcost at n=16 peaks at 0.14-0.23 of it.
# Lowering now walks the schedule one entry at a time, so it no longer holds the ~88 B per entry the
# stage constant still counts: sequential at n=64, p=4 peaks at 0.77 of its charge, not 1.00.
_GATE_BYTES = 128
_STAGE_BYTES = 160
_COMPOSITE_BYTES = 4096


def _check_lowering_memory(method: str, n: int, gates: int, tables: Sequence[int], stages: int) -> None:
    """Raise CapacityError if ``gates`` gate objects, phase ``tables`` and ``stages`` stages exceed physical memory.

    The largest table is built beside its coupling matrix and a transposed copy.
    """
    need = gates * _GATE_BYTES + stages * _STAGE_BYTES + len(tables) * _COMPOSITE_BYTES
    need += sum(tables) + 2 * max(tables, default=0)
    check_memory(need, f"lowering the {method} step on {n} qubits ({gates} gates, {len(tables)} composites)")


# -- sequential ---------------------------------------------------------------

def sequential_term_cost(axes: Sequence[PauliKind]) -> int:
    """Gate count of one Pauli exponential over X, Y and Z axes (a spec holds no I factor)."""
    return pauli_string_exponential(list(enumerate(axes, 1)), 0.0).cost()


def compile_sequential_step(spec: HamiltonianSpec, t: float, formula: int, *, count_only: bool = False) -> CompiledStep:
    """One Pauli exponential per nonzero term; each term is its own stage, one run of them per term group."""
    runs = []
    for kinds, coeffs in spec.term_groups():
        size = int(np.count_nonzero(coeffs))
        if size:  # a group's terms are listed when its first stage is lowered, never for a count
            op = functools.partial(_StageOp, "pauli", sequential_term_cost(kinds))
            terms = functools.cache(functools.partial(nonzero_terms, coeffs))
            runs.append((size, lambda theta, i, op=op, kinds=kinds, terms=terms: [op(data=(kinds, terms, i))]))
    return _compile_stages("sequential", spec, t, formula, count_only, runs)


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


# (pre, post) gate counts of one axis's change into the Z basis and back, counted from the gates it emits
_AXIS_GATES = {p: tuple(map(len, basis_change(p, 1))) for p in (PauliKind.X, PauliKind.Y, PauliKind.Z)}


def _basis_ops(mat: CoeffMatrix, s1: PauliKind, s2: PauliKind) -> list[_StageOp]:
    """The stage's change into the Z basis and its change back, one ``basis`` op each."""
    changes = sorted(_stage_axis_map(mat, s1, s2).items())
    return [_StageOp("basis", sum(_AXIS_GATES[p][side] for _, p in changes), data=(changes, side)) for side in (0, 1)]


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

    * ``pauli``: one Pauli exponential; ``data`` is (kinds, terms, i), the term group's
      kinds, the function that lists its nonzero (sites, coefficient) terms, and which term;
    * ``far``: one diagonal composite e^{-i theta z_u.A z_v} on the sites
      ``rows`` + ``cols``; ``data`` is (block, rank, factor), and A is
      ``factor(block)``, the block's truncated factor, cut at ``rank``;
    * ``cells``: one such composite per nonempty cell of the pair ``rows`` x ``cols``
      (avgcost's subdivision cells, or block's one cell, the whole block); ``data`` is
      (block, cells), the pair's cross block and each cell's (region, cost), A the cell's view;
    * ``ladder``: one ZZ CNOT ladder per nonzero of the slice ``data``, whose
      entry [r, c] couples sites rows[r] and cols[c];
    * ``onsite``: one rotation per (gate name, site, coefficient) of ``data``, the nonzero terms of one on-site kind;
    * ``basis``: ``data`` is (changes, side), the stage's sorted (site, axis) pairs and which
      half of ``basis_change`` to emit for each: 0 into the Z basis, 1 back out of it.
    """

    kind: str
    cost: int
    rows: range = range(0)
    cols: range = range(0)
    data: object = None


def _op_gates(op: _StageOp, theta: float) -> list[Gate | CompositeDiagonalPhase]:
    if op.kind == "pauli":
        kinds, terms, i = op.data
        sites, coeff = terms()[i]
        return _exponential_gates(zip(sites, kinds), theta * coeff)
    if op.kind == "basis":
        changes, side = op.data
        return [g for q, p in changes for g in basis_change(p, q)[side]]
    if op.kind == "onsite":
        return [Gate(name, q, None, 2.0 * theta * c) for name, q, c in op.data]
    if op.kind == "ladder":
        gates = []
        for r, c in zip(*np.nonzero(op.data)):
            string = [(op.rows[r], PauliKind.Z), (op.cols[c], PauliKind.Z)]
            gates.extend(_exponential_gates(string, theta * float(op.data[r, c])))
        return gates
    if op.kind == "far":
        block, rank, factor = op.data
        fac = factor(block)
        # the count priced ``rank``; the factor's own rank differs only where a value lies within round-off of tol
        left, singulars, right = fac.left[:, :rank], fac.singulars[:rank], fac.right[:, :rank]
        zu, zv = _sign_table(len(op.rows)), _sign_table(len(op.cols))
        coupling = ((zu @ left) * singulars) @ (right.T @ zv.T)
        return [_phase_composite(op.rows, op.cols, coupling, theta, op.cost)]
    block, cells = op.data
    gates = []
    for region, cost in cells:
        rows, cols = region.slices()
        zu, zv = _sign_table(len(region.rows)), _sign_table(len(region.cols))
        coupling = zu @ np.ascontiguousarray(region.of(block)) @ zv.T
        gates.append(_phase_composite(op.rows[rows], op.cols[cols], coupling, theta, cost))
    return gates


def _phase_composite(rows: range, cols: range, coupling: np.ndarray, theta: float, cost: int) -> CompositeDiagonalPhase:
    # coupling[u, v] = z_u.A z_v; the row sites are the low bits of the table index
    return CompositeDiagonalPhase(tuple(rows) + tuple(cols), -theta * coupling.T.ravel(), cost)


def _composites(op: _StageOp) -> list[tuple[int, int]]:
    """(qubit count, declared cost) of every diagonal composite ``op`` lowers to."""
    if op.kind == "far":
        return [(len(op.rows) + len(op.cols), op.cost)]
    if op.kind == "cells":
        return [(len(region.rows) + len(region.cols), cost) for region, cost in op.data[1]]
    return []


def _compile_stages(method: str, spec: HamiltonianSpec, t: float, formula: int, count_only: bool, runs: list) -> CompiledStep:
    """Count or lower the stages of ``runs``, in order, over the order-``formula`` schedule.

    A run is (size, ops): ``size`` consecutive stages of equal cost, where ``ops(theta, i)``
    lists the ``_StageOp``s of its i-th stage at time theta. The count prices each run's first
    stage once per fraction the schedule runs the run at, times the entries that do. Lowering
    walks the schedule and lowers each entry's ops, reusing those the count priced.
    """
    _check_order(formula)
    stage_count = sum(size for size, _ in runs)
    starts = list(itertools.accumulate((size for size, _ in runs[:-1]), initial=1))  # stages are 1-based
    # (run, fraction) -> (entries that run it there, the ops of its first stage there)
    priced = {
        (r, frac): (entries, ops(frac * t, 0))
        for r, ((size, ops), first) in enumerate(zip(runs, starts))
        for frac, entries in _stage_fractions(formula, stage_count, first, first + size - 1).items()
    }
    count = sum(entries * op.cost for entries, ops in priced.values() for op in ops)
    phase = t * spec.identity
    if count_only:
        return CompiledStep(method, t, count, None, phase)
    composites = [c for entries, ops in priced.values() for op in ops for c in _composites(op) * entries]
    # a composite is one gate object, whatever its declared cost, with an 8 * 2^k byte table
    tables = [8 << k for k, _ in composites]
    _check_lowering_memory(method, spec.n, count - sum(cost - 1 for _, cost in composites), tables, stage_count)

    def entry_ops(stage: int, frac: float) -> list[_StageOp]:
        r = bisect.bisect_right(starts, stage) - 1
        i = stage - starts[r]
        return runs[r][1](frac * t, i) if i else priced[r, frac][1]

    schedule = _product_formula(formula, stage_count) if runs else ()
    gates = (g for stage, frac in schedule for op in entry_ops(stage, frac) for g in _op_gates(op, frac * t))
    return CompiledStep(method, t, count, Circuit(spec.n, tuple(gates)), phase)


def _group_runs(spec: HamiltonianSpec, stage_ops: Callable[[CoeffMatrix, float], list[_StageOp]]) -> list:
    """One single-stage run per group of ``spec.term_groups()``: a two-local group's ``basis`` op
    into the Z basis, the ops ``stage_ops(matrix, theta)`` lists and its ``basis`` op back, or
    the one rotation op of an on-site kind with a nonzero field."""
    runs = []
    for kinds, coeffs in spec.term_groups():
        if len(kinds) == 2:
            mat = spec.two_local[kinds]
            pre, post = _basis_ops(mat, *kinds)
            runs.append((1, lambda theta, i, mat=mat, pre=pre, post=post: [pre, *stage_ops(mat, theta), post]))
        elif np.any(coeffs):
            terms = [(f"R{kinds[0].name}", q, c) for (q,), c in nonzero_terms(coeffs)]
            runs.append((1, lambda theta, i, op=_StageOp("onsite", len(terms), data=terms): [op]))
    return runs


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
    A far op's cost reads its block's ``singular_truncation`` rank; lowering
    takes the block's ``truncated_svd`` and cuts it at that rank. Equal far
    blocks share one of each through ``memo`` (a fresh one by default).
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    dec = lowrank_decompose(spec.n, cutoff_size)
    width = phase_register_width(spec.n, t, eps)
    remainder = dec.remainder_regions()
    zz_cost = sequential_term_cost((PauliKind.Z, PauliKind.Z))  # one ZZ exponential of a ladder
    memo = BlockMemo() if memo is None else memo

    def factor(block: np.ndarray):
        return memo.get(block, ("svd", tol), lambda: truncated_svd(block, tol))

    def stage_ops(mat, theta):
        ops = []
        for p in dec.far_field:
            block = mat.block(p.cross_region())
            rank = memo.get(block, ("rank", tol), lambda: singular_truncation(block, tol)[0])
            if rank:  # each op keeps its own sites, whichever block took the SVD
                ops.append(_StageOp("far", len(p.left) * rank * width, p.left, p.right, (block, rank, factor)))
        for region in remainder:
            sub = mat.block(region)
            ops.append(_StageOp("ladder", zz_cost * int(np.count_nonzero(sub)), region.rows, region.cols, sub))
        return ops

    return _compile_stages("lowrank", spec, t, formula, count_only, _group_runs(spec, stage_ops))


# -- avgcost and block: priced cells of each bisection pair --------------------


def _pair_cell_ops(
    dec: BisectionDecomposition,
    mat: CoeffMatrix,
    m: int,
    memo: BlockMemo,
    params: tuple,
    cost: Callable[[np.ndarray, IntervalPair, Cell], int],
) -> list[_StageOp]:
    """One ``cells`` op per bisection pair whose cells cost anything: the cells of ``m`` cuts of its cross block.

    ``cost(block, pair, cell)`` prices one cell of the pair's cross block ``block``,
    0 for a cell that needs no work, which the op leaves out; ``params`` names everything
    else a cost reads. Each cross block is read once, and pairs with equal cross
    blocks share their priced cells through ``memo``.
    """
    ops = []
    for pair in dec.pairs:
        block = mat.block(pair.cross_region())

        def priced() -> tuple[int, tuple[tuple[IndexRegion, int], ...]]:
            costs = [(cell.region, cost(block, pair, cell)) for cell in cells_for_pair(pair, m)]
            cells = tuple((region, c) for region, c in costs if c)
            return sum(c for _, c in cells), cells

        # the cells are regions of the block, so its bytes and ``params`` fix them and their costs
        total, cells = memo.get(block, params, priced)
        if cells:
            ops.append(_StageOp("cells", total, pair.left, pair.right, (block, cells)))
    return ops


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
    """One exact diagonal composite per nonempty subdivision cell, one op per bisection pair.

    Declared cell cost = qubitization steps for the cell's 1-norm times the
    preparation + selection model, with the cell's own amplification ratio;
    a pair's op costs the sum over its cells. Pairs with equal cross blocks
    share their cell costs through ``memo`` (a fresh one by default).
    """
    if not (1 <= m <= spec.n // 2):
        raise DomainError(f"m must be in [1, {spec.n // 2}], got {m}")
    dec = bisection_decompose(spec.n)
    memo = BlockMemo() if memo is None else memo

    def stage_ops(mat, theta):
        def cost(block: np.ndarray, pair: IntervalPair, cell: Cell) -> int:
            cell_1, ratio = cell_norms(block, cell)
            if cell_1 == 0.0:
                return 0
            width_j, width_k = len(cell.region.rows), len(cell.region.cols)
            steps = qubitization_step_count(cell_1 * abs(theta), eps)
            return steps * (cell_prep_cost(width_j, width_k, ratio) + cell_select_cost(width_j, width_k))

        return _pair_cell_ops(dec, mat, m, memo, ("cells", m, abs(theta), eps), cost)

    return _compile_stages("avgcost", spec, t, formula, count_only, _group_runs(spec, stage_ops))


def compile_block_step(
    spec: HamiltonianSpec, t: float, formula: int, *, count_only: bool = False, eps: float = 1e-3,
    memo: BlockMemo | None = None,
) -> CompiledStep:
    """One boxed block encoding per nonzero bisection cross block, qubitized for its stage's time.

    The op's one cell is the whole cross block (m = 1), so it lowers to the pair's exact
    diagonal composite. Equal cross blocks share their costs, and their box norms, through ``memo``.
    """
    dec = bisection_decompose(spec.n)
    width = phase_register_width(spec.n, t, eps)
    memo = BlockMemo() if memo is None else memo

    def stage_ops(mat, theta):
        def cost(block: np.ndarray, pair: IntervalPair, cell: Cell) -> int:
            # the box norms read no stage parameter, so every stage and size shares them
            vec1, box1, ratio = memo.get(block, ("box",), lambda: pair_box_norms(block, pair))
            if vec1 == 0.0:
                return 0
            half = len(pair.left)
            steps = qubitization_step_count(box1 * abs(theta), eps)
            return steps * (block_select_cost(half) + block_prep_cost(half, ratio, width))

        return _pair_cell_ops(dec, mat, 1, memo, ("block", abs(theta), eps, width), cost)

    return _compile_stages("block", spec, t, formula, count_only, _group_runs(spec, stage_ops))


# -- Hamming-weight-2 reduction gadget ----------------------------------------


def _binary_to_unary_pass(
    reg_start: int, reg_width: int, unary_start: int, tables: np.ndarray
) -> list[Gate | CompositeDiagonalPhase]:
    """XOR the unary marker of the register's value; self-inverse. Row u of tables marks value u."""
    reg = tuple(range(reg_start, reg_start + reg_width))
    gates: list[Gate | CompositeDiagonalPhase] = []
    for u, table in enumerate(tables):
        uq = unary_start + u
        gates.append(Gate("H", uq))
        gates.append(CompositeDiagonalPhase(reg + (uq,), table, 2 * reg_width + 1))
        gates.append(Gate("H", uq))
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
    gates = j_pass + k_pass
    for j, k, v in coeffs.nonzero_pairs():
        gates.append(Gate("CPHASE", unary_start + j - 1, unary_start + k - 1, -4.0 * v))
    gates.extend(k_pass)
    gates.extend(j_pass)
    return Circuit(total, tuple(gates))
