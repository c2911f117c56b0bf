"""Recursive index-set decompositions and amplification ratios.

Three ways of carving up the strict upper triangle of site pairs:

* bisection: every interval split in half, recursively to singletons, each
  split contributing the cross block (left x right);
* low-rank: gap-admissible far-field block pairs per layer plus a near-field
  and within-block remainder at the cutoff scale;
* subdivision: uniform cells over the cross block of one bisection pair.

A site interval, a box side and a cell side is a unit-step ``range``: a
pair's sides are 1-based site ranges, and boxes and cells are ranges of
shifted coordinates u in [-L,-1], v in [1,L] around the split point. Boxes
and cells are regions of their pair's cross block, 1-based in the block, and
their norms read only that block; a region's sites are left[rows] and
right[cols] of its 0-based slices.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .hamlib import HamiltonianSpec, IndexRegion, _inverse_power, norms


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class IntervalPair:
    """Two site intervals, left before right; each a nonempty unit-step range of 1-based sites."""

    layer: int
    block: int
    left: range
    right: range
    kind: str = "near"

    def __post_init__(self) -> None:
        for side in (self.left, self.right):
            if not isinstance(side, range) or not side or side.start < 1 or side.step != 1:
                raise ValidationError(f"bad interval {side!r}")
        if self.left.stop > self.right.start:
            raise ValidationError("interval pair must be disjoint and ordered")
        if self.kind not in ("far", "near", "within"):
            raise ValidationError(f"unknown pair kind {self.kind!r}")

    @property
    def gap(self) -> int:
        return self.right.start - self.left.stop

    def cross_region(self) -> IndexRegion:
        return IndexRegion(self.left, self.right)

    def is_contiguous_halves(self) -> bool:
        return self.gap == 0 and len(self.left) == len(self.right)


@dataclass(frozen=True)
class BisectionDecomposition:
    n: int
    pairs: tuple[IntervalPair, ...]


@dataclass(frozen=True)
class LowRankDecomposition:
    n: int
    cutoff_size: int
    far_field: tuple[IntervalPair, ...] = ()
    near_field: tuple[IntervalPair, ...] = ()
    within_blocks: tuple[range, ...] = ()

    @property
    def depth(self) -> int:
        """Layers down to the cutoff scale, log2(n / cutoff_size); the near pairs sit on the last."""
        return (self.n // self.cutoff_size).bit_length() - 1

    def remainder_regions(self) -> list[IndexRegion]:
        """The near-field cross blocks, then one strip (j, j+1..) per row j of each within block."""
        regions = [p.cross_region() for p in self.near_field]
        for block in self.within_blocks:
            regions += [IndexRegion(range(j, j + 1), range(j + 1, block.stop)) for j in block[:-1]]
        return regions


def bisection_decompose(n: int) -> BisectionDecomposition:
    """Recursive halving down to singleton intervals; exact cover of all pairs."""
    if not _is_pow2(n) or n < 2:
        raise DomainError(f"n must be a power of 2 with n >= 2, got {n}")
    pairs = []
    layers = n.bit_length() - 1
    for layer in range(1, layers + 1):
        size = n >> (layer - 1)
        half = size >> 1
        for block in range(1 << (layer - 1)):
            start = block * size + 1
            pairs.append(
                IntervalPair(
                    layer,
                    block,
                    range(start, start + half),
                    range(start + half, start + size),
                )
            )
    return BisectionDecomposition(n, tuple(pairs))


def lowrank_decompose(n: int, cutoff_size: int) -> LowRankDecomposition:
    """Far-field triples per layer; near/within remainders at the cutoff scale.

    cutoff_size up to n/2 is accepted; cutoff_size = n/2 is the degenerate
    single-layer instance with an empty far field.
    """
    if not _is_pow2(n) or n < 2:
        raise DomainError(f"n must be a power of 2 with n >= 2, got {n}")
    if not _is_pow2(cutoff_size) or not (1 <= cutoff_size <= n // 2):
        raise DomainError(f"cutoff must be a power of 2 in [1, {n // 2}], got {cutoff_size}")
    depth = LowRankDecomposition(n, cutoff_size).depth
    far = []
    for layer in range(2, depth + 1):
        d = n >> layer
        for b in range((1 << (layer - 1)) - 1):
            blocks = [range(1 + (2 * b + i) * d, 1 + (2 * b + i + 1) * d) for i in range(4)]
            far.append(IntervalPair(layer, b, blocks[0], blocks[2], "far"))
            far.append(IntervalPair(layer, b, blocks[0], blocks[3], "far"))
            far.append(IntervalPair(layer, b, blocks[1], blocks[3], "far"))
    near = []
    d = cutoff_size
    for b in range((1 << depth) - 1):
        near.append(
            IntervalPair(
                depth,
                b,
                range(1 + b * d, 1 + (b + 1) * d),
                range(1 + (b + 1) * d, 1 + (b + 2) * d),
                "near",
            )
        )
    within = tuple(range(1 + b * d, 1 + (b + 1) * d) for b in range(1 << depth))
    return LowRankDecomposition(n, cutoff_size, tuple(far), tuple(near), within)


@dataclass(frozen=True)
class Box:
    """One grouping cell of a box grid: shifted rows u (< 0) x columns v (> 0)."""

    mu: int | None
    nu: int | None
    u: range
    v: range

    @property
    def weight(self) -> int:
        return len(self.u) * len(self.v)


@functools.cache
def nested_boxes(half_size: int) -> tuple[Box, ...]:
    """Dyadic boxes over u in [-L,-1], v in [1,L], then the extremes as unit boxes (mu = nu = None)."""
    if not _is_pow2(half_size) or half_size < 2:
        raise DomainError(f"half size must be a power of 2 with >= 2, got {half_size}")
    levels = range(half_size.bit_length() - 1)
    boxes = []
    for mu in levels:
        for nu in levels:
            boxes.append(Box(mu, nu, range(1 - (2 << mu), 1 - (1 << mu)), range(1 << nu, 2 << nu)))
    boxes += [Box(None, None, range(-half_size, 1 - half_size), range(v, v + 1)) for v in range(1, half_size + 1)]
    boxes += [Box(None, None, range(u, u + 1), range(half_size, half_size + 1)) for u in range(1 - half_size, 0)]
    return tuple(boxes)


def shifted_region(u: range, v: range, half: int) -> IndexRegion:
    """The rows x cols of a half x half cross block that shifted u (< 0) and v (> 0) cover, 1-based.

    Row u is block row u + half + 1 and column v is block column v.
    """
    return IndexRegion(range(half + 1 + u.start, half + 1 + u.stop), v)


def boxes_for_pair(pair: IntervalPair) -> list[tuple[int, IndexRegion]]:
    """(weight, region) groupings of a contiguous equal-half pair, in its cross block."""
    if not pair.is_contiguous_halves():
        raise ValidationError("box grids apply to contiguous equal-half pairs")
    half = len(pair.left)
    if half == 1:
        return [(1, shifted_region(range(-1, 0), range(1, 2), 1))]
    return [(box.weight, shifted_region(box.u, box.v, half)) for box in nested_boxes(half)]


def subdivide(half_size: int, m: int) -> list[tuple[int, int, range, range]]:
    """(j, k, u, v) of every cell of m uniform cuts over a half of length half_size, row-major, shifted coords."""
    if not (1 <= m <= half_size):
        raise DomainError(f"m must be in [1, {half_size}], got {m}")
    l, js = [1 + i * half_size // m for i in range(m + 1)], range(1, m + 1)
    return [(j, k, range(1 - l[j], 1 - l[j - 1]), range(l[k - 1], l[k])) for j in js for k in js]


@dataclass(frozen=True)
class Cell:
    """One subdivision cell of a pair's cross block, in block coordinates."""

    j: int
    k: int
    region: IndexRegion


def cells_for_pair(pair: IntervalPair, m: int) -> list[Cell]:
    if not pair.is_contiguous_halves():
        raise ValidationError("subdivision applies to contiguous equal-half pairs")
    half = len(pair.left)
    return [Cell(j, k, shifted_region(u, v, half)) for j, k, u, v in subdivide(half, min(m, half))]


def pair_box_norms(block: np.ndarray, pair: IntervalPair) -> tuple[float, float, float]:
    """(vec1, box1, lambda_block) of the pair's cross block ``block``: its 1-norm, its box norm, and box1 / vec1.

    box1 sums weight x max |x| over ``boxes_for_pair``. lambda_block is at most
    2^alpha on a power law. An all-zero block gives (0, 0, 1) without reading its boxes.
    """
    vec1 = norms(block, IndexRegion(*(range(1, side + 1) for side in block.shape)))[0]
    if vec1 == 0.0:
        return 0.0, 0.0, 1.0
    box1 = 0.0
    for weight, region in boxes_for_pair(pair):  # in order: sum() compensates float sums from Python 3.12 on
        box1 += weight * norms(block, region)[1]
    return vec1, box1, box1 / vec1


def cell_norms(block: np.ndarray, cell: Cell) -> tuple[float, float]:
    """(cell_1, lambda_avg) of one cell of the cross block ``block``: its 1-norm and its amplification ratio.

    lambda_avg = width_j * width_k * max|beta| / cell_1 over the width_j x width_k
    cell; an all-zero cell gives ratio 1.
    """
    cell_1, peak = norms(block, cell.region)
    if cell_1 == 0.0:
        return 0.0, 1.0
    return cell_1, len(cell.region.rows) * len(cell.region.cols) * peak / cell_1


@dataclass(frozen=True)
class RatioRow:
    kind: str
    sigma: str
    sigma2: str
    layer: int
    block: int
    j: int | None
    k: int | None
    ratio: float


@dataclass(frozen=True)
class AmplificationReport:
    lambda_block: float
    lambda_avg: float | None
    table: tuple[RatioRow, ...]


def _is_exact_power_law(spec: HamiltonianSpec) -> bool:
    if spec.alpha is None or spec.d != 1:
        return False
    # the pairs at offset o = k - j are the o-th diagonal, each of magnitude 1/o^alpha
    for o in range(1, spec.n):
        expect = _inverse_power(float(o), spec.alpha)
        for mat in spec.two_local.values():
            if not np.all(np.abs(np.abs(np.diagonal(mat.data, o)) - expect) <= 1e-9 * expect):
                return False
    return True


def amplification_ratios(
    spec: HamiltonianSpec,
    decomposition: BisectionDecomposition,
    m: int | None = None,
) -> AmplificationReport:
    """Worst-case box-norm and cell-norm amplification over all pairs.

    All-zero regions have ratio 1 (no work needed there).
    """
    if spec.n != decomposition.n:
        raise ValidationError("spec and decomposition disagree on n")
    if m is not None and m < 1:
        raise DomainError(f"subdivision count must be >= 1, got {m}")
    rows = []
    lam_block = 1.0
    lam_avg = 1.0 if m is not None else None
    for (s1, s2), mat in spec.two_local.items():
        for pair in decomposition.pairs:
            block = mat.block(pair.cross_region())
            ratio = pair_box_norms(block, pair)[2]
            rows.append(RatioRow("block", s1.value, s2.value, pair.layer, pair.block, None, None, ratio))
            lam_block = max(lam_block, ratio)
            if m is None:
                continue
            for cell in cells_for_pair(pair, m):
                cratio = cell_norms(block, cell)[1]
                rows.append(RatioRow("avg", s1.value, s2.value, pair.layer, pair.block, cell.j, cell.k, cratio))
                lam_avg = max(lam_avg, cratio)
    # 2^alpha reads as infinite past the float range (alpha >= 1024), where no ratio exceeds it
    if _is_exact_power_law(spec) and lam_block > (2.0**spec.alpha if spec.alpha < 1024 else math.inf) + 1e-9:
        raise ValidationError(
            f"power-law amplification bound violated: {lam_block} > 2^{spec.alpha}"
        )
    return AmplificationReport(lam_block, lam_avg, tuple(rows))


def lattice_bisection_pairs(side: int, d: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-dimension recursive bisection of a d-dimensional side^d lattice.

    Splits the longest axis first and yields the two half site sets of every
    split, as 1-based site-index tuples in row-major site order.
    """
    if side < 1 or d < 1:
        raise DomainError("side and d must be positive")

    def site_id(coords: Sequence[int]) -> int:
        out = 0
        for c in coords:
            out = out * side + (c - 1)
        return out + 1

    def sites(box: Sequence[range]) -> tuple[int, ...]:
        return tuple(sorted(site_id(c) for c in itertools.product(*box)))

    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def split(box: list[range]) -> None:
        extents = [len(r) for r in box]
        if max(extents) == 1:
            return
        axis = extents.index(max(extents))
        mid = (extents[axis] + 1) // 2  # the left half takes the middle coordinate
        left = box.copy()
        left[axis] = box[axis][:mid]
        right = box.copy()
        right[axis] = box[axis][mid:]
        out.append((sites(left), sites(right)))
        split(left)
        split(right)

    split([range(1, side + 1)] * d)
    return out


# -- JSON serialization -------------------------------------------------------


def _inclusive(side: range) -> list[int]:
    """A range as its printed [first, last] bounds."""
    return [side.start, side.stop - 1]


def pairs_to_records(pairs: Iterable[IntervalPair]) -> list[dict]:
    return [
        {
            "layer": p.layer,
            "block": p.block,
            "left": _inclusive(p.left),
            "right": _inclusive(p.right),
            "kind": p.kind,
        }
        for p in pairs
    ]


def decomposition_to_json(dec: BisectionDecomposition | LowRankDecomposition) -> str:
    if isinstance(dec, BisectionDecomposition):
        records = pairs_to_records(dec.pairs)
    else:
        records = pairs_to_records(dec.far_field + dec.near_field)
        records += [
            {
                "layer": dec.depth,
                "block": i,
                "left": _inclusive(block),
                "right": _inclusive(block),
                "kind": "within",
            }
            for i, block in enumerate(dec.within_blocks)
        ]
    return json.dumps(records, indent=2, sort_keys=True)


def boxes_to_json(boxes: Iterable[Box]) -> str:
    records = [
        {
            "mu": b.mu,
            "nu": b.nu,
            "u": _inclusive(b.u),
            "v": _inclusive(b.v),
            "weight": b.weight,
        }
        for b in boxes
    ]
    return json.dumps(records, indent=2, sort_keys=True)


def cells_to_json(cells: Iterable[tuple[int, int, range, range]]) -> str:
    records = [
        {"j": j, "k": k, "u": _inclusive(u), "v": _inclusive(v)} for j, k, u, v in cells
    ]
    return json.dumps(records, indent=2, sort_keys=True)
