"""Recursive index-set decompositions and amplification ratios.

Three ways of carving up the strict upper triangle of site pairs:

* bisection: every interval split in half, recursively to singletons, each
  split contributing the cross block (left x right);
* low-rank: gap-admissible far-field block pairs per layer plus a near-field
  and within-block remainder at the cutoff scale;
* subdivision: uniform cells over the cross block of one bisection pair.

The box grid groups a cross block into dyadic boxes after shifting the pair
to coordinates u in [-L,-1], v in [1,L] around the split point. Boxes and
cells are regions of their pair's cross block, 1-based in the block, and
their norms read only that block; a region's sites are left.sites()[rows]
and right.sites()[cols] of its 0-based slices.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .hamlib import HamiltonianSpec, IndexRegion, norms


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValidationError(f"bad interval [{self.lo},{self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def sites(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class IntervalPair:
    layer: int
    block: int
    left: Interval
    right: Interval
    kind: str = "near"

    def __post_init__(self) -> None:
        if self.left.hi >= self.right.lo:
            raise ValidationError("interval pair must be disjoint and ordered")
        if self.kind not in ("far", "near", "within"):
            raise ValidationError(f"unknown pair kind {self.kind!r}")

    @property
    def gap(self) -> int:
        return self.right.lo - self.left.hi - 1

    def cross_region(self) -> IndexRegion:
        return IndexRegion(self.left.sites(), self.right.sites())

    def is_contiguous_halves(self) -> bool:
        return self.gap == 0 and self.left.length == self.right.length


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
    within_blocks: tuple[Interval, ...] = ()

    @property
    def depth(self) -> int:
        """Layers down to the cutoff scale, log2(n / cutoff_size); the near pairs sit on the last."""
        return (self.n // self.cutoff_size).bit_length() - 1

    def remainder_regions(self) -> list[IndexRegion]:
        """The near-field cross blocks, then one strip (j, j+1..hi) per row of each within block."""
        regions = [p.cross_region() for p in self.near_field]
        for block in self.within_blocks:
            regions += [IndexRegion(range(j, j + 1), range(j + 1, block.hi + 1)) for j in range(block.lo, block.hi)]
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
                    Interval(start, start + half - 1),
                    Interval(start + half, start + size - 1),
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
            blocks = [Interval(1 + (2 * b + i) * d, (2 * b + i + 1) * d) for i in range(4)]
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
                Interval(1 + b * d, (b + 1) * d),
                Interval(1 + (b + 1) * d, (b + 2) * d),
                "near",
            )
        )
    within = tuple(Interval(1 + b * d, (b + 1) * d) for b in range(1 << depth))
    return LowRankDecomposition(n, cutoff_size, tuple(far), tuple(near), within)


@dataclass(frozen=True)
class Box:
    """One grouping cell of a box grid, in shifted (u, v) coordinates."""

    mu: int | None
    nu: int | None
    u_lo: int
    u_hi: int
    v_lo: int
    v_hi: int

    @property
    def weight(self) -> int:
        return (self.u_hi - self.u_lo + 1) * (self.v_hi - self.v_lo + 1)


@dataclass(frozen=True)
class BoxGrid:
    half_size: int
    boxes: tuple[Box, ...]
    boundary: tuple[Box, ...]

    def all_boxes(self) -> tuple[Box, ...]:
        return self.boxes + self.boundary


@functools.cache
def nested_boxes(half_size: int) -> BoxGrid:
    """Dyadic boxes over u in [-L,-1], v in [1,L]; extremes become unit boxes."""
    if not _is_pow2(half_size) or half_size < 2:
        raise DomainError(f"half size must be a power of 2 with >= 2, got {half_size}")
    levels = half_size.bit_length() - 1
    boxes = []
    for mu in range(levels):
        for nu in range(levels):
            boxes.append(Box(mu, nu, -(1 << (mu + 1)) + 1, -(1 << mu), 1 << nu, (1 << (nu + 1)) - 1))
    boundary = [Box(None, None, -half_size, -half_size, v, v) for v in range(1, half_size + 1)]
    boundary += [Box(None, None, u, u, half_size, half_size) for u in range(-half_size + 1, 0)]
    return BoxGrid(half_size, tuple(boxes), tuple(boundary))


def shifted_region(u: tuple[int, int], v: tuple[int, int], half: int) -> IndexRegion:
    """The rows x cols of a half x half cross block that shifted u (< 0) and v (> 0) cover, 1-based.

    u and v are inclusive (lo, hi) ranges: row u is block row u + half + 1 and
    column v is block column v.
    """
    return IndexRegion(range(half + 1 + u[0], half + 2 + u[1]), range(v[0], v[1] + 1))


def boxes_for_pair(pair: IntervalPair) -> list[tuple[int, IndexRegion]]:
    """(weight, region) groupings of a contiguous equal-half pair, in its cross block."""
    if not pair.is_contiguous_halves():
        raise ValidationError("box grids apply to contiguous equal-half pairs")
    half = pair.left.length
    if half == 1:
        return [(1, shifted_region((-1, -1), (1, 1), 1))]
    grid = nested_boxes(half).all_boxes()
    return [(box.weight, shifted_region((box.u_lo, box.u_hi), (box.v_lo, box.v_hi), half)) for box in grid]


@dataclass(frozen=True)
class Subdivision:
    """Uniform cut points over a half of length half_size, m subintervals."""

    half_size: int
    m: int
    cut_points: tuple[int, ...]

    def cell_bounds(self) -> list[tuple[int, int, tuple[int, int], tuple[int, int]]]:
        """(j, k, u-range, v-range) for every cell, row-major, shifted inclusive coords."""
        l, js = self.cut_points, range(1, self.m + 1)
        return [(j, k, (-l[j] + 1, -l[j - 1]), (l[k - 1], l[k] - 1)) for j in js for k in js]


def subdivide(half_size: int, m: int) -> Subdivision:
    if not (1 <= m <= half_size):
        raise DomainError(f"m must be in [1, {half_size}], got {m}")
    cuts = tuple(1 + ((j - 1) * half_size) // m for j in range(1, m + 2))
    return Subdivision(half_size, m, cuts)


@dataclass(frozen=True)
class Cell:
    """One subdivision cell of a pair's cross block, in block coordinates."""

    j: int
    k: int
    region: IndexRegion


def cells_for_pair(pair: IntervalPair, m: int) -> list[Cell]:
    if not pair.is_contiguous_halves():
        raise ValidationError("subdivision applies to contiguous equal-half pairs")
    half = pair.left.length
    cells = subdivide(half, min(m, half)).cell_bounds()
    return [Cell(j, k, shifted_region(u, v, half)) for j, k, u, v in cells]


def pair_box_norms(block: np.ndarray, pair: IntervalPair) -> tuple[float, float, float]:
    """(vec1, box1, lambda_block) of the pair's cross block ``block``: its 1-norm, its box norm, and box1 / vec1.

    lambda_block is at most 2^alpha on a power law. An all-zero block gives
    (0, 0, 1) without reading its boxes.
    """
    vec1 = norms(block, "restricted_1", region=IndexRegion(*(range(1, side + 1) for side in block.shape)))
    if vec1 == 0.0:
        return 0.0, 0.0, 1.0
    box1 = norms(block, "box_1", boxes=boxes_for_pair(pair))
    return vec1, box1, box1 / vec1


def cell_norms(block: np.ndarray, cell: Cell) -> tuple[np.ndarray, float, float]:
    """(sub, cell_1, lambda_avg) of one cell of the cross block ``block``, ``sub`` a view of it.

    lambda_avg = width_j * width_k * max|beta| / cell_1 over the width_j x width_k
    cell; an all-zero cell gives ratio 1.
    """
    sub = cell.region.of(block)
    cell_1 = float(np.abs(sub).sum())
    if cell_1 == 0.0:
        return sub, 0.0, 1.0
    return sub, cell_1, sub.size * float(np.abs(sub).max()) / cell_1


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
    js, ks = np.triu_indices(spec.n, 1)
    expect = 1.0 / (ks - js).astype(float) ** spec.alpha
    return all(
        np.all(np.abs(np.abs(mat.data[js, ks]) - expect) <= 1e-9 * expect) for mat in spec.two_local.values()
    )


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
                cratio = cell_norms(block, cell)[2]
                rows.append(RatioRow("avg", s1.value, s2.value, pair.layer, pair.block, cell.j, cell.k, cratio))
                lam_avg = max(lam_avg, cratio)
    if _is_exact_power_law(spec) and lam_block > 2.0**spec.alpha + 1e-9:
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

    def sites(box: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        return tuple(sorted(site_id(c) for c in itertools.product(*(range(lo, hi + 1) for lo, hi in box))))

    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def split(box: list[tuple[int, int]]) -> None:
        extents = [hi - lo + 1 for lo, hi in box]
        if max(extents) == 1:
            return
        axis = extents.index(max(extents))
        lo, hi = box[axis]
        mid = (lo + hi) // 2
        left = box.copy()
        left[axis] = (lo, mid)
        right = box.copy()
        right[axis] = (mid + 1, hi)
        out.append((sites(left), sites(right)))
        split(left)
        split(right)

    split([(1, side)] * d)
    return out


# -- JSON serialization -------------------------------------------------------


def pairs_to_records(pairs: Iterable[IntervalPair]) -> list[dict]:
    return [
        {
            "layer": p.layer,
            "block": p.block,
            "left": [p.left.lo, p.left.hi],
            "right": [p.right.lo, p.right.hi],
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
                "left": [block.lo, block.hi],
                "right": [block.lo, block.hi],
                "kind": "within",
            }
            for i, block in enumerate(dec.within_blocks)
        ]
    return json.dumps(records, indent=2, sort_keys=True)


def boxgrid_to_json(grid: BoxGrid) -> str:
    records = [
        {
            "mu": b.mu,
            "nu": b.nu,
            "u": [b.u_lo, b.u_hi],
            "v": [b.v_lo, b.v_hi],
            "weight": b.weight,
        }
        for b in grid.all_boxes()
    ]
    return json.dumps(records, indent=2, sort_keys=True)


def subdivision_to_json(sub: Subdivision) -> str:
    records = [
        {"j": j, "k": k, "u": list(u), "v": list(v)} for j, k, u, v in sub.cell_bounds()
    ]
    return json.dumps(records, indent=2, sort_keys=True)
