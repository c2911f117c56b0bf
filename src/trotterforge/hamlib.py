"""Two-local Hamiltonian coefficient data and the region norms of its pairs.

Coefficient matrices live on the strict upper triangle (1 <= j < k <= n).
``IndexRegion.of(values)`` is the one reader of a rectangle of a 2-D array,
1-based in that array: ``CoeffMatrix.block(region)`` reads the matrix in
sites, and a cross block is read in its own coordinates. ``norms`` reads
regions of an array in two kinds: ``restricted_1``, the 1-norm over a region,
and ``box_1``, the sum of weight x region max over explicit (weight, region)
groupings, so the geometry of the grouping stays in the decomp module.
``BlockMemo`` keeps what the compilers compute from a block, once per distinct block.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

# hashlib.blake2b is this builtin, and importing hashlib would also load OpenSSL (3.5 MiB of RSS)
from _blake2 import blake2b

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, IndexRangeError, ValidationError
from .errors import check_memory


class PauliKind(Enum):
    I = "i"
    X = "x"
    Y = "y"
    Z = "z"

    @classmethod
    def from_tag(cls, tag: str) -> "PauliKind":
        try:
            return cls(str(tag).lower())
        except ValueError:
            raise ValidationError(f"unknown Pauli tag {tag!r}") from None


PAULI_MATRICES: dict[PauliKind, np.ndarray] = {
    PauliKind.I: np.eye(2, dtype=complex),
    PauliKind.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliKind.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    PauliKind.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


# rows per slab of a coefficient matrix that is checked or filled a slab at a time
_SLAB = 64


def check_coeff_capacity(n: int, copies: int = 1) -> None:
    """Raise CapacityError if ``copies`` dense n x n float64 matrices exceed physical memory."""
    check_memory(copies * 8 * n * n, f"a {n} x {n} coefficient matrix")


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Strictly upper-triangular real coefficient matrix over site pairs."""

    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"site count must be >= 1, got {self.n}")
        a = np.asarray(self.data, dtype=float)
        if a.shape != (self.n, self.n):
            raise DimensionError(f"expected shape {(self.n, self.n)}, got {a.shape}")
        # a slab of rows at a time, so no n x n temporary is made; a non-finite entry is reported first
        lower = False
        for i in range(0, self.n, _SLAB):
            rows = a[i : i + _SLAB]
            if not np.isfinite(rows).all():
                raise ValidationError("coefficient entries must be finite")
            lower = lower or bool(np.tril(rows[:, : i + _SLAB], i).any())
        if lower:
            raise ValidationError("entries are defined only for j < k")
        if a.flags.writeable:
            a = a.copy()  # the caller may still hold the input
            a.setflags(write=False)
        object.__setattr__(self, "data", a)

    def __reduce__(self):
        # unpickling runs the constructor, so the matrix comes back read-only
        return (CoeffMatrix, (self.n, self.data))

    @classmethod
    def from_pairs(cls, n: int, pairs: np.ndarray, values: np.ndarray, *, held: int = 0) -> "CoeffMatrix":
        """Matrix with values[i] at the 1-based pair pairs[i], filled in one scatter.

        ``pairs`` and ``values`` are checked columns from ``_entry_columns``;
        ``held`` counts the n x n matrices the caller already holds.
        """
        # a and the scatter's index columns: tracemalloc peak 2.0 copies past the
        # entry arrays when every pair has an entry (3.5 with them), 1.1 for one entry
        check_coeff_capacity(n, copies=held + 2)
        j, k = pairs[:, 0], pairs[:, 1]
        bad = np.flatnonzero(~((1 <= j) & (j < k) & (k <= n)))
        if bad.size:
            j, k = pairs[bad[0]]
            raise IndexRangeError(f"pair ({int(j)},{int(k)}) outside 1 <= j < k <= {n}")
        a = np.zeros((n, n))
        a[j.astype(np.int64) - 1, k.astype(np.int64) - 1] = values
        a += 0.0  # in place, so a -0.0 entry is stored as 0.0 without a copy of the values
        a.setflags(write=False)  # handed over, so the constructor keeps it uncopied
        return cls(n, a)

    @classmethod
    def zeros(cls, n: int) -> "CoeffMatrix":
        a = np.zeros((n, n))
        a.setflags(write=False)
        return cls(n, a)

    def nonzero_pairs(self) -> Iterator[tuple[int, int, float]]:
        yield from ((j, k, v) for (j, k), v in nonzero_terms(self.data))

    def block(self, region: IndexRegion) -> np.ndarray:
        """The read-only view of the stored values over ``region``, in sites; an entry with j >= k reads 0."""
        return region.of(self.data)


_T = TypeVar("_T")


class BlockMemo:
    """Results computed from coefficient blocks, one per distinct block and parameters.

    A block is keyed on its dtype, its shape and a 32-byte BLAKE2b digest of
    its C-order bytes, so equal blocks share their results (a power law is
    translation invariant: every cross block of one shape and gap holds the
    same bytes, at any n) and a block with other bytes, -0.0 for 0.0 included,
    never reuses them, short of a 256-bit digest collision. A key holds no
    block bytes. Whoever creates the memo sets its lifetime: one compile, or
    one cost report.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[str, tuple[int, ...], bytes], dict[tuple, object]] = {}

    @staticmethod
    def key(block: np.ndarray) -> tuple[str, tuple[int, ...], bytes]:
        """(dtype, shape, digest of the C-order bytes) of ``block``."""
        return block.dtype.str, block.shape, blake2b(np.ascontiguousarray(block), digest_size=32).digest()

    def get(self, block: np.ndarray, params: tuple, compute: Callable[[], _T]) -> _T:
        """The result for ``block`` and ``params`` (a tag naming the result, then its inputs),
        from ``compute()`` the first time."""
        results = self._blocks.setdefault(self.key(block), {})
        if params not in results:
            results[params] = compute()
        return results[params]


@dataclass(frozen=True)
class IndexRegion:
    """The rectangle rows x cols of 1-based index pairs; both sides nonempty unit-step ranges."""

    rows: range
    cols: range

    def __post_init__(self) -> None:
        for side in (self.rows, self.cols):
            if not isinstance(side, range) or not side or side.step != 1:
                raise ValidationError(f"region sides must be nonempty unit-step ranges, got {side!r}")

    def slices(self) -> tuple[slice, slice]:
        """The 0-based array slices of the rows and the columns."""
        return slice(self.rows.start - 1, self.rows.stop - 1), slice(self.cols.start - 1, self.cols.stop - 1)

    def of(self, values: np.ndarray) -> np.ndarray:
        """The view of the 2-D array ``values`` over this region; IndexRangeError if it leaves the array."""
        (rows, cols), (h, w) = self.slices(), values.shape
        if rows.start < 0 or cols.start < 0 or rows.stop > h or cols.stop > w:
            extent = f"1..{h}" if h == w else f"1..{h} x 1..{w}"
            raise IndexRangeError(f"region {self.rows} x {self.cols} outside the index range {extent}")
        return values[rows, cols]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Every (j, k) of the region, row-major."""
        yield from itertools.product(self.rows, self.cols)


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """n-site, d-dimensional 2-local system in the Pauli basis.

    alpha, when set, asserts the exact power law |beta_{j,k}| = 1/dist(j,k)^alpha
    for every stored 2-local entry.
    """

    n: int
    d: int
    two_local: Mapping[tuple[PauliKind, PauliKind], CoeffMatrix]
    on_site: Mapping[PauliKind, np.ndarray]
    identity: float = 0.0
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"site count must be >= 1, got {self.n}")
        if self.d not in (1, 2, 3):
            raise DimensionError(f"spatial dimension must be 1..3, got {self.d}")
        side = round(self.n ** (1.0 / self.d))
        if side**self.d != self.n:
            raise DimensionError(f"n={self.n} is not a perfect d={self.d} power")
        if not math.isfinite(self.identity):
            raise ValidationError("identity offset must be finite")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValidationError("alpha must be finite")
        # the one term order: groups and on-site kinds by tag, whatever order they came in
        two = {}
        for (s1, s2), mat in sorted(self.two_local.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)):
            if PauliKind.I in (s1, s2):
                raise ValidationError("identity cannot carry a 2-local coefficient matrix")
            if mat.n != self.n:
                raise DimensionError("coefficient matrix size differs from spec n")
            two[(s1, s2)] = mat
        object.__setattr__(self, "two_local", two)
        ons = {}
        for s, vec in sorted(self.on_site.items(), key=lambda kv: kv[0].value):
            if s == PauliKind.I:
                raise ValidationError("identity offset belongs in the identity field")
            v = np.array(vec, dtype=float)
            if v.shape != (self.n,):
                raise DimensionError("on-site vector length differs from spec n")
            if not np.all(np.isfinite(v)):
                raise ValidationError("on-site coefficients must be finite")
            v.setflags(write=False)
            ons[s] = v
        object.__setattr__(self, "on_site", ons)

    def __reduce__(self):
        # unpickling runs the constructor, so the arrays come back read-only
        return (
            HamiltonianSpec,
            (self.n, self.d, self.two_local, self.on_site, self.identity, self.alpha),
        )

    @property
    def side(self) -> int:
        return round(self.n ** (1.0 / self.d))

    def term_groups(self) -> list[tuple[tuple[PauliKind, ...], np.ndarray]]:
        """The one term order: (kinds, coefficients) of the 2-local groups, then of the on-site kinds.

        Both run in tag order, as the constructor inserts them. np.nonzero of a
        group's n x n matrix or length-n vector lists its terms' 0-based sites
        in order: (j, k) row-major, or by site.
        """
        two = [(pair, mat.data) for pair, mat in self.two_local.items()]
        return two + [((s,), vec) for s, vec in self.on_site.items()]


def nonzero_terms(coeffs: np.ndarray) -> list[tuple[list[int], float]]:
    """(1-based sites, coefficient) of each nonzero term of one term group, in order."""
    sites = np.nonzero(coeffs)
    return list(zip((np.transpose(sites) + 1).tolist(), coeffs[sites].tolist()))


# -- Pauli terms as bit masks ---------------------------------------------------

# qubit q sits on bit q-1 of both masks, as in circuit's basis index
_X_BIT = {PauliKind.X: 1, PauliKind.Y: 1, PauliKind.Z: 0}
_Z_BIT = {PauliKind.X: 0, PauliKind.Y: 1, PauliKind.Z: 1}
# masks are int64; bit 63 stays clear because np.bitwise_count counts |value|
_MASK_SITE_CAP = 63


@dataclass(frozen=True, eq=False)
class PauliTable:
    """Read-only Pauli terms, one row each: the string's x and z bit masks and its coefficient.

    A row is c * i^{|x & z|} X^x Z^z, so P|b> = i^{|x & z|} (-1)^{|b & z|} |b ^ x>.
    """

    x: np.ndarray
    z: np.ndarray
    coeff: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("x", np.int64), ("z", np.int64), ("coeff", float)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if self.x.ndim != 1 or not self.x.shape == self.z.shape == self.coeff.shape:
            raise ValidationError("pauli table columns need one 1-D length")

    def __reduce__(self):
        # unpickling runs the constructor, so the columns come back read-only
        return (PauliTable, (self.x, self.z, self.coeff))


def pauli_table(spec: HamiltonianSpec) -> PauliTable:
    """Every nonzero term as a mask row, in ``spec.term_groups()`` order.

    The identity offset is not a row.
    """
    if spec.n > _MASK_SITE_CAP:
        raise CapacityError(f"pauli tables hold at most {_MASK_SITE_CAP} sites, got {spec.n}")
    xs, zs, cs = [], [], []
    for kinds, coeffs in spec.term_groups():
        sites = np.nonzero(coeffs)
        # the sites of one term differ, so adding their bits is or-ing them
        xs.append(sum(_X_BIT[s] << q for s, q in zip(kinds, sites)))
        zs.append(sum(_Z_BIT[s] << q for s, q in zip(kinds, sites)))
        cs.append(coeffs[sites])
    if not cs:
        return PauliTable((), (), ())
    return PauliTable(np.concatenate(xs), np.concatenate(zs), np.concatenate(cs))


SIGN_RULES = ("all-positive", "alternating", "seeded-random")


def _inverse_power(dist: float, alpha: float) -> float:
    """1 / dist^alpha; where dist^alpha leaves the float range, dist^-alpha, subnormal or 0."""
    try:
        return 1.0 / dist**alpha
    except OverflowError:
        return dist**-alpha


def build_power_law(
    n: int,
    d: int,
    alpha: float,
    pauli_pair: tuple[PauliKind, PauliKind] = (PauliKind.Z, PauliKind.Z),
    sign_rule: str = "all-positive",
    seed: int = 0,
) -> HamiltonianSpec:
    """Spec with |beta_{j,k}| = 1/dist(j,k)^alpha on every pair, exact before rounding.

    The matrix is filled 64 rows at a time, so the build holds it and one slab of temporaries.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if alpha <= 0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    if sign_rule not in SIGN_RULES:
        raise ValidationError(f"unknown sign rule {sign_rule!r}")
    if sign_rule == "seeded-random" and seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    probe = HamiltonianSpec(n, d, {}, {})  # validates the lattice shape
    check_coeff_capacity(n, copies=2)  # tracemalloc peak: 1.35 copies at n=1024, 1.13 at 2048, 1.08 at 4096
    side = probe.side
    # A pair's offset sum_a |delta_a| side^a (k - j at d = 1) indexes a table of n magnitudes.
    # Base-side digits of i are both site i's coordinates and offset i's |delta_a|.
    axes = [np.arange(n) // side**a % side for a in range(d)]
    d2 = sum(axis**2 for axis in axes)
    # Scalar libm pow per offset: np.power can differ by one ulp. Offset 0 is no pair.
    table = np.array([0.0] + [_inverse_power(math.sqrt(int(x)), alpha) for x in d2[1:]])
    rng = np.random.default_rng(seed) if sign_rule == "seeded-random" else None
    a = np.zeros((n, n))
    # A slab of rows js from j0 on, over columns ks from j0 on; a pair is an entry right of the diagonal.
    for j0 in range(0, n, _SLAB):
        ks = np.arange(j0, n)
        js = ks[:_SLAB, None]
        upper = ks > js
        offset = sum(np.abs(axis[js] - axis[ks]) * side**a for a, axis in enumerate(axes))
        if sign_rule == "alternating":
            signs = np.where((js + ks) % 2, -1.0, 1.0)
        elif sign_rule == "seeded-random":
            # bits drawn slab by slab in (j, k) order are the stream of one draw per pair
            signs = np.ones(upper.shape)
            signs[upper] = np.where(rng.integers(2, size=np.count_nonzero(upper)), 1.0, -1.0)
        else:
            signs = 1.0
        np.copyto(a[j0 : j0 + _SLAB, j0:], signs * table[offset], where=upper)
    a.setflags(write=False)  # handed over, so the constructor keeps it uncopied
    return HamiltonianSpec(n, d, {pauli_pair: CoeffMatrix(n, a)}, {}, alpha=alpha)


def fixed_point_round(value: float, width: int) -> float:
    """Round to width fractional bits, ties to even; deterministic."""
    if width < 0:
        raise DomainError(f"width must be >= 0, got {width}")
    scaled = value * (1 << width)
    floor = math.floor(scaled)
    frac = scaled - floor
    if frac > 0.5 or (frac == 0.5 and floor % 2 != 0):
        floor += 1
    return floor / (1 << width)


def coeff_oracle(
    spec: HamiltonianSpec,
    pauli_pair: tuple[PauliKind, PauliKind],
    j: int,
    k: int,
    width: int,
) -> float:
    """Fixed-point coefficient lookup; two calls agree bit-exactly."""
    if not (1 <= j < k <= spec.n):
        raise IndexRangeError(f"pair ({j},{k}) outside 1 <= j < k <= {spec.n}")
    mat = spec.two_local.get(pauli_pair)
    value = 0.0 if mat is None else float(mat.block(IndexRegion(range(j, j + 1), range(k, k + 1)))[0, 0])
    return fixed_point_round(value, width)


NORM_KINDS = ("restricted_1", "box_1")


def norms(
    values: np.ndarray,
    kind: str,
    *,
    region: IndexRegion | None = None,
    boxes: Iterable[tuple[int, IndexRegion]] | None = None,
) -> float:
    """restricted_1: the 1-norm of ``values`` over ``region``; box_1: the sum of weight x max over ``boxes``."""
    if kind not in NORM_KINDS:
        raise ValidationError(f"unknown norm kind {kind!r}")
    if kind == "restricted_1":
        if region is None:
            raise ValidationError("restricted_1 needs a region")
        return float(np.cumsum(np.abs(region.of(values)))[-1])  # accumulates in (j, k) order
    if boxes is None:
        raise ValidationError("box_1 needs (weight, region) boxes")
    total = 0.0
    for weight, reg in boxes:
        total += weight * float(np.abs(reg.of(values)).max())
    return total


# -- JSON serialization -------------------------------------------------------

_SPEC_FIELDS = {"n", "d", "alpha", "terms", "onsite", "identity"}
_TERM_FIELDS = {"sigma", "sigma2", "entries"}


def spec_to_dict(spec: HamiltonianSpec) -> dict:
    terms, onsite = [], {}
    for kinds, coeffs in spec.term_groups():
        if len(kinds) == 1:
            onsite[kinds[0].value] = coeffs.tolist()  # the whole vector, zeros included
        else:
            entries = [[j, k, v] for (j, k), v in nonzero_terms(coeffs)]
            terms.append({"sigma": kinds[0].value, "sigma2": kinds[1].value, "entries": entries})
    return {
        "n": spec.n,
        "d": spec.d,
        "alpha": spec.alpha,
        "terms": terms,
        "onsite": onsite,
        "identity": spec.identity,
    }


def spec_to_json(spec: HamiltonianSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def _entry_columns(entries) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, values) of one group's [j, k, value] entries, as (m, 2) and (m,) float arrays.

    Raises ValueError unless the entries form an (m, 3) array whose indices
    are integers below 2^53 (which a float holds exactly), with no repeated
    pair; a repeat is reported at its second occurrence in file order.
    """
    rows = np.array(entries, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"expected [j, k, value] entries, got an array of shape {rows.shape}")
    pairs = rows[:, :2]
    inexact = np.flatnonzero(~((np.abs(pairs) < 2.0**53) & (pairs == np.floor(pairs))).all(axis=1))
    if inexact.size:
        j, k = entries[inexact[0]][:2]  # as written, since the float may have rounded it
        raise ValueError(f"pair ({j}, {k}) has an index that is not an integer below 2^53")
    # a stable sort keeps equal pairs in file order, so every repeat after the first is a second occurrence
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ordered = pairs[order]
    repeats = order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]
    if repeats.size:
        j, k = pairs[repeats.min()]
        raise ValueError(f"pair ({int(j)}, {int(k)}) appears twice")
    return pairs, rows[:, 2]


def _parse_field(field: str, parse, value):
    """parse(value), with a malformed value reported as a ValidationError naming the field."""
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"spec field {field} is malformed: {exc}") from None


def spec_from_dict(doc: Mapping) -> HamiltonianSpec:
    if not isinstance(doc, Mapping):
        raise ValidationError("spec document must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    if "n" not in doc or "d" not in doc:
        raise ValidationError("spec document needs at least n and d")
    n, d = _parse_field("n", int, doc["n"]), _parse_field("d", int, doc["d"])
    HamiltonianSpec(n, d, {}, {})  # validates the lattice shape before any n x n allocation
    two_local: dict[tuple[PauliKind, PauliKind], CoeffMatrix] = {}
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        raise ValidationError("spec field terms must be a JSON array")
    for term in terms:
        if not isinstance(term, Mapping):
            raise ValidationError("each term must be a JSON object")
        bad = set(term) - _TERM_FIELDS
        if bad:
            raise ValidationError(f"unknown term fields: {sorted(bad)}")
        missing = {"sigma", "sigma2"} - set(term)
        if missing:
            raise ValidationError(f"term lacks fields: {sorted(missing)}")
        s1 = PauliKind.from_tag(term["sigma"])
        s2 = PauliKind.from_tag(term["sigma2"])
        group = f"({s1.value},{s2.value})"
        pairs, values = _parse_field(f"entries of {group}", _entry_columns, term.get("entries", []))
        if (s1, s2) in two_local:
            raise ValidationError(f"duplicate term group {group}")
        two_local[(s1, s2)] = CoeffMatrix.from_pairs(n, pairs, values, held=len(two_local))
    onsite = doc.get("onsite", {})
    if not isinstance(onsite, Mapping):
        raise ValidationError("spec field onsite must be a JSON object")
    on_site = {
        PauliKind.from_tag(tag): _parse_field(f"onsite.{tag}", lambda vec: np.array(vec, dtype=float), vec)
        for tag, vec in onsite.items()
    }
    alpha = doc.get("alpha")
    return HamiltonianSpec(
        n,
        d,
        two_local,
        on_site,
        identity=_parse_field("identity", float, doc.get("identity", 0.0)),
        alpha=None if alpha is None else _parse_field("alpha", float, alpha),
    )


def spec_from_json(text: str) -> HamiltonianSpec:
    """Parse a spec document; a caller that passes its only reference to ``text`` lets it go once parsed.

    The cyclic collector is paused meanwhile: a JSON document holds no cycles,
    and a large one would trigger full collections over every list it builds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from None
        del text
        return spec_from_dict(doc)
    finally:
        if enabled:
            gc.enable()
