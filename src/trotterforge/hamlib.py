"""Two-local Hamiltonian coefficient data and the region norms of its pairs.

Coefficient matrices live on the strict upper triangle (1 <= j < k <= n).
``IndexRegion.of(values)`` is the one reader of a rectangle of a 2-D array,
1-based in that array: ``CoeffMatrix.block(region)`` reads the matrix in
sites, and a cross block is read in its own coordinates. ``norms`` reads
one region of an array into its 1-norm, summed in (j, k) order, and its max
|x|, with no copy of the region; what a region is (a box, a cell, a whole
block) stays in the decomp module.
``BlockMemo`` keeps what the compilers compute from a block, once per distinct block.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, TypeVar

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
        # unpickling runs the constructor, so the matrix comes back read-only;
        # a Toeplitz view travels as its 2n - 1 generating entries
        v = _toeplitz_vector(self.data)
        return (CoeffMatrix, (self.n, self.data)) if v is None else (_toeplitz_coeffs, (self.n, v))

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

    def nonzero_pairs(self) -> Iterator[tuple[int, int, float]]:
        yield from ((j, k, v) for (j, k), v in nonzero_terms(self.data))

    def block(self, region: IndexRegion) -> np.ndarray:
        """The read-only view of the stored values over ``region``, in sites; an entry with j >= k reads 0."""
        return region.of(self.data)


def _toeplitz_vector(a: np.ndarray) -> np.ndarray | None:
    """The h + w - 1 entries that generate the nonempty h x w array ``a`` if its strides are (-s, s), else None.

    Such an array reads entry (i, j) at offset (j - i) s, so it is Toeplitz; the
    vector is its first column bottom up, then the rest of its first row.
    """
    if a.ndim != 2 or not a.size or a.strides[0] != -a.strides[1]:
        return None
    return np.concatenate((a[::-1, 0], a[0, 1:]))


def _toeplitz_coeffs(n: int, v: np.ndarray) -> CoeffMatrix:
    """The matrix whose row j is v[n - 1 - j : 2n - 1 - j]: a read-only Toeplitz view of the 2n - 1 entries v, no copy."""
    v.setflags(write=False)
    # window i is v[i : i + n], so reversed, row j is window n - 1 - j
    return CoeffMatrix(n, np.lib.stride_tricks.sliding_window_view(v, n)[::-1])


_T = TypeVar("_T")


class BlockMemo:
    """Results computed from coefficient blocks, one per distinct block and parameters.

    A block is keyed on its dtype, its shape and a 32-byte BLAKE2b digest of
    its C-order bytes, so equal blocks share their results (a power law is
    translation invariant: every cross block of one shape and gap holds the
    same bytes, at any n) and a block with other bytes, -0.0 for 0.0 included,
    never reuses them, short of a 256-bit digest collision. A Toeplitz view
    (strides (-s, s)) is digested from its h + w - 1 generating entries
    instead, under a BLAKE2b personalization tag that other blocks never use,
    so it is neither copied nor hashed whole. A key holds no block bytes.
    Whoever creates the memo sets its lifetime: one compile, or one cost report.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[str, tuple[int, ...], bytes], dict[tuple, object]] = {}

    @staticmethod
    def key(block: np.ndarray) -> tuple[str, tuple[int, ...], bytes]:
        """(dtype, shape, digest) of ``block``: of its generating entries if it is a Toeplitz view, else of its C-order bytes."""
        v = _toeplitz_vector(block)
        if v is None:
            digest = blake2b(np.ascontiguousarray(block), digest_size=32)
        else:
            digest = blake2b(v, digest_size=32, person=b"toeplitz")
        return block.dtype.str, block.shape, digest.digest()

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

    alpha is the declared power-law exponent, and nothing checks it against the
    entries: ``build_power_law`` sets it, a spec file's alpha is read as given,
    avgcost's default m reads it, and ``amplification_ratios`` applies its 2^alpha
    bound only where every pair has |beta_{j,k}| = 1/dist(j,k)^alpha.
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

    A 1D chain with all-positive or alternating signs has beta_{j,k} = v[n - 1 + k - j]
    for one read-only vector v of 2n - 1 floats, and its matrix is the n x n Toeplitz
    view of v, with no n x n copy. Any other matrix is filled 64 rows at a time, so the
    build holds it and one slab of temporaries.
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
    if d == 1 and sign_rule != "seeded-random":
        # v[n - 1 + o] is the entry at offset o = k - j: sign times magnitude for o >= 1, else 0
        v = np.zeros(2 * n - 1)
        v[n:] = table[1:] if sign_rule == "all-positive" else np.where(np.arange(1, n) % 2, -1.0, 1.0) * table[1:]
        return HamiltonianSpec(n, d, {pauli_pair: _toeplitz_coeffs(n, v)}, {}, alpha=alpha)
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


def norms(values: np.ndarray, region: IndexRegion) -> tuple[float, float]:
    """(1-norm, max |x|) of the 2-D array ``values`` over ``region``, with no copy of the region.

    A slab of rows at a time, the running total first, so |x| is added in (j, k) order.
    """
    rows = region.of(values)
    total = peak = 0.0
    for i in range(0, rows.shape[0], _SLAB):
        slab = rows[i : i + _SLAB]
        run = np.empty(1 + slab.size)
        run[0] = total
        np.abs(slab, out=run[1:].reshape(slab.shape))
        peak = max(peak, float(run[1:].max()))
        total = float(np.cumsum(run, out=run)[-1])
    return total, peak


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


def _numeric(value):
    """``value``, unless it or an item of it as a list is a bool or a string (float() and numpy take both)."""
    bad = next((v for v in (value if isinstance(value, list) else [value]) if isinstance(v, (bool, str))), None)
    if bad is not None:
        raise ValueError(f"expected a number, got {bad!r}")
    return value


def _entry_columns(entries) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, values) of one group's [j, k, value] entries, as (m, 2) and (m,) float arrays.

    Raises ValueError unless the entries form an (m, 3) array whose indices
    are integers below 2^53 (which a float holds exactly), with no repeated
    pair; a repeat is reported at its second occurrence in file order. No row,
    as a list or a tuple, may hold a bool or a string either.
    """
    rows = None
    # a JSON list of three-element lists is read in three C-level passes and one fromiter;
    # anything else, or a value fromiter refuses, goes through np.array, which names the fault
    if type(entries) is list and set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}:
        if not set(map(type, itertools.chain.from_iterable(entries))).isdisjoint((bool, str)):
            _numeric(list(itertools.chain.from_iterable(entries)))  # raises, naming the first such value
        try:
            rows = np.fromiter(itertools.chain.from_iterable(entries), float, count=3 * len(entries)).reshape(-1, 3)
        except (TypeError, ValueError, OverflowError):
            pass
    if rows is None:
        if isinstance(entries, (list, tuple)):  # np.array would read True as 1.0 and "0.5" as 0.5
            _numeric([v for row in entries if isinstance(row, (list, tuple)) for v in row])
        rows = np.array(entries, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"expected [j, k, value] entries, got an array of shape {rows.shape}")
    pairs = rows[:, :2]
    exact = (np.abs(pairs) < 2.0**53) & (pairs == np.floor(pairs))
    if not exact.all():
        j, k = entries[np.flatnonzero(~exact.all(axis=1))[0]][:2]  # as written, since the float may have rounded it
        raise ValueError(f"pair ({j}, {k}) has an index that is not an integer below 2^53")
    # equal pairs give equal keys j 2^32 + k, so if no two sorted keys are equal (a few ms) no pair repeats;
    # indices in [0, 2^21) give distinct exact keys, so only a repeat, or a collision of indices past that,
    # takes the lexsort below, which names the repeat
    keys = np.sort(pairs[:, 0] * 2.0**32 + pairs[:, 1])
    if not (keys[1:] == keys[:-1]).any():
        return pairs, rows[:, 2]
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


def _integer(value) -> int:
    """An int, or a float that holds one such as 4.0; a bool, a string or a fraction is refused."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def spec_from_dict(doc: Mapping) -> HamiltonianSpec:
    if not isinstance(doc, Mapping):
        raise ValidationError("spec document must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    if "n" not in doc or "d" not in doc:
        raise ValidationError("spec document needs at least n and d")
    n, d = _parse_field("n", _integer, doc["n"]), _parse_field("d", _integer, doc["d"])
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
        PauliKind.from_tag(tag): _parse_field(f"onsite.{tag}", lambda vec: np.array(_numeric(vec), dtype=float), vec)
        for tag, vec in onsite.items()
    }
    alpha = doc.get("alpha")
    return HamiltonianSpec(
        n,
        d,
        two_local,
        on_site,
        identity=_parse_field("identity", lambda v: float(_numeric(v)), doc.get("identity", 0.0)),
        alpha=None if alpha is None else _parse_field("alpha", lambda v: float(_numeric(v)), alpha),
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
