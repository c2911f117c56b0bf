"""Two-local Hamiltonian coefficient data and the norms used everywhere else.

Coefficient matrices live on the strict upper triangle (1 <= j < k <= n).
Induced norms complete them symmetrically; restricted norms read a region
of index pairs; the box norm takes explicit (weight, region) groupings so
the geometry of the grouping stays in the decomp module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError, DomainError, IndexRangeError, ValidationError


class PauliKind(Enum):
    I = "i"
    X = "x"
    Y = "y"
    Z = "z"

    @classmethod
    def from_tag(cls, tag: str) -> "PauliKind":
        try:
            return cls(tag.lower())
        except ValueError:
            raise ValidationError(f"unknown Pauli tag {tag!r}") from None


PAULI_MATRICES: dict[PauliKind, np.ndarray] = {
    PauliKind.I: np.eye(2, dtype=complex),
    PauliKind.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliKind.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    PauliKind.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class CoeffMatrix:
    """Strictly upper-triangular real coefficient matrix over site pairs."""

    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"site count must be >= 1, got {self.n}")
        a = np.array(self.data, dtype=float)
        if a.shape != (self.n, self.n):
            raise DimensionError(f"expected shape {(self.n, self.n)}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("coefficient entries must be finite")
        if np.any(np.tril(a) != 0.0):
            raise ValidationError("entries are defined only for j < k")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], float]) -> "CoeffMatrix":
        a = np.zeros((n, n))
        for (j, k), value in entries.items():
            if not (1 <= j < k <= n):
                raise IndexRangeError(f"pair ({j},{k}) outside 1 <= j < k <= {n}")
            a[j - 1, k - 1] = value
        return cls(n, a)

    @classmethod
    def zeros(cls, n: int) -> "CoeffMatrix":
        return cls(n, np.zeros((n, n)))

    def value(self, j: int, k: int) -> float:
        if not (1 <= j < k <= self.n):
            raise IndexRangeError(f"pair ({j},{k}) outside 1 <= j < k <= {self.n}")
        return float(self.data[j - 1, k - 1])

    def sym_value(self, j: int, k: int) -> float:
        """Symmetric-completion read; 0 on the diagonal."""
        if j == k:
            return 0.0
        lo, hi = (j, k) if j < k else (k, j)
        if not (1 <= lo and hi <= self.n):
            raise IndexRangeError(f"pair ({j},{k}) out of range")
        return float(self.data[lo - 1, hi - 1])

    def entries(self) -> dict[tuple[int, int], float]:
        js, ks = np.nonzero(self.data)
        return {(int(j) + 1, int(k) + 1): float(self.data[j, k]) for j, k in zip(js, ks)}

    def nonzero_pairs(self) -> Iterator[tuple[int, int, float]]:
        js, ks = np.nonzero(self.data)
        order = np.lexsort((ks, js))
        for i in order:
            j, k = int(js[i]), int(ks[i])
            yield j + 1, k + 1, float(self.data[j, k])

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Dense sub-block of symmetric-completion values, 1-based index lists."""
        idx = np.ix_(np.asarray(rows, dtype=int) - 1, np.asarray(cols, dtype=int) - 1)
        return self.data[idx] + self.data.T[idx]


@dataclass(frozen=True)
class IndexRegion:
    """Union of pairwise-disjoint inclusive rectangles of index pairs."""

    rectangles: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        rects = tuple(tuple(int(x) for x in r) for r in self.rectangles)
        for jlo, jhi, klo, khi in rects:
            if jlo > jhi or klo > khi:
                raise ValidationError(f"empty rectangle ({jlo},{jhi},{klo},{khi})")
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                    raise ValidationError("rectangles must be pairwise disjoint")
        object.__setattr__(self, "rectangles", rects)

    @classmethod
    def rect(cls, jlo: int, jhi: int, klo: int, khi: int) -> "IndexRegion":
        return cls(((jlo, jhi, klo, khi),))

    @classmethod
    def single(cls, j: int, k: int) -> "IndexRegion":
        return cls(((j, j, k, k),))

    def pairs(self) -> Iterator[tuple[int, int]]:
        for jlo, jhi, klo, khi in self.rectangles:
            for j in range(jlo, jhi + 1):
                for k in range(klo, khi + 1):
                    yield j, k

    def cell_count(self) -> int:
        return sum((jhi - jlo + 1) * (khi - klo + 1) for jlo, jhi, klo, khi in self.rectangles)


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
        if self.d not in (1, 2, 3):
            raise DimensionError(f"spatial dimension must be 1..3, got {self.d}")
        side = round(self.n ** (1.0 / self.d))
        if side**self.d != self.n:
            raise DimensionError(f"n={self.n} is not a perfect d={self.d} power")
        two = {}
        for (s1, s2), mat in self.two_local.items():
            if PauliKind.I in (s1, s2):
                raise ValidationError("identity cannot carry a 2-local coefficient matrix")
            if mat.n != self.n:
                raise DimensionError("coefficient matrix size differs from spec n")
            two[(s1, s2)] = mat
        object.__setattr__(self, "two_local", two)
        ons = {}
        for s, vec in self.on_site.items():
            if s == PauliKind.I:
                raise ValidationError("identity offset belongs in the identity field")
            v = np.array(vec, dtype=float)
            if v.shape != (self.n,):
                raise DimensionError("on-site vector length differs from spec n")
            v.setflags(write=False)
            ons[s] = v
        object.__setattr__(self, "on_site", ons)

    @property
    def side(self) -> int:
        return round(self.n ** (1.0 / self.d))

    def coords(self, j: int) -> tuple[int, ...]:
        """Lattice coordinates of site j (1-based, row-major)."""
        if not (1 <= j <= self.n):
            raise IndexRangeError(f"site {j} out of range 1..{self.n}")
        rem = j - 1
        out = []
        for _ in range(self.d):
            out.append(rem % self.side + 1)
            rem //= self.side
        return tuple(reversed(out))

    def distance(self, j: int, k: int) -> float:
        cj, ck = self.coords(j), self.coords(k)
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(cj, ck)))

    def groups(self) -> list[tuple[PauliKind, PauliKind]]:
        """2-local groups in deterministic (sigma, sigma') tag order."""
        return sorted(self.two_local.keys(), key=lambda p: (p[0].value, p[1].value))


SIGN_RULES = ("all-positive", "alternating", "seeded-random")


def build_power_law(
    n: int,
    d: int,
    alpha: float,
    pauli_pair: tuple[PauliKind, PauliKind] = (PauliKind.Z, PauliKind.Z),
    sign_rule: str = "all-positive",
    seed: int = 0,
) -> HamiltonianSpec:
    """Spec with |beta_{j,k}| = 1/dist(j,k)^alpha on every pair, exact before rounding."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if alpha <= 0:
        raise DomainError(f"need alpha > 0, got {alpha}")
    if sign_rule not in SIGN_RULES:
        raise ValidationError(f"unknown sign rule {sign_rule!r}")
    probe = HamiltonianSpec(n, d, {}, {})  # validates the lattice shape
    js, ks = np.triu_indices(n, 1)
    coords = np.arange(n)
    d2 = np.zeros(js.size, dtype=np.int64)
    for _ in range(d):
        axis = coords % probe.side
        d2 += (axis[js] - axis[ks]) ** 2
        coords //= probe.side
    # Scalar libm pow per distinct distance: np.power can differ by one ulp.
    dist2, inverse = np.unique(d2, return_inverse=True)
    mags = np.array([1.0 / math.sqrt(int(x)) ** alpha for x in dist2])[inverse]
    if sign_rule == "alternating":
        signs = np.where((js + ks) % 2, -1.0, 1.0)
    elif sign_rule == "seeded-random":
        # one draw of m bits is the same stream as m single draws, in (j, k) order
        signs = np.where(np.random.default_rng(seed).integers(2, size=js.size), 1.0, -1.0)
    else:
        signs = 1.0
    a = np.zeros((n, n))
    a[js, ks] = signs * mags
    mat = CoeffMatrix(n, a)
    return HamiltonianSpec(n, d, {pauli_pair: mat}, {}, alpha=alpha)


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
    value = 0.0 if mat is None else mat.value(j, k)
    return fixed_point_round(value, width)


NORM_KINDS = (
    "vec1",
    "max",
    "euclid",
    "induced1",
    "induced1_restricted",
    "restricted_max",
    "restricted_1",
    "box_1",
)


def norms(
    matrix: CoeffMatrix,
    kind: str,
    *,
    eta: int | None = None,
    region: IndexRegion | None = None,
    boxes: Iterable[tuple[int, IndexRegion]] | None = None,
) -> float:
    if kind not in NORM_KINDS:
        raise ValidationError(f"unknown norm kind {kind!r}")
    if kind in ("restricted_max", "restricted_1"):
        if region is None:
            raise ValidationError(f"{kind} needs a region")
        return _region_norm(matrix, region, kind == "restricted_max")
    if kind == "box_1":
        if boxes is None:
            raise ValidationError("box_1 needs (weight, region) boxes")
        total = 0.0
        for weight, reg in boxes:
            total += weight * _region_norm(matrix, reg, use_max=True)
        return total
    a = np.abs(matrix.data)
    if kind == "vec1":
        return float(a.sum())
    if kind == "max":
        return float(a.max()) if a.size else 0.0
    if kind == "euclid":
        return float(math.sqrt((a * a).sum()))
    if kind in ("induced1", "induced1_restricted"):
        sym = a + a.T
        if kind == "induced1":
            return float(sym.sum(axis=1).max())
        if eta is None or not (1 <= eta <= matrix.n):
            raise DomainError(f"eta must satisfy 1 <= eta <= {matrix.n}, got {eta}")
        rows = np.sort(sym, axis=1)[:, ::-1][:, :eta]
        return float(rows.sum(axis=1).max())


def _region_norm(matrix: CoeffMatrix, region: IndexRegion, use_max: bool) -> float:
    """Max or sum of |symmetric completion| over the region's rectangles.

    The sum accumulates in (rectangle, j, k) order, like a loop over the pairs.
    """
    parts = []
    for jlo, jhi, klo, khi in region.rectangles:
        if jlo < 1 or klo < 1 or jhi > matrix.n or khi > matrix.n:
            raise IndexRangeError(
                f"region rectangle ({jlo},{jhi},{klo},{khi}) outside the index range"
            )
        rows, cols = slice(jlo - 1, jhi), slice(klo - 1, khi)
        parts.append(np.abs(matrix.data[rows, cols] + matrix.data.T[rows, cols]).ravel())
    if not parts:
        return 0.0
    values = np.concatenate(parts)
    return float(values.max() if use_max else np.cumsum(values)[-1])


def pauli_decompose_term(m: np.ndarray) -> dict[tuple[PauliKind, PauliKind], float]:
    """Coefficients of a 4x4 Hermitian M over the 16 Pauli tensor products."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got {m.shape}")
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise ValidationError("matrix is not Hermitian to 1e-12")
    out = {}
    for s1 in PauliKind:
        for s2 in PauliKind:
            basis = np.kron(PAULI_MATRICES[s1], PAULI_MATRICES[s2])
            c = np.trace(m @ basis) / 4.0
            out[(s1, s2)] = float(c.real)
    return out


def pauli_reconstruct(coeffs: Mapping[tuple[PauliKind, PauliKind], float]) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for (s1, s2), c in coeffs.items():
        m += c * np.kron(PAULI_MATRICES[s1], PAULI_MATRICES[s2])
    return m


# -- JSON serialization -------------------------------------------------------

_SPEC_FIELDS = {"n", "d", "alpha", "terms", "onsite", "identity"}
_TERM_FIELDS = {"sigma", "sigma2", "entries"}


def spec_to_dict(spec: HamiltonianSpec) -> dict:
    terms = []
    for s1, s2 in spec.groups():
        mat = spec.two_local[(s1, s2)]
        entries = [[j, k, v] for j, k, v in mat.nonzero_pairs()]
        terms.append({"sigma": s1.value, "sigma2": s2.value, "entries": entries})
    onsite = {
        s.value: [float(x) for x in vec]
        for s, vec in sorted(spec.on_site.items(), key=lambda kv: kv[0].value)
    }
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


def spec_from_dict(doc: Mapping) -> HamiltonianSpec:
    if not isinstance(doc, Mapping):
        raise ValidationError("spec document must be a JSON object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    if "n" not in doc or "d" not in doc:
        raise ValidationError("spec document needs at least n and d")
    n, d = int(doc["n"]), int(doc["d"])
    two_local: dict[tuple[PauliKind, PauliKind], CoeffMatrix] = {}
    for term in doc.get("terms", []):
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
        entries = {(int(j), int(k)): float(v) for j, k, v in term.get("entries", [])}
        if (s1, s2) in two_local:
            raise ValidationError(f"duplicate term group ({s1.value},{s2.value})")
        two_local[(s1, s2)] = CoeffMatrix.from_entries(n, entries)
    on_site = {
        PauliKind.from_tag(tag): np.array(vec, dtype=float)
        for tag, vec in doc.get("onsite", {}).items()
    }
    alpha = doc.get("alpha")
    return HamiltonianSpec(
        n,
        d,
        two_local,
        on_site,
        identity=float(doc.get("identity", 0.0)),
        alpha=None if alpha is None else float(alpha),
    )


def spec_from_json(text: str) -> HamiltonianSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec is not valid JSON: {exc}") from None
    return spec_from_dict(doc)
