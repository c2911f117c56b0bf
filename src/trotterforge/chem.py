"""Real-space electronic-structure instances on periodic cubic grids.

Coefficient conventions: tau is a full square Hermitian matrix over modes
(diagonal included); nu is full square symmetric with zero diagonal, and
every unordered pair {l,m} enters the interaction once, with the stored
nu[l,m] as its coefficient. Distances are grid units with minimum-image
wrapping; the physical volume enters only through the formula prefactors.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError, check_float_range, check_memory
from .hamlib import PAULI_MATRICES, PauliKind
from .trotter import fermionic_error_norms, steps_for


@dataclass(frozen=True, eq=False)
class ElectronicSystem:
    n: int
    eta: int
    omega: float
    tau: np.ndarray
    nu: np.ndarray
    grid: int | None = None
    nuclei: tuple[tuple[float, tuple[float, float, float]], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"mode count must be >= 1, got {self.n}")
        if not (1 <= self.eta <= self.n):
            raise DomainError(f"need 1 <= eta <= {self.n}, got {self.eta}")
        if self.omega <= 0:
            raise DomainError(f"cell volume must be > 0, got {self.omega}")
        tau = np.array(self.tau, dtype=complex)
        nu = np.array(self.nu, dtype=float)
        if tau.shape != (self.n, self.n) or nu.shape != (self.n, self.n):
            raise ValidationError(f"tau and nu must both be {self.n}x{self.n}")
        if not (np.isfinite(tau).all() and np.isfinite(nu).all()):
            raise ValidationError("tau and nu entries must be finite")
        if np.abs(tau - tau.conj().T).max() > 1e-12:
            raise ValidationError("tau must be Hermitian")
        if np.abs(nu - nu.T).max() > 1e-12 or np.abs(np.diag(nu)).max() > 0:
            raise ValidationError("nu must be symmetric with zero diagonal")
        if self.grid is not None and self.grid**3 != self.n:
            raise ValidationError(f"grid side {self.grid} does not cube to n={self.n}")
        tau.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "nu", nu)
        cleaned = []
        for z, pos in self.nuclei:
            if len(pos) != 3:
                raise ValidationError(f"nucleus position needs 3 coordinates, got {pos}")
            cleaned.append((float(z), tuple(float(c) for c in pos)))
        object.__setattr__(self, "nuclei", tuple(cleaned))


def _grid_coords(g: int) -> np.ndarray:
    """(g^3, 3) integer coordinates; last axis fastest, matching site order."""
    idx = np.arange(g**3)
    return np.stack([idx // (g * g), (idx // g) % g, idx % g], axis=1)


def _min_image_distances(points: np.ndarray, g: int) -> np.ndarray:
    delta = np.abs(points[:, None, :] - points[None, :, :])
    delta = np.minimum(delta, g - delta)
    return np.sqrt((delta**2).sum(axis=2))


def build_uniform_electron_gas(
    g: int,
    omega: float,
    eta: int | None = None,
    nuclei: Iterable[tuple[float, tuple[float, float, float]]] = (),
) -> ElectronicSystem:
    """n = g^3 modes on a periodic cubic grid.

    nu[l,m] = n^(1/3) / (2 omega^(1/3) dist(l,m)); tau is the 7-point
    finite-difference Laplacian (6 on the diagonal, -1 per axis neighbor)
    scaled by (n/omega)^(2/3) / 2. At g=2 the two wraps per axis land on
    the same neighbor and the stencil weights accumulate.
    """
    if g < 2:
        raise DomainError(f"grid side must be >= 2, got {g}")
    if omega <= 0:
        raise DomainError(f"cell volume must be > 0, got {omega}")
    n = g**3
    check_memory(88 * n * n, f"an electron gas on a {g}^3 grid")  # tracemalloc peak: 80 n^2 B at g=6-12
    coords = _grid_coords(g)
    dist = _min_image_distances(coords, g)
    with np.errstate(divide="ignore"):
        nu = n ** (1.0 / 3.0) / (2.0 * omega ** (1.0 / 3.0) * dist)
    np.fill_diagonal(nu, 0.0)

    scale = check_float_range((n / omega) ** (2.0 / 3.0) / 2.0, f"the kinetic scale at n={n}, omega={omega!r}")
    tau = np.zeros((n, n))
    np.fill_diagonal(tau, 6.0 * scale)
    strides = np.array([g * g, g, 1])
    for axis in range(3):
        for step in (1, -1):
            shifted = coords.copy()
            shifted[:, axis] = (shifted[:, axis] + step) % g
            tau[np.arange(n), shifted @ strides] -= scale
    if eta is None:
        eta = max(1, n // 2)
    return ElectronicSystem(n, eta, float(omega), tau, nu, grid=g, nuclei=tuple(nuclei))


def external_potential_strength(system: ElectronicSystem) -> float:
    """max over modes m of sum_l charge_l / dist(nucleus_l, site_m)."""
    if not system.nuclei:
        return 0.0
    if system.grid is None:
        raise ValidationError("external potential needs a grid-built system")
    g = system.grid
    coords = _grid_coords(g).astype(float)
    total = np.zeros(system.n)
    for charge, pos in system.nuclei:
        delta = np.abs(coords - np.asarray(pos))
        delta = np.minimum(delta, g - delta)
        d = np.sqrt((delta**2).sum(axis=1))
        if np.any(d == 0.0):
            raise DomainError("nucleus coincides with a grid site")
        total += charge / d
    return float(total.max())


# -- Jordan-Wigner toy instances ----------------------------------------------

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _annihilation(mode: int, n: int) -> np.ndarray:
    """Mode 1 is the fastest (least significant) tensor index."""
    z, one = PAULI_MATRICES[PauliKind.Z], PAULI_MATRICES[PauliKind.I]
    factors = [z if i < mode else _SIGMA_MINUS if i == mode else one for i in range(n, 0, -1)]
    return reduce(np.kron, factors)


def _occupation_bits(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return np.stack([(idx >> j) & 1 for j in range(n)], axis=1).astype(float)


def jw_matrix(system: ElectronicSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (H, T, V) with H = T + V; total occupation commutes with H."""
    n = system.n
    dim = 1 << n
    what = f"a dense {n}-mode Jordan-Wigner encoding ({dim} x {dim})"
    check_memory((n + 6) * 16 * dim * dim, what)  # n annihilators, T, V, H and three temporaries
    ann = [_annihilation(j, n) for j in range(1, n + 1)]
    bits = _occupation_bits(n)
    t_mat = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        for k in range(n):
            c = complex(system.tau[j, k])
            if c != 0.0:
                t_mat += c * (ann[j].conj().T @ ann[k])
    v_diag = np.zeros(dim)
    for l in range(n):
        for m in range(l + 1, n):
            if system.nu[l, m] != 0.0:
                v_diag += system.nu[l, m] * bits[:, l] * bits[:, m]
    v_mat = np.diag(v_diag).astype(complex)
    h_mat = t_mat + v_mat
    counts = bits.sum(axis=1)
    comm = np.abs(h_mat * (counts[None, :] - counts[:, None])).max()
    if comm > 1e-10:
        raise ValidationError(f"occupation-number commutator check failed at {comm:.2e}")
    return h_mat, t_mat, v_mat


def chem_step_count(
    system: ElectronicSystem, t: float, eps: float, p: int, constant: float = 1.0
) -> int:
    """Trotter steps from the fermionic norm bound; the prefactor constant
    ('up to constant' in the bound) is surfaced and defaults to 1."""
    if constant <= 0:
        raise DomainError("bound constant must be > 0")
    t1, v1 = fermionic_error_norms(np.abs(system.tau), system.nu, system.eta)
    alpha = constant * (t1 + v1) ** (p - 1) * t1 * v1 * system.eta
    return steps_for(alpha, t, eps, p)


# -- norm scaling sweep --------------------------------------------------------


@dataclass(frozen=True)
class NormScalingRow:
    g: int
    n: int
    omega: float
    eta: int
    tau_norm: float
    nu_norm: float
    ratio_tau: float
    ratio_nu: float


@dataclass(frozen=True)
class NormScalingReport:
    rows: tuple[NormScalingRow, ...]

    def ratio_spread(self, which: str = "nu") -> float:
        vals = [r.ratio_nu if which == "nu" else r.ratio_tau for r in self.rows]
        return max(vals) / min(vals)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("g,n,omega,eta,tau_norm,nu_eta_norm,ratio_tau,ratio_nu\n")
        for r in self.rows:
            out.write(
                f"{r.g},{r.n},{r.omega!r},{r.eta},{r.tau_norm!r},"
                f"{r.nu_norm!r},{r.ratio_tau!r},{r.ratio_nu!r}\n"
            )
        return out.getvalue()


def norm_scaling_report(
    grid_sides: Sequence[int] = tuple(range(3, 10)),
    omega: float | None = None,
    eta: int | None = None,
) -> NormScalingReport:
    """Measured top-eta Coulomb and kinetic norms against their scaling laws.

    omega None pins the volume to n (unit density); eta None takes n // 2.
    """
    rows = []
    for g in grid_sides:
        system = build_uniform_electron_gas(g, omega if omega is not None else float(g**3))
        n = system.n
        e = eta if eta is not None else max(1, n // 2)
        if not (1 <= e <= n):
            raise DomainError(f"need 1 <= eta <= {n}, got {e}")
        t1, v1 = fermionic_error_norms(np.abs(system.tau), system.nu, e)
        w = system.omega
        nu_law = e ** (2.0 / 3.0) * n ** (1.0 / 3.0) / w ** (1.0 / 3.0)
        tau_law = n ** (2.0 / 3.0) / w ** (2.0 / 3.0)
        rows.append(
            NormScalingRow(g, n, w, e, t1, v1, t1 / tau_law, v1 / nu_law)
        )
    return NormScalingReport(tuple(rows))


# -- JSON ----------------------------------------------------------------------


def system_to_json(system: ElectronicSystem) -> str:
    if system.grid is None:
        raise ValidationError("only grid-built systems serialize")
    doc = {
        "grid": system.grid,
        "omega": system.omega,
        "eta": system.eta,
        "nuclei": [{"charge": z, "pos": list(pos)} for z, pos in system.nuclei],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

