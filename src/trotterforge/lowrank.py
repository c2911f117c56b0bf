"""Spectral truncated SVD of coefficient blocks and rank profiling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import LowRankDecomposition
from .errors import DomainError, ValidationError
from .hamlib import HamiltonianSpec


@dataclass(frozen=True, eq=False)
class TruncatedFactor:
    """Thin SVD of one coefficient block, truncated at a spectral tolerance.

    block ~= left @ diag(singulars) @ right.T with spectral error ``residual``.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    rank: int
    residual: float

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singulars) @ self.right.T


def truncated_svd(block: np.ndarray, tol: float) -> TruncatedFactor:
    """Minimal rank with next singular value <= tol; exact on exact-rank input."""
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    a = np.asarray(block, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("block entries must be finite")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol))
    residual = float(s[rank]) if rank < s.size else 0.0
    return TruncatedFactor(
        left=u[:, :rank].copy(),
        singulars=s[:rank].copy(),
        right=vt[:rank].T.copy(),
        rank=rank,
        residual=residual,
    )


@dataclass(frozen=True)
class ProfileRow:
    layer: int
    block: int
    sigma: str
    sigma2: str
    rank: int
    residual: float


@dataclass(frozen=True)
class RankProfile:
    rows: tuple[ProfileRow, ...]
    rho_max: int

    def to_csv(self) -> str:
        lines = ["layer,block,pauliPair,rank,residual"]
        for r in self.rows:
            lines.append(f"{r.layer},{r.block},{r.sigma}{r.sigma2},{r.rank},{r.residual!r}")
        return "\n".join(lines) + "\n"


def rank_profile(spec: HamiltonianSpec, decomposition: LowRankDecomposition, tol: float) -> RankProfile:
    """Truncation ranks of every far-field block over every Pauli pair.

    rho_max is floored at 1: even an all-zero block costs a trivial circuit.
    """
    if spec.n != decomposition.n:
        raise ValidationError("spec and decomposition disagree on n")
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")  # even with no far block
    rows = []
    for (s1, s2), mat in spec.two_local.items():
        for pair in decomposition.far_field:
            fac = truncated_svd(mat.block(pair.cross_region()), tol)
            rows.append(ProfileRow(pair.layer, pair.block, s1.value, s2.value, fac.rank, fac.residual))
    rho_max = max((r.rank for r in rows), default=0)
    return RankProfile(tuple(rows), max(1, rho_max))
