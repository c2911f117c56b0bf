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


def _checked_block(block: np.ndarray, tol: float) -> np.ndarray:
    """``block`` as a float matrix, once tol is positive and every entry finite."""
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    a = np.asarray(block, dtype=float)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("block entries must be finite")
    return a


def _truncation(s: np.ndarray, tol: float) -> tuple[int, float]:
    """(rank, residual) for the descending singular values s: #(s > tol), and the first value cut, or 0.0."""
    rank = int(np.sum(s > tol))
    return rank, float(s[rank]) if rank < s.size else 0.0


def singular_truncation(block: np.ndarray, tol: float) -> tuple[int, float]:
    """``truncated_svd``'s (rank, residual) from the singular values alone, with no singular vectors.

    The values come from another LAPACK path, so the residual can differ in
    its last digits, and the rank where a singular value lies within
    round-off of tol.
    """
    return _truncation(np.linalg.svd(_checked_block(block, tol), compute_uv=False), tol)


def truncated_svd(block: np.ndarray, tol: float) -> TruncatedFactor:
    """Minimal rank with next singular value <= tol; exact on exact-rank input."""
    u, s, vt = np.linalg.svd(_checked_block(block, tol), full_matrices=False)
    rank, residual = _truncation(s, tol)
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

    Each rank and residual is the block's ``singular_truncation``.
    rho_max is floored at 1: even an all-zero block costs a trivial circuit.
    """
    if spec.n != decomposition.n:
        raise ValidationError("spec and decomposition disagree on n")
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")  # even with no far block
    rows = []
    for (s1, s2), mat in spec.two_local.items():
        for pair in decomposition.far_field:
            rank, residual = singular_truncation(mat.block(pair.cross_region()), tol)
            rows.append(ProfileRow(pair.layer, pair.block, s1.value, s2.value, rank, residual))
    rho_max = max((r.rank for r in rows), default=0)
    return RankProfile(tuple(rows), max(1, rho_max))
