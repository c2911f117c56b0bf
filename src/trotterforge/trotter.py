"""Trotter error estimation: commutator sums, step counts, fermionic norms."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import _spectral_norm
from .errors import DomainError, ValidationError, check_float_range, check_memory

COMMUTATOR_ORDER_CAP = 3
PAULI_COMMUTATOR_ORDERS = (1, 2)


@dataclass(frozen=True, eq=False)
class TrotterErrorReport:
    method: str
    p: int
    t: float
    alpha_comm: float
    bound: float
    empirical: float | None
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValidationError("step count must be >= 1")
        if self.alpha_comm < 0:
            raise ValidationError("commutator sum must be >= 0")


def commutator_norm_sum(stages: Sequence[np.ndarray], p: int) -> float:
    """Sum of spectral norms of (p+1)-fold nested commutators over all tuples.

    Brute force: the tuple count is len(stages)^(p+1), so p is capped at 3;
    the matrices are sized against physical memory before any is made.
    """
    if not (1 <= p <= COMMUTATOR_ORDER_CAP):
        raise DomainError(f"brute-force sum supports 1 <= p <= {COMMUTATOR_ORDER_CAP}")
    if len(stages) == 0:
        return 0.0
    dim = np.shape(stages[0])[0]
    # the stages, one commutator per depth of a chain, and two products (or the SVD's copy)
    need = (len(stages) + p + 2) * 16 * dim * dim
    check_memory(need, f"a commutator sum over {len(stages)} stages of dimension {dim}")
    mats = [np.asarray(h, dtype=complex) for h in stages]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValidationError("stages must share one square dimension")

    def chain_sum(nested: np.ndarray, depth: int) -> float:
        if depth == p:
            return _spectral_norm(nested)
        return sum(chain_sum(h @ nested - nested @ h, depth + 1) for h in mats)

    # each m is the innermost stage, summed over every choice of the outer ones
    return float(sum(chain_sum(m, 0) for m in mats))


def pauli_commutator_sum(x: np.ndarray, z: np.ndarray, coeff: np.ndarray, p: int) -> float:
    """commutator_norm_sum of the stages coeff[a] * P_a, in closed form from the (x, z) masks.

    Two Pauli strings commute or anticommute, so a nested commutator is 0 or
    2^p prod|c| times a Pauli string. With w = |coeff| and A_ab = 1 when P_a and
    P_b anticommute:
      p=1: 2 sum_ab w_a w_b A_ab
      p=2: 4 sum_ab w_a w_b A_ab sum_c w_c (A_ca xor A_cb),
    where the inner sum is s_a + s_b - 2 (A diag(w) A)_ab with s = A w.
    """
    if p not in PAULI_COMMUTATOR_ORDERS:
        raise DomainError(f"pauli commutator sum supports p in {PAULI_COMMUTATOR_ORDERS}, got {p}")
    x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
    w = np.abs(np.asarray(coeff, dtype=float))
    if x.ndim != 1 or x.shape != z.shape or x.shape != w.shape:
        raise ValidationError("masks and coefficients need one 1-D length")
    # symplectic form: P_a, P_b anticommute iff |x_a & z_b| + |z_a & x_b| is odd
    overlap = (x[:, None] & z[None, :]) ^ (z[:, None] & x[None, :])
    a = (np.bitwise_count(overlap) & 1).astype(float)
    if p == 1:
        return 2.0 * float(w @ a @ w)
    s = a @ w
    inner = s[:, None] + s[None, :] - 2.0 * ((a * w) @ a)
    return 4.0 * float(w @ (a * inner) @ w)


def steps_for(alpha: float, t: float, eps: float, p: int) -> int:
    """r = max(1, ceil((alpha t^{p+1} / eps)^{1/p})) for any error prefactor alpha."""
    if alpha < 0:
        raise DomainError("error prefactor must be >= 0")
    if t <= 0 or eps <= 0 or p < 1:
        raise DomainError("need t > 0, eps > 0, p >= 1")
    if alpha == 0.0:
        return 1
    raw = (error_bound(alpha, t, p) / eps) ** (1.0 / p)
    return max(1, math.ceil(check_float_range(raw, f"the step count at t={t!r}, eps={eps!r}")))


def error_bound(alpha: float, t: float, p: int) -> float:
    """alpha t^{p+1}, the error bound of one order-p step of length t."""
    try:
        bound = alpha * t ** (p + 1)
    except OverflowError:  # float ** raises where * gives inf
        bound = math.inf
    return check_float_range(bound, f"the error bound alpha t^{p + 1} at t={t!r}")


def induced_1norm(matrix: np.ndarray) -> float:
    """Max absolute row sum of a full square matrix (diagonal included)."""
    # abs before the float cast, or complex entries lose their imaginary part
    m = np.abs(np.asarray(matrix)).astype(float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix")
    return float(m.sum(axis=1).max())


def restricted_induced_1norm(matrix: np.ndarray, eta: int) -> float:
    """Max over rows of the sum of the eta largest |entries| in the row."""
    m = np.abs(np.asarray(matrix)).astype(float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix")
    n = m.shape[0]
    if not (1 <= eta <= n):
        raise DomainError(f"eta must be in [1, {n}], got {eta}")
    part = np.sort(m, axis=1)[:, n - eta :]
    return float(part.sum(axis=1).max())


def fermionic_error_norms(tau: np.ndarray, nu: np.ndarray, eta: int) -> tuple[float, float]:
    """(T1, V1eta): the induced 1-norm of tau and the eta-restricted induced 1-norm of nu.

    The eta-sector error bound of an order-p step of length t is, up to a constant,
    (T1 + V1eta)^(p-1) * T1 * V1eta * eta * t^(p+1); ``chem.chem_step_count`` prices it.
    """
    return induced_1norm(tau), restricted_induced_1norm(nu, eta)


def error_report_csv(reports: Sequence[TrotterErrorReport]) -> str:
    out = io.StringIO()
    out.write("method,p,t,alpha_comm,bound,empirical,r\n")
    for rep in reports:
        emp = "" if rep.empirical is None else repr(rep.empirical)
        out.write(
            f"{rep.method},{rep.p},{rep.t!r},{rep.alpha_comm!r},{rep.bound!r},{emp},{rep.r}\n"
        )
    return out.getvalue()
