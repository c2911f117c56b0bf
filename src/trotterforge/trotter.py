"""Trotter error estimation: commutator sums, step counts, fermionic norms."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, ValidationError

COMMUTATOR_DIM_CAP = 1 << 10
COMMUTATOR_ORDER_CAP = 3


@dataclass(frozen=True, eq=False)
class SimulationRequest:
    spec: object
    t: float
    eps: float
    p: int

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise DomainError(f"time must be positive, got {self.t}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"accuracy must be in (0,1), got {self.eps}")
        if self.p < 1:
            raise DomainError(f"order must be >= 1, got {self.p}")


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


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def commutator_norm_sum(stages: Sequence[np.ndarray], p: int) -> float:
    """Sum of spectral norms of (p+1)-fold nested commutators over all tuples.

    Brute force: the tuple count is len(stages)^(p+1), so p is capped at 3
    and the stage dimension at 2^10.
    """
    if not (1 <= p <= COMMUTATOR_ORDER_CAP):
        raise DomainError(f"brute-force sum supports 1 <= p <= {COMMUTATOR_ORDER_CAP}")
    mats = [np.asarray(h, dtype=complex) for h in stages]
    if not mats:
        return 0.0
    dim = mats[0].shape[0]
    if dim > COMMUTATOR_DIM_CAP:
        raise CapacityError(f"stage dimension {dim} exceeds {COMMUTATOR_DIM_CAP}")
    for m in mats:
        if m.shape != (dim, dim):
            raise ValidationError("stages must share one square dimension")

    def chain_sum(nested: np.ndarray, depth: int) -> float:
        if depth == p:
            return _spectral_norm(nested)
        return sum(chain_sum(h @ nested - nested @ h, depth + 1) for h in mats)

    # each m is the innermost stage, summed over every choice of the outer ones
    return float(sum(chain_sum(m, 0) for m in mats))


def steps_for(alpha: float, t: float, eps: float, p: int) -> int:
    """r = max(1, ceil((alpha t^{p+1} / eps)^{1/p})) for any error prefactor alpha."""
    if alpha < 0:
        raise DomainError("error prefactor must be >= 0")
    if t <= 0 or eps <= 0 or p < 1:
        raise DomainError("need t > 0, eps > 0, p >= 1")
    if alpha == 0.0:
        return 1
    raw = (alpha * t ** (p + 1) / eps) ** (1.0 / p)
    return max(1, math.ceil(raw))


def step_count(request: SimulationRequest, alpha_comm: float) -> int:
    """Step count from the commutator prefactor of the requested formula."""
    return steps_for(alpha_comm, request.t, request.eps, request.p)


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


def fermionic_error_norms(
    tau: np.ndarray, nu: np.ndarray, eta: int
) -> tuple[float, float, Callable[[int, float], float]]:
    """Hopping/interaction norms and the eta-sector error bound, up to constant.

    boundExpression(p, t) = (T1 + V1eta)^(p-1) * T1 * V1eta * eta * t^(p+1)
    with T1 the induced 1-norm of tau and V1eta the eta-restricted induced
    1-norm of nu. The prefactor constant is not included.
    """
    t1 = induced_1norm(tau)
    v1 = restricted_induced_1norm(nu, eta)

    def bound_expression(p: int, t: float) -> float:
        if p < 1:
            raise DomainError(f"order must be >= 1, got {p}")
        return (t1 + v1) ** (p - 1) * t1 * v1 * eta * abs(t) ** (p + 1)

    return t1, v1, bound_expression


def error_report_csv(reports: Sequence[TrotterErrorReport]) -> str:
    out = io.StringIO()
    out.write("method,p,t,alpha_comm,bound,empirical,r\n")
    for rep in reports:
        emp = "" if rep.empirical is None else repr(rep.empirical)
        out.write(
            f"{rep.method},{rep.p},{rep.t!r},{rep.alpha_comm!r},{rep.bound!r},{emp},{rep.r}\n"
        )
    return out.getvalue()
