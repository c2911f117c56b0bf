"""Divide-and-conquer recurrence evaluation and gate-count scaling reports."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compilers import (
    CompiledStep,
    compile_avgcost_step,
    compile_block_step,
    compile_lowrank_step,
    compile_sequential_step,
    phase_register_width,
)
from .decomp import LowRankDecomposition
from .errors import DomainError, ValidationError
from .hamlib import BlockMemo, HamiltonianSpec, PauliKind, build_power_law

STEP_METHODS = ("sequential", "block", "avgcost", "lowrank")


@dataclass(frozen=True, eq=False)
class Recurrence:
    """cost_rec(n) = m1 cost_rec(floor(n/m)) + m2 cost_rec(ceil(n/m)) + cost(n),
    with cost_rec(n) = c0 below n0. alpha_exp and k declare cost(n) = O(n^a log^k n).
    """

    c0: float
    n0: int
    m1: int
    m2: int
    m: int
    per_level_cost: Callable[[int], float]
    alpha_exp: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.c0 < 0:
            raise DomainError("base value must be >= 0")
        if self.n0 < 2:
            raise DomainError("base threshold must be >= 2")
        if self.m1 < 0 or self.m2 < 0 or self.m1 + self.m2 == 0:
            raise DomainError("branch counts must be >= 0 and not both zero")
        if self.m < 2:
            raise DomainError("branching divisor must be >= 2")


def solve_recurrence_numeric(rec: Recurrence, n: int) -> float:
    """Evaluate the recurrence as an equality, memoized over distinct sizes."""
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    cache: dict[int, float] = {}

    def f(x: int) -> float:
        if x < rec.n0:
            return rec.c0
        if x not in cache:
            lo = x // rec.m
            hi = -(-x // rec.m)
            cache[x] = rec.m1 * f(lo) + rec.m2 * f(hi) + float(rec.per_level_cost(x))
        return cache[x]

    return f(n)


@dataclass(frozen=True)
class ClassifiedRecurrence:
    case: str  # "bottom" | "boundary" | "top"
    exponent: float
    log_power: int
    critical_exponent: float
    ratio_spread: float


# the sizes, 2^4 ... 2^12, at which classify_recurrence checks its class against the numeric solution
_CLASSIFY_SWEEP = tuple(1 << e for e in range(4, 13))


def classify_recurrence(rec: Recurrence) -> ClassifiedRecurrence:
    """Match the declared cost class against log_m(m1+m2); sanity-check numerically over ``_CLASSIFY_SWEEP``."""
    if rec.alpha_exp is None or rec.k is None:
        raise ValidationError("classification needs the declared (alpha_exp, k) of cost(n)")
    crit = math.log(rec.m1 + rec.m2, rec.m)
    if rec.alpha_exp < crit - 1e-9:
        case, exponent, log_power = "bottom", crit, 0
    elif rec.alpha_exp > crit + 1e-9:
        case, exponent, log_power = "top", rec.alpha_exp, rec.k
    else:
        case, exponent, log_power = "boundary", rec.alpha_exp, rec.k + 1
    ratios = []
    for n in _CLASSIFY_SWEEP:
        cls = n**exponent * (math.log2(n) ** log_power if n > 1 else 1.0)
        ratios.append(solve_recurrence_numeric(rec, n) / cls)
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    return ClassifiedRecurrence(case, exponent, log_power, crit, spread)


def solve_coupled_recurrence(n: int, far_cost: Callable[[int], float]) -> float:
    """The two-function system tying the recursive cost to a near remainder:

    rec(n) = 2 rec(n/2) + near(n/2) + 3 far(n/2)
    near(n) = near(n/2) + 3 far(n/2)

    with rec(n) = near(n) = 1 below n = 2.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise DomainError(f"coupled evaluation needs a power of two, got {n}")
    near_cache: dict[int, float] = {}
    rec_cache: dict[int, float] = {}

    def near(x: int) -> float:
        if x < 2:
            return 1.0
        if x not in near_cache:
            near_cache[x] = near(x // 2) + 3.0 * float(far_cost(x // 2))
        return near_cache[x]

    def rec(x: int) -> float:
        if x < 2:
            return 1.0
        if x not in rec_cache:
            rec_cache[x] = 2.0 * rec(x // 2) + near(x // 2) + 3.0 * float(far_cost(x // 2))
        return rec_cache[x]

    return rec(n)


# -- gate-count scaling reports ------------------------------------------------


def fit_exponent(ns: Sequence[int], counts: Sequence[float]) -> float:
    """Log-log least-squares slope with the two largest sizes weighted double."""
    if len(ns) < 2 or len(ns) != len(counts):
        raise ValidationError("need matching sweeps of length >= 2")
    x = np.log2(np.asarray(ns, dtype=float))
    y = np.log2(np.asarray(counts, dtype=float))
    w = np.ones(len(x))
    w[-2:] = 2.0
    a = np.column_stack([x, np.ones_like(x)])
    beta = np.linalg.solve(a.T @ (a * w[:, None]), a.T @ (w * y))
    return float(beta[0])


@dataclass(frozen=True, eq=False)
class CostReport:
    method: str
    alpha: float
    d: int
    ns: tuple[int, ...]
    counts: tuple[int, ...]
    fitted_exponent: float
    predicted_exponent: float

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("method,alpha,d,n,count,fitted_exponent,predicted_exponent\n")
        for n, c in zip(self.ns, self.counts):
            out.write(
                f"{self.method},{self.alpha!r},{self.d},{n},{c},"
                f"{self.fitted_exponent!r},{self.predicted_exponent!r}\n"
            )
        return out.getvalue()


def _check_dyadic(ns: Sequence[int]) -> None:
    if len(ns) < 4:
        raise ValidationError("sweep needs at least 4 sizes")
    for n in ns:
        if n < 2 or (n & (n - 1)) != 0:
            raise ValidationError(f"sweep sizes must be powers of two, got {n}")
    if list(ns) != sorted(set(ns)):
        raise ValidationError("sweep sizes must be strictly increasing")


def block_step_count(spec: HamiltonianSpec, t: float, eps: float, memo: BlockMemo | None = None) -> int:
    """Boxed-encoding count at p = 1, which runs each group's stage once at the full t."""
    return compile_method("block", spec, t, 1, eps, count_only=True, memo=memo).gate_count


def balanced_subdivision(n: int, alpha: float, t: float) -> int:
    """m balancing the cell count against the per-cell cost, clamped to [1, n/2]."""
    raw = n ** (1.0 - alpha / 2.0) * math.sqrt(abs(t))
    return max(1, min(n // 2, round(raw)))


def compile_method(
    method: str, spec: HamiltonianSpec, t: float, p: int, eps: float, *,
    tol: float | None = None, cutoff_size: int = 4, m: int | None = None, count_only: bool = False,
    memo: BlockMemo | None = None,
) -> CompiledStep:
    """One Trotter step of ``method``, one of ``STEP_METHODS``: the one map of the method flags onto a compiler.

    lowrank truncates at tol (eps when tol is None) and sizes its phase registers with eps; block and
    avgcost take eps, avgcost's m defaulting to the balanced subdivision of the spec's alpha (1 if None).
    lowrank, block and avgcost share block results through ``memo``, a fresh one when it is None.
    """
    if method == "sequential":
        return compile_sequential_step(spec, t, p, count_only=count_only)
    if method == "block":
        return compile_block_step(spec, t, p, count_only=count_only, eps=eps, memo=memo)
    if method == "lowrank":
        tol = eps if tol is None else tol
        return compile_lowrank_step(spec, t, tol, cutoff_size, p, count_only=count_only, eps=eps, memo=memo)
    if method == "avgcost":
        if m is None:
            m = balanced_subdivision(spec.n, 1.0 if spec.alpha is None else spec.alpha, t)
        return compile_avgcost_step(spec, t, m, p, count_only=count_only, eps=eps, memo=memo)
    raise DomainError(f"unknown step method {method!r}")


def _predicted_exponent(method: str, alpha: float) -> float:
    if method == "sequential":
        return 2.0
    if method == "block":
        return max(1.0, 3.0 - alpha)
    if method == "lowrank":
        return 1.0
    return 2.0 - alpha / 2.0  # avgcost, valid only below alpha = 2d


def gate_count_report(
    method: str,
    alpha: float,
    d: int,
    t: float,
    eps: float,
    n_sweep: Sequence[int],
    *,
    p: int = 2,
    tol: float | None = None,
    cutoff_size: int = 4,
) -> CostReport:
    """Count-only sweep of one compile method on exact power-law ZZ specs.

    One ``BlockMemo`` serves the whole sweep: a power-law cross block of one
    shape and gap holds the same bytes at every n, so each distinct block is
    factored, boxed or subdivided once. Its keys are digests, so it holds no
    block bytes.
    """
    if method not in STEP_METHODS:
        raise DomainError(f"unknown method {method!r}")
    if method != "sequential" and d != 1:
        raise DomainError(f"{method} counting is defined on 1D chains only")
    if method == "avgcost" and alpha >= 2.0 * d:
        raise DomainError(f"average-cost scaling is not defined for alpha >= {2 * d}")
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    _check_dyadic(n_sweep)
    memo = BlockMemo()
    counts = []
    fit_values = []
    for n in n_sweep:
        spec = build_power_law(n, d, alpha, (PauliKind.Z, PauliKind.Z), "all-positive")
        step = compile_method(method, spec, t, p, eps, tol=tol, cutoff_size=cutoff_size, count_only=True, memo=memo)
        counts.append(step.gate_count)
        if method == "lowrank":
            # Fit the power net of the count model's own log factors (phase
            # register width times far-layer depth); raw counts stay in the CSV.
            layers = max(1, LowRankDecomposition(n, cutoff_size).depth - 1)
            fit_values.append(counts[-1] / (phase_register_width(n, t, eps) * layers))
        else:
            fit_values.append(float(counts[-1]))
    fitted = fit_exponent(n_sweep, fit_values)
    return CostReport(
        method,
        alpha,
        d,
        tuple(n_sweep),
        tuple(counts),
        fitted,
        _predicted_exponent(method, alpha),
    )
