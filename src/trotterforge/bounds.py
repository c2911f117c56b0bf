"""Volume-argument lower bounds for diagonal-unitary synthesis and relatives.

All four calculators evaluate their displayed expressions exactly in log
space with natural logarithms (the log base only rescales the constants,
and is recorded in every result). Results that come out nonpositive are
reported as 0 with a vacuous flag rather than as negative gate counts.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError, ValidationError, check_float_range

LOG_BASE = "e"


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by the bound calculators.

    gate_set_size None means arbitrary 2-qubit gates; those variants divide
    by c_compile * ln(pair_choices / accuracy) instead of ln(pairs * |K|),
    with c_compile an unfixed compilation constant surfaced in the output.
    """

    b: int
    gate_set_size: int | None = None
    mu: int | None = None
    theta_max: float | None = None
    delta: float | None = None
    eps: float | None = None
    m: int | None = None
    n: int | None = None
    t: float = 1.0
    c_red: float = 1.0
    c_compile: float = 1.0

    def __post_init__(self) -> None:
        if self.b < 2:
            raise DomainError(f"circuit qubit count must be >= 2, got {self.b}")
        if self.gate_set_size is not None and self.gate_set_size < 1:
            raise DomainError("gate set size must be >= 1")
        if self.mu is not None and self.mu < 0:
            raise DomainError("target qubit count must be >= 0")
        if self.mu is not None and self.b < self.mu:
            raise DomainError(f"need b >= mu, got b={self.b}, mu={self.mu}")
        for name in ("delta", "eps"):
            v = getattr(self, name)
            if v is not None and not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v}")
        if self.m is not None and self.m < 1:
            raise DomainError("phase bit count must be >= 1")
        if self.n is not None and self.n < 2:
            raise DomainError("site count must be >= 2")
        if self.t <= 0:
            raise DomainError("coefficient magnitude cap must be > 0")
        if self.c_red < 0 or self.c_compile <= 0:
            raise DomainError("constants must satisfy c_red >= 0, c_compile > 0")


@dataclass(frozen=True)
class BoundResult:
    bound: float
    vacuous: bool
    constants: Mapping[str, object]

    def to_json(self) -> str:
        doc = {
            "bound": self.bound,
            "vacuous": self.vacuous,
            "constants": dict(self.constants),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _need(query: BoundQuery, *names: str) -> None:
    missing = [x for x in names if getattr(query, x) is None]
    if missing:
        raise ValidationError(f"query is missing fields: {missing}")


def _float(x: int) -> float:
    """An integer as a float, inf past the float range (so 2 ** min(mu, 1024) is 2^mu), for check_float_range."""
    return float(x) if x <= sys.float_info.max else math.inf


def _volume(mu: int, log: float) -> float:
    """2^mu * log, with 2^mu as inf past the float range; exactly 0 where log is, as inf * 0 would be NaN."""
    return _float(2 ** min(mu, 1024)) * log if log else 0.0


def _log_ratio(x: float, accuracy: float) -> float:
    """ln(x / accuracy); where the quotient leaves the float range, ln x - ln accuracy, which stays finite."""
    quotient = _float(x) / accuracy
    return math.log(quotient) if math.isfinite(quotient) else math.log(x) - math.log(accuracy)


def _denominator(query: BoundQuery, choices: int, accuracy: float) -> float:
    """ln(choices |K|), or the parametric net form for arbitrary 2-qubit gates.

    ``choices`` counts where one gate can act: C(b, 2) qubit pairs, or b qubits.
    """
    if query.gate_set_size is None:
        return query.c_compile * _log_ratio(choices, accuracy)
    if choices * query.gate_set_size <= 1:
        # one pair (b = 2) and one gate: zero information per step, the bound diverges
        raise DomainError("gate set carries no choice: ln(pairs * gates) is zero")
    return math.log(choices * query.gate_set_size)


def _finish(query: BoundQuery, raw: float, constants: dict, *, force_vacuous: bool = False) -> BoundResult:
    """The bound max(raw, 0), or 0 where the inputs force a vacuous one; c_compile is recorded where it applies.

    A forced bound never reads raw, so a raw value (or a term of it) past the
    float range is recorded as None there; anywhere else it raises CapacityError.
    """
    constants["raw"] = raw
    constants["log_base"] = LOG_BASE
    if query.gate_set_size is None:
        constants["c_compile"] = query.c_compile
    if force_vacuous:
        finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in constants.items()}
        return BoundResult(0.0, True, finite)
    check_float_range(raw, "the raw lower bound")
    return BoundResult(max(raw, 0.0), raw <= 0.0, constants)


def volume_diag(mu: int, theta_max: float) -> float:
    """Log-volume 2^mu * ln(2 theta_max) of the reachable diagonal phase boxes."""
    if mu < 0:
        raise DomainError(f"target qubit count must be >= 0, got {mu}")
    if not (0.0 < theta_max < math.pi):
        raise DomainError(f"theta_max must lie in (0, pi), got {theta_max}")
    return check_float_range(_volume(mu, math.log(2.0 * theta_max)), "the log-volume")


def _arc(delta: float) -> float:
    return math.asin(2.0 * delta * math.sqrt(1.0 - delta * delta))


def diag_synthesis_lower_bound(query: BoundQuery) -> BoundResult:
    """Minimum gate count to reach all diagonal unitaries within delta."""
    _need(query, "mu", "theta_max", "delta")
    if not (0.0 < query.theta_max < math.pi):
        raise DomainError(f"theta_max must lie in (0, pi), got {query.theta_max}")
    arc = _arc(query.delta)
    denom = _denominator(query, math.comb(query.b, 2), query.delta)
    raw = _volume(query.mu, _log_ratio(2.0 * query.theta_max, arc)) / denom
    constants = {"arc": arc, "denominator": denom}
    return _finish(query, raw, constants)


THETA_CEILING = math.pi * (1.0 - 1e-12)
HAM_DELTA_SCALE = 3.0


def commuting_ham_lower_bound(query: BoundQuery) -> BoundResult:
    """Gate count to simulate 2-local commuting Hamiltonians on n sites.

    Reduction bookkeeping: the diagonal target lives on mu = 2 log2 n qubits
    (so 2^mu = n^2), the accuracy passed down is 3 eps, the reachable phase
    cap is the coefficient magnitude times t clamped below pi, and the
    conversion circuitry costs c_red * n * ln^2(n/eps) which is subtracted.
    """
    _need(query, "n", "eps")
    if query.eps >= 1.0 / 3.0:
        raise DomainError(f"eps must be < 1/3, got {query.eps}")
    n = query.n
    delta_eff = HAM_DELTA_SCALE * query.eps
    theta_eff = min(query.t, THETA_CEILING)
    arc = _arc(delta_eff)
    denom = _denominator(query, math.comb(query.b, 2), delta_eff)
    main = _float(n * n) * _log_ratio(2.0 * theta_eff, arc) / denom
    overhead = query.c_red * _float(n) * _log_ratio(n, query.eps) ** 2
    raw = main - overhead
    constants = {
        "delta_scale": HAM_DELTA_SCALE,
        "c_red": query.c_red,
        "theta_eff": theta_eff,
        "main_term": main,
        "overhead": overhead,
    }
    return _finish(query, raw, constants, force_vacuous=query.t < query.eps)


def discrete_diag_lower_bound(query: BoundQuery) -> BoundResult:
    """Gate count for diagonal unitaries with m-bit phases, valid for
    2^-m <= delta <= 1/2."""
    _need(query, "mu", "delta", "m")
    raw = _volume(query.mu, _log_ratio(1.0, query.delta)) / _denominator(query, query.b, query.delta)
    outside = not (2.0**-query.m <= query.delta <= 0.5)
    return _finish(query, raw, {}, force_vacuous=outside)


def coeff_oracle_lower_bound(query: BoundQuery) -> BoundResult:
    """Gate count for an n-site coefficient oracle with m-bit outputs, valid
    for 2^-m <= eps <= 1/2; conversion overhead c_red * ln^2(1/eps) subtracted."""
    _need(query, "n", "eps", "m")
    n = query.n
    inv = _log_ratio(1.0, query.eps)
    main = _float(n * n) * inv / _denominator(query, query.b, query.eps)
    overhead = query.c_red * inv * inv
    raw = main - overhead
    constants = {"c_red": query.c_red, "main_term": main, "overhead": overhead}
    outside = not (2.0**-query.m <= query.eps <= 0.5)
    return _finish(query, raw, constants, force_vacuous=outside)
