import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeff_matrix
from trotterforge.bounds import (
    LOG_BASE,
    THETA_CEILING,
    BoundQuery,
    coeff_oracle_lower_bound,
    commuting_ham_lower_bound,
    diag_synthesis_lower_bound,
    discrete_diag_lower_bound,
    volume_diag,
)
from trotterforge.errors import CapacityError, DomainError, ValidationError

mp.mp.dps = 50


# -- high-precision oracle: same displayed formulas, evaluated at 50 digits ----

def mp_arc(delta):
    d = mp.mpf(delta)
    return mp.asin(2 * d * mp.sqrt(1 - d * d))


def mp_pair_denom(q, accuracy):
    pairs = mp.mpf(math.comb(q.b, 2))
    if q.gate_set_size is None:
        return mp.mpf(q.c_compile) * mp.log(pairs / mp.mpf(accuracy))
    return mp.log(pairs * q.gate_set_size)


def mp_qubit_denom(q, accuracy):
    if q.gate_set_size is None:
        return mp.mpf(q.c_compile) * mp.log(mp.mpf(q.b) / mp.mpf(accuracy))
    return mp.log(mp.mpf(q.b) * q.gate_set_size)


def diag_raw_oracle(q):
    num = mp.log(2 * mp.mpf(q.theta_max) / mp_arc(q.delta))
    return mp.mpf(2) ** q.mu * num / mp_pair_denom(q, q.delta)


def ham_parts_oracle(q):
    d_eff = 3.0 * q.eps
    theta_eff = min(q.t, THETA_CEILING)
    main = mp.mpf(q.n) ** 2 * mp.log(2 * mp.mpf(theta_eff) / mp_arc(d_eff))
    main /= mp_pair_denom(q, d_eff)
    over = mp.mpf(q.c_red) * q.n * mp.log(mp.mpf(q.n) / mp.mpf(q.eps)) ** 2
    return main, over


def ham_raw_oracle(q):
    main, over = ham_parts_oracle(q)
    return main - over


def discrete_raw_oracle(q):
    return mp.mpf(2) ** q.mu * mp.log(1 / mp.mpf(q.delta)) / mp_qubit_denom(q, q.delta)


def coeff_parts_oracle(q):
    inv = mp.log(1 / mp.mpf(q.eps))
    return mp.mpf(q.n) ** 2 * inv / mp_qubit_denom(q, q.eps), mp.mpf(q.c_red) * inv * inv


def coeff_raw_oracle(q):
    main, over = coeff_parts_oracle(q)
    return main - over


def close_rel(x, oracle, rel=1e-12, scale=None):
    # scale: magnitude of the terms the value was computed from; guards the
    # comparison when the formula itself nearly cancels
    floor = max(abs(oracle), mp.mpf(1e-12), abs(scale) if scale is not None else 0)
    return abs(mp.mpf(x) - oracle) <= rel * floor


# -- log-volume of the reachable phase region ----------------------------------

def test_volume_examples():
    assert math.isclose(volume_diag(1, math.pi / 2), 2.0 * math.log(math.pi), rel_tol=1e-14)
    assert volume_diag(0, 0.5) == 0.0  # single phase spanning a unit box
    assert math.isclose(volume_diag(3, 0.1), 8.0 * math.log(0.2), rel_tol=1e-14)
    assert volume_diag(3, 0.1) < 0.0


def test_volume_past_the_float_range_of_a_zero_log_is_zero():
    # 2^mu is inf past mu = 1024, and inf * ln(2 * 0.5) would be NaN
    for mu in (20, 1024, 2000):
        assert volume_diag(mu, 0.5) == 0.0


def test_volume_domain():
    with pytest.raises(DomainError):
        volume_diag(-1, 0.5)
    with pytest.raises(DomainError):
        volume_diag(2, 0.0)
    with pytest.raises(DomainError):
        volume_diag(2, math.pi)


# -- diagonal-synthesis bound ---------------------------------------------------

def test_diag_reference_point():
    q = BoundQuery(b=4, gate_set_size=100, mu=2, theta_max=math.pi / 2, delta=0.1)
    res = diag_synthesis_lower_bound(q)
    assert not res.vacuous
    assert math.isclose(res.bound, 1.7211350663226035, rel_tol=1e-13)
    assert math.isclose(res.constants["arc"], 0.2003348423231196, rel_tol=1e-13)
    assert math.isclose(res.constants["denominator"], 6.396929655216146, rel_tol=1e-13)
    assert close_rel(res.bound, diag_raw_oracle(q))


def test_diag_doubling_mu():
    base = dict(b=6, gate_set_size=50, theta_max=1.0, delta=0.05)
    lo = diag_synthesis_lower_bound(BoundQuery(mu=2, **base))
    hi = diag_synthesis_lower_bound(BoundQuery(mu=3, **base))
    assert lo.bound > 0
    assert math.isclose(hi.bound, 2.0 * lo.bound, rel_tol=1e-12)


def test_diag_vacuous_when_arc_swallows_theta():
    # reachable phases fit inside one resolution cell: no information, bound 0
    q = BoundQuery(b=4, gate_set_size=100, mu=2, theta_max=0.05, delta=0.1)
    res = diag_synthesis_lower_bound(q)
    assert res.vacuous and res.bound == 0.0
    assert res.constants["raw"] < 0.0


def test_diag_arbitrary_gates_denominator():
    q = BoundQuery(b=4, gate_set_size=None, mu=2, theta_max=1.0, delta=0.1, c_compile=2.0)
    res = diag_synthesis_lower_bound(q)
    assert res.constants["c_compile"] == 2.0
    assert math.isclose(res.constants["denominator"], 2.0 * math.log(6 / 0.1), rel_tol=1e-13)
    assert close_rel(res.bound, diag_raw_oracle(q))


def test_diag_missing_fields():
    with pytest.raises(ValidationError):
        diag_synthesis_lower_bound(BoundQuery(b=4, gate_set_size=10, mu=2))
    with pytest.raises(DomainError):
        diag_synthesis_lower_bound(
            BoundQuery(b=4, gate_set_size=10, mu=2, theta_max=3.5, delta=0.1)
        )


# -- commuting-Hamiltonian bound ------------------------------------------------

def test_ham_reference_point_is_vacuous():
    # conversion overhead swamps the volume term at this size
    q = BoundQuery(b=64, gate_set_size=1000, n=64, eps=1e-3, c_red=1.0)
    res = commuting_ham_lower_bound(q)
    assert res.vacuous and res.bound == 0.0
    assert math.isclose(res.constants["raw"], -6199.008122653404, rel_tol=1e-12)
    assert math.isclose(res.constants["main_term"], 1639.1028944893417, rel_tol=1e-12)
    assert math.isclose(res.constants["overhead"], 7838.111017142745, rel_tol=1e-12)
    assert close_rel(res.constants["raw"], ham_raw_oracle(q))


def test_ham_positive_without_reduction_cost():
    q = BoundQuery(b=64, gate_set_size=1000, n=64, eps=1e-3, c_red=0.0)
    res = commuting_ham_lower_bound(q)
    assert not res.vacuous
    assert math.isclose(res.bound, 1639.1028944893417, rel_tol=1e-12)
    assert res.bound == res.constants["main_term"]


def test_ham_theta_clamped_at_pi():
    a = commuting_ham_lower_bound(BoundQuery(b=8, gate_set_size=20, n=16, eps=0.01, t=50.0))
    b = commuting_ham_lower_bound(BoundQuery(b=8, gate_set_size=20, n=16, eps=0.01, t=500.0))
    assert a.constants["theta_eff"] == THETA_CEILING
    assert a.bound == b.bound  # phases cannot reach past the principal range


def test_ham_forced_vacuous_below_resolution():
    res = commuting_ham_lower_bound(
        BoundQuery(b=8, gate_set_size=20, n=16, eps=1e-2, t=1e-4)
    )
    assert res.vacuous and res.bound == 0.0


def test_ham_eps_domain():
    with pytest.raises(DomainError):
        commuting_ham_lower_bound(BoundQuery(b=8, gate_set_size=20, n=16, eps=0.4))


# -- discrete-phase bound -------------------------------------------------------

def test_discrete_reference_point():
    q = BoundQuery(b=8, gate_set_size=24, mu=4, delta=0.25, m=4)
    res = discrete_diag_lower_bound(q)
    assert not res.vacuous
    assert math.isclose(res.bound, 4.218873856918545, rel_tol=1e-13)
    assert close_rel(res.bound, discrete_raw_oracle(q))


def test_discrete_validity_window():
    ok = discrete_diag_lower_bound(BoundQuery(b=8, gate_set_size=24, mu=4, delta=0.5, m=4))
    assert not ok.vacuous
    below = discrete_diag_lower_bound(
        BoundQuery(b=8, gate_set_size=24, mu=4, delta=0.01, m=4)
    )
    assert below.vacuous and below.bound == 0.0  # delta finer than the phase grid
    above = discrete_diag_lower_bound(BoundQuery(b=8, gate_set_size=24, mu=4, delta=0.6, m=4))
    assert above.vacuous and above.bound == 0.0


def test_discrete_monotone_directions():
    # finite gate set: bound grows with mu, shrinks with delta, b, and |K|
    def val(**kw):
        args = dict(b=8, gate_set_size=24, mu=4, delta=0.25, m=8)
        args.update(kw)
        return discrete_diag_lower_bound(BoundQuery(**args)).bound

    assert val(mu=5) > val(mu=4) > val(mu=3)
    assert val(delta=0.1) > val(delta=0.2) > val(delta=0.4)
    assert val(b=4) > val(b=8) > val(b=16)
    assert val(gate_set_size=8) > val(gate_set_size=64) > val(gate_set_size=512)


# -- coefficient-oracle bound ---------------------------------------------------

def test_coeff_reference_point():
    q = BoundQuery(b=48, gate_set_size=256, n=32, m=16, eps=1e-2)
    res = coeff_oracle_lower_bound(q)
    assert not res.vacuous
    assert math.isclose(res.bound, 479.5894276432111, rel_tol=1e-13)
    assert math.isclose(res.constants["main_term"], 500.7970200851247, rel_tol=1e-13)
    assert close_rel(res.bound, coeff_raw_oracle(q))


def test_coeff_window_and_monotone_in_n():
    out = coeff_oracle_lower_bound(BoundQuery(b=48, gate_set_size=256, n=32, m=4, eps=1e-2))
    assert out.vacuous and out.bound == 0.0  # eps below the m-bit resolution
    vals = [
        coeff_oracle_lower_bound(
            BoundQuery(b=48, gate_set_size=256, n=n, m=16, eps=0.05)
        ).bound
        for n in (4, 8, 16, 32, 64)
    ]
    print("coeff bounds over n:", vals)
    assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))


def test_coeff_arbitrary_gates():
    q = BoundQuery(b=16, gate_set_size=None, n=12, m=20, eps=0.05, c_compile=1.5)
    res = coeff_oracle_lower_bound(q)
    assert res.constants["c_compile"] == 1.5
    assert close_rel(res.constants["raw"], coeff_raw_oracle(q))


# -- shared plumbing -------------------------------------------------------------

def test_degenerate_gate_set_rejected():
    # b=2 with a single gate leaves C(b,2)*K = 1, so the pair-denominator
    # formulas diverge; they must refuse rather than divide by ln(1)
    with pytest.raises(DomainError):
        diag_synthesis_lower_bound(
            BoundQuery(b=2, gate_set_size=1, mu=0, theta_max=1.0, delta=0.5)
        )
    with pytest.raises(DomainError):
        commuting_ham_lower_bound(BoundQuery(b=2, gate_set_size=1, n=8, eps=0.01))
    # the qubit-denominator variants still see ln(b*K) = ln 2 of information
    res = discrete_diag_lower_bound(BoundQuery(b=2, gate_set_size=1, mu=0, delta=0.5, m=4))
    assert res.bound == 1.0


def test_query_validation():
    with pytest.raises(DomainError):
        BoundQuery(b=1)
    with pytest.raises(DomainError):
        BoundQuery(b=4, gate_set_size=0)
    with pytest.raises(DomainError):
        BoundQuery(b=4, mu=-1)
    with pytest.raises(DomainError):
        BoundQuery(b=2, mu=3)
    with pytest.raises(DomainError):
        BoundQuery(b=4, delta=1.0)
    with pytest.raises(DomainError):
        BoundQuery(b=4, eps=0.0)
    with pytest.raises(DomainError):
        BoundQuery(b=4, m=0)
    with pytest.raises(DomainError):
        BoundQuery(b=4, n=1)
    with pytest.raises(DomainError):
        BoundQuery(b=4, t=0.0)
    with pytest.raises(DomainError):
        BoundQuery(b=4, c_compile=0.0)


def test_result_json_shape():
    res = diag_synthesis_lower_bound(
        BoundQuery(b=4, gate_set_size=100, mu=2, theta_max=1.0, delta=0.1)
    )
    doc = json.loads(res.to_json())
    assert set(doc) == {"bound", "vacuous", "constants"}
    assert doc["constants"]["log_base"] == LOG_BASE == "e"
    assert doc["bound"] == res.bound
    assert res.to_json() == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("accuracy", [1e-300, 1e-307, 1e-308, 1e-320, 5e-324])
def test_accuracies_near_the_float_floor_give_the_oracle_bounds(accuracy):
    # x / accuracy leaves the float range here, though its log stays near 710
    for fn, oracle, parts in (
        (diag_synthesis_lower_bound, diag_raw_oracle, None),
        (commuting_ham_lower_bound, ham_raw_oracle, ham_parts_oracle),
        (discrete_diag_lower_bound, discrete_raw_oracle, None),
        (coeff_oracle_lower_bound, coeff_raw_oracle, coeff_parts_oracle),
    ):
        q = BoundQuery(b=64, mu=2, theta_max=1.5, delta=accuracy, n=64, eps=accuracy, m=2000)
        res = fn(q)
        assert all(math.isfinite(v) for v in res.constants.values() if isinstance(v, float))
        scale = max(map(abs, parts(q))) if parts else None
        assert close_rel(res.constants["raw"], oracle(q), rel=1e-11, scale=scale)


HUGE = 10**200  # past the float range, as an integer flag may be


def test_integers_past_the_float_range_give_the_oracle_bound_or_a_capacity_error():
    # ln C(b, 2) and ln b stay finite for any b, so these bounds exist
    for fn, oracle, parts, q in (
        (diag_synthesis_lower_bound, diag_raw_oracle, None, BoundQuery(b=HUGE, mu=2, theta_max=1.5, delta=0.1)),
        (commuting_ham_lower_bound, ham_raw_oracle, ham_parts_oracle, BoundQuery(b=HUGE, n=64, eps=1e-3)),
        (discrete_diag_lower_bound, discrete_raw_oracle, None, BoundQuery(b=HUGE, mu=2, delta=0.01, m=3)),
        (coeff_oracle_lower_bound, coeff_raw_oracle, coeff_parts_oracle, BoundQuery(b=HUGE, n=64, eps=1e-3, m=3)),
    ):
        scale = max(map(abs, parts(q))) if parts else None
        assert close_rel(fn(q).constants["raw"], oracle(q), rel=1e-11, scale=scale)
    # n^2 and 2^mu do not: the bound itself leaves the float range
    for fn, q in (
        (commuting_ham_lower_bound, BoundQuery(b=64, n=HUGE, eps=1e-3)),
        (coeff_oracle_lower_bound, BoundQuery(b=4, n=HUGE, eps=0.2, m=3)),
        (diag_synthesis_lower_bound, BoundQuery(b=3000, mu=2000, theta_max=1.5, delta=0.1)),
        (discrete_diag_lower_bound, BoundQuery(b=3000, mu=2000, delta=0.2, m=3)),
    ):
        with pytest.raises(CapacityError, match="exceeds the float range"):
            fn(q)
    with pytest.raises(CapacityError, match="exceeds the float range"):
        volume_diag(2000, 1.5)


def test_a_forced_vacuous_bound_never_reads_its_raw_value():
    # t < eps, or an accuracy outside 2^-m..1/2, fixes the bound at 0 whatever raw holds
    for fn, q, unread in (
        (commuting_ham_lower_bound, BoundQuery(b=64, n=HUGE, eps=1e-3, t=1e-4), {"raw", "main_term"}),
        (coeff_oracle_lower_bound, BoundQuery(b=4, n=HUGE, eps=1e-3, m=3), {"raw", "main_term"}),
        (discrete_diag_lower_bound, BoundQuery(b=3000, mu=2000, delta=0.01, m=3), {"raw"}),
    ):
        result = fn(q)
        assert result.bound == 0.0 and result.vacuous
        assert {k for k, v in result.constants.items() if v is None} == unread
        assert all(math.isfinite(v) for v in result.constants.values() if isinstance(v, float))
        assert json.loads(result.to_json())["constants"]["raw"] is None
    # a finite raw value of a forced bound is still recorded
    result = commuting_ham_lower_bound(BoundQuery(b=64, n=64, eps=1e-3, t=1e-4))
    assert result.vacuous and result.constants["raw"] == result.constants["main_term"] - result.constants["overhead"]


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(2, 64),
    k=st.one_of(st.none(), st.integers(1, 4096)),
    mu=st.integers(0, 10),
    theta=st.floats(1e-3, 3.0),
    delta=st.floats(1e-4, 0.5),
    cc=st.floats(0.5, 4.0),
)
def test_diag_matches_oracle_everywhere(b, k, mu, theta, delta, cc):
    if b < mu:
        b = mu + 2
    q = BoundQuery(b=b, gate_set_size=k, mu=mu, theta_max=theta, delta=delta, c_compile=cc)
    if b == 2 and k == 1:
        # one pair, one gate: the per-step information vanishes
        with pytest.raises(DomainError):
            diag_synthesis_lower_bound(q)
        return
    res = diag_synthesis_lower_bound(q)
    raw = diag_raw_oracle(q)
    prefactor = mp.mpf(2) ** q.mu / mp_pair_denom(q, q.delta)
    assert close_rel(res.constants["raw"], raw, rel=1e-11, scale=prefactor)
    assert res.vacuous == (res.constants["raw"] <= 0.0)
    assert res.bound == max(res.constants["raw"], 0.0)


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(2, 64),
    k=st.one_of(st.none(), st.integers(2, 2048)),
    n=st.integers(4, 256),
    eps=st.floats(1e-5, 0.3),
    m=st.integers(20, 48),
    cred=st.floats(0.0, 2.0),
)
def test_window_bounds_match_oracle(b, k, n, eps, m, cred):
    q = BoundQuery(b=b, gate_set_size=k, n=n, eps=eps, m=m, c_red=cred, mu=min(b, 6), delta=0.3)
    for fn, oracle, parts in (
        (coeff_oracle_lower_bound, coeff_raw_oracle, coeff_parts_oracle),
        (discrete_diag_lower_bound, discrete_raw_oracle, None),
        (commuting_ham_lower_bound, ham_raw_oracle, ham_parts_oracle),
    ):
        res = fn(q)
        scale = max(map(abs, parts(q))) if parts else None
        assert close_rel(res.constants["raw"], oracle(q), rel=1e-11, scale=scale)
        assert res.bound >= 0.0
        if not res.vacuous:
            assert res.bound == res.constants["raw"]


def test_reduction_overhead_tracks_bound_model():
    # the subtracted c_red * n * ln^2(n/eps) term should price the actual
    # register-reduction circuitry: fixed-part gate count over n ln^2(n/eps)
    # stays within a narrow constant band
    from trotterforge.compilers import compile_hamming2_reduction

    eps = 1e-3
    ratios = []
    for n in (4, 8, 16):
        circ = compile_hamming2_reduction(coeff_matrix(n, {(1, 2): 0.1}))
        phases = sum(g.name == "CPHASE" for g in circ.gates)
        fixed = circ.cost() - phases
        w = n.bit_length() - 1
        assert fixed == 4 * n * (2 * w + 3)
        ratios.append(fixed / (n * math.log(n / eps) ** 2))
    print("overhead/model ratios:", ratios)
    assert max(ratios) / min(ratios) < 2.0
    assert all(0.1 < r < 1.0 for r in ratios)
