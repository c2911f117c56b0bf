import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.hamlib import PAULI_MATRICES, HamiltonianSpec, PauliKind, build_power_law, nonzero_terms, pauli_table
from trotterforge.trotter import (
    TrotterErrorReport,
    commutator_norm_sum,
    error_report_csv,
    fermionic_error_norms,
    induced_1norm,
    pauli_commutator_sum,
    restricted_induced_1norm,
    steps_for,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0 + 0j, -1.0])


# -- oracles --------------------------------------------------------------------


def comm(a, b):
    return a @ b - b @ a


def nested_sum_oracle(stages, p):
    """Direct (p+1)-tuple enumeration, innermost index first."""
    total = 0.0
    idx = [0] * (p + 1)
    count = len(stages)
    while True:
        m = stages[idx[0]]
        for i in idx[1:]:
            m = comm(stages[i], m)
        total += float(np.linalg.norm(m, 2))
        for pos in range(p + 1):
            idx[pos] += 1
            if idx[pos] < count:
                break
            idx[pos] = 0
        else:
            return total


def kron_term(string, n):
    """Dense Pauli string on n qubits, qubit q on bit q-1 of the basis index."""
    axes = dict(string)
    out = PAULI_MATRICES[axes.get(n, PauliKind.I)]
    for q in range(n - 1, 0, -1):
        out = np.kron(out, PAULI_MATRICES[axes.get(q, PauliKind.I)])
    return out


def pauli_spec(n, tags, seed, onsite=""):
    """Seeded-random power-law groups plus seeded on-site fields with one zero site each."""
    pairs = [(PauliKind.from_tag(t[0]), PauliKind.from_tag(t[1])) for t in tags]
    groups = {
        pair: build_power_law(n, 1, 1.5, pair, "seeded-random", seed + i).two_local[pair]
        for i, pair in enumerate(pairs)
    }
    rng = np.random.default_rng(seed)
    fields = {}
    for tag in onsite:
        vec = rng.uniform(-1.0, 1.0, n)
        vec[rng.integers(n)] = 0.0
        fields[PauliKind.from_tag(tag)] = vec
    return HamiltonianSpec(n, 1, groups, fields)


def top_eta_oracle(matrix, eta):
    return max(sum(sorted(np.abs(row), reverse=True)[:eta]) for row in matrix)


# -- commutator sums -----------------------------------------------------------------


def test_xz_first_order():
    assert commutator_norm_sum([X, Z], 1) == pytest.approx(4.0)


def test_commuting_stages_vanish():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([0.5, -1.0, 2.0])
    assert commutator_norm_sum([a, b], 1) == pytest.approx(0.0, abs=1e-12)
    assert commutator_norm_sum([a, b], 2) == pytest.approx(0.0, abs=1e-12)


def test_single_stage_vanishes():
    assert commutator_norm_sum([X], 1) == 0.0
    assert commutator_norm_sum([X], 3) == 0.0


@pytest.mark.parametrize(
    "p, count, dim",
    [
        pytest.param(1, 3, 4, id="1"),
        pytest.param(2, 3, 4, id="2"),
        pytest.param(3, 3, 4, id="3"),
        pytest.param(1, 4, 128, id="1-dim128"),
        pytest.param(2, 4, 128, id="2-dim128"),
    ],
)
def test_commutator_sum_matches_enumeration(p, count, dim):
    rng = np.random.default_rng(p)
    stages = []
    for _ in range(count):
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        stages.append((raw + raw.conj().T) / 2.0)
    assert commutator_norm_sum(stages, p) == pytest.approx(nested_sum_oracle(stages, p))


def test_commutator_sum_permutation_invariant():
    rng = np.random.default_rng(8)
    stages = [rng.standard_normal((4, 4)) for _ in range(3)]
    stages = [(s + s.T) / 2 for s in stages]
    forward = commutator_norm_sum(stages, 2)
    assert commutator_norm_sum(stages[::-1], 2) == pytest.approx(forward)


def test_commutator_caps(fake_physical_memory):
    with pytest.raises(DomainError):
        commutator_norm_sum([X, Z], 4)
    fake_physical_memory(0.125)
    with pytest.raises(CapacityError, match="^a commutator sum over 1 stages of dimension 2048 needs"):
        commutator_norm_sum([np.eye(2048)], 1)  # 4 x 64 MiB
    with pytest.raises(ValidationError):
        commutator_norm_sum([X, np.eye(4)], 1)


PAULI_SUM_CASES = [
    pytest.param(n, tags, onsite, id=f"{'+'.join(tags)}{'+' + onsite if onsite else ''}-n{n}")
    for n, tags, onsite in [
        (3, ["xz"], ""),
        (4, ["xz"], ""),
        (6, ["xz"], ""),
        (4, ["xy"], ""),
        (5, ["xy"], ""),
        (3, ["yy"], ""),
        (5, ["yy"], "x"),
        (3, ["xx", "zz"], "xz"),
        (4, ["xz", "yy"], "xz"),
        (4, ["zx", "xz"], "xz"),
    ]
]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n, tags, onsite", PAULI_SUM_CASES)
def test_pauli_commutator_sum_matches_brute_force(n, tags, onsite, p):
    spec = pauli_spec(n, tags, seed=n + p, onsite=onsite)
    stages = [
        coeff * kron_term(list(zip(sites, kinds)), n)
        for kinds, coeffs in spec.term_groups()
        for sites, coeff in nonzero_terms(coeffs)
    ]
    table = pauli_table(spec)
    fast = pauli_commutator_sum(table.x, table.z, table.coeff, p)
    assert fast > 0.0 or tags == ["yy"] and not onsite  # YY terms alone all commute
    assert fast == pytest.approx(commutator_norm_sum(stages, p), rel=1e-12, abs=0.0)


def test_pauli_commutator_sum_small_cases():
    # X and Z on one qubit: ||[Z, X]|| + ||[X, Z]|| = 4; Z and Z commute
    assert pauli_commutator_sum([1, 0], [0, 1], [1.0, -1.0], 1) == 4.0
    assert pauli_commutator_sum([0, 0], [1, 1], [1.0, 2.0], 2) == 0.0
    assert pauli_commutator_sum([], [], [], 2) == 0.0
    with pytest.raises(DomainError):
        pauli_commutator_sum([1], [0], [1.0], 3)
    with pytest.raises(ValidationError):
        pauli_commutator_sum([1, 2], [0], [1.0, 1.0], 1)


# -- step counts -----------------------------------------------------------------------


def test_step_count_examples():
    assert steps_for(0.0, 1.0, 0.1, 2) == 1
    assert steps_for(4.0, 1.0, 0.1, 1) == 40
    assert steps_for(4.0, 1.0, 0.1, 2) == 7


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 50.0),
    st.floats(0.05, 2.0),
    st.floats(0.001, 0.5),
    st.integers(1, 4),
)
def test_step_count_eps_halving(alpha, t, eps, p):
    coarse = steps_for(alpha, t, eps * (2.0**p), p)
    fine = steps_for(alpha, t, eps, p)
    # raw ratio is exactly 2; rounding allows one unit of slack
    assert fine <= 2 * coarse + 1
    assert fine >= max(1, 2 * coarse - 2)


def test_step_count_domain():
    with pytest.raises(DomainError):
        steps_for(-1.0, 1.0, 0.1, 1)
    with pytest.raises(DomainError):
        steps_for(1.0, 0.0, 0.1, 1)


# -- fermionic norms --------------------------------------------------------------------


def test_identity_hopping_norm():
    t1, _ = fermionic_error_norms(np.eye(4), np.zeros((4, 4)), 2)
    assert t1 == 1.0


def test_restricted_norm_picks_top_row():
    nu = np.zeros((4, 4))
    nu[1] = [3.0, 1.0, 0.5, 0.2]
    _, v1 = fermionic_error_norms(np.eye(4), nu, 2)
    assert v1 == 4.0
    assert v1 == top_eta_oracle(nu, 2)


def test_zero_interaction_norm():
    assert fermionic_error_norms(np.eye(4), np.zeros((4, 4)), 3) == (1.0, 0.0)


def test_fermionic_norms_of_a_random_system():
    rng = np.random.default_rng(12)
    tau = rng.standard_normal((5, 5))
    nu = rng.standard_normal((5, 5))
    t1, v1 = fermionic_error_norms(tau, nu, 3)
    assert t1 == pytest.approx(np.abs(tau).sum(axis=1).max())
    assert v1 == pytest.approx(top_eta_oracle(nu, 3))


def test_norm_eta_range():
    with pytest.raises(DomainError):
        restricted_induced_1norm(np.eye(3), 0)
    with pytest.raises(DomainError):
        fermionic_error_norms(np.eye(3), np.eye(3), 4)


def test_induced_norm_includes_diagonal():
    m = np.array([[2.0, -1.0], [0.5, 0.25]])
    assert induced_1norm(m) == 3.0


def test_induced_norm_complex_magnitudes():
    # complex hopping amplitudes count by modulus, not by real part
    m = np.array([[0.0, 3.0 + 4.0j], [3.0 - 4.0j, 0.0]])
    assert induced_1norm(m) == 5.0
    assert restricted_induced_1norm(m, 1) == 5.0


# -- reports ------------------------------------------------------------------------------


def test_error_report_csv_format():
    reports = [
        TrotterErrorReport("sequential", 2, 0.5, 4.0, 0.125, 1e-3, 7),
        TrotterErrorReport("lowrank", 1, 0.5, 4.0, 0.5, None, 40),
    ]
    lines = error_report_csv(reports).strip().split("\n")
    assert lines[0] == "method,p,t,alpha_comm,bound,empirical,r"
    assert lines[1].startswith("sequential,2,0.5,4.0,0.125,0.001,7")
    assert lines[2].endswith(",40")
    assert ",," in lines[2]  # empirical empty when unmeasured


def test_report_validation():
    with pytest.raises(ValidationError):
        TrotterErrorReport("x", 1, 1.0, 1.0, 1.0, None, 0)
    with pytest.raises(ValidationError):
        TrotterErrorReport("x", 1, 1.0, -1.0, 1.0, None, 1)
