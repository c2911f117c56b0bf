import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trotterforge.chem import (
    ElectronicSystem,
    build_uniform_electron_gas,
    chem_step_count,
    external_potential_strength,
    jw_matrix,
    norm_scaling_report,
    system_to_json,
)
from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.trotter import fermionic_error_norms


# -- oracles --------------------------------------------------------------------

def site_coords(g):
    # site index = x * g^2 + y * g + z
    return [(i // (g * g), (i // g) % g, i % g) for i in range(g**3)]


def min_image_dist(a, b, g):
    return math.sqrt(sum(min(abs(x - y), g - abs(x - y)) ** 2 for x, y in zip(a, b)))


def nu_oracle(g, omega):
    n = g**3
    coords = site_coords(g)
    out = np.zeros((n, n))
    for l in range(n):
        for m in range(n):
            if l != m:
                d = min_image_dist(coords[l], coords[m], g)
                out[l, m] = n ** (1 / 3) / (2 * omega ** (1 / 3) * d)
    return out


def top_eta_row_sum(mat, eta):
    return max(np.sort(row)[-eta:].sum() for row in mat)


def number_op(j, dim_n):
    # diagonal occupation of mode j (1-based), bit j-1 of the state index
    idx = np.arange(1 << dim_n)
    return np.diag(((idx >> (j - 1)) & 1).astype(complex))


# -- grid construction ----------------------------------------------------------

def test_coulomb_entries_smallest_grid():
    s = build_uniform_electron_gas(2, 8.0)
    assert s.n == 8 and s.grid == 2 and s.eta == 4
    assert s.nu[0, 1] == 0.5  # n^(1/3) / (2 omega^(1/3)), unit distance
    assert math.isclose(s.nu[0, 7], 1.0 / (2.0 * math.sqrt(3.0)), rel_tol=1e-14)
    assert np.all(np.diag(s.nu) == 0.0)
    assert np.allclose(s.nu, nu_oracle(2, 8.0), atol=1e-14)


@pytest.mark.parametrize("g,omega", [(2, 1.0), (3, 27.0), (4, 10.0)])
def test_coulomb_matches_direct_enumeration(g, omega):
    s = build_uniform_electron_gas(g, omega)
    assert np.allclose(s.nu, nu_oracle(g, omega), atol=1e-13)
    assert np.allclose(s.nu, s.nu.T)


def test_kinetic_stencil_accumulates_wraps():
    # at g=2 both wraps per axis hit the same neighbor: -2 * scale there
    s = build_uniform_electron_gas(2, 8.0)
    scale = (8.0 / 8.0) ** (2 / 3) / 2.0
    row = s.tau[0].real
    assert row[0] == 6.0 * scale
    np.testing.assert_allclose(row, [3.0, -1.0, -1.0, 0.0, -1.0, 0.0, 0.0, 0.0])


def test_kinetic_rows_sum_to_zero():
    for g in (2, 3, 4):
        s = build_uniform_electron_gas(g, float(g**3))
        assert np.abs(s.tau.sum(axis=1)).max() < 1e-12
        assert np.abs(s.tau - s.tau.conj().T).max() == 0.0


def test_kinetic_norm_at_unit_density():
    # omega = n pins scale to 1/2, so the row 1-norm is 12 * scale = 6
    s = build_uniform_electron_gas(3, 27.0)
    t1, _ = fermionic_error_norms(np.abs(s.tau), s.nu, s.eta)
    assert t1 == 6.0


def test_build_domain():
    with pytest.raises(DomainError):
        build_uniform_electron_gas(1, 1.0)
    with pytest.raises(DomainError):
        build_uniform_electron_gas(3, 0.0)


def test_a_kinetic_scale_past_the_float_range_is_a_capacity_error():
    # (n / omega)^(2/3) / 2 overflows, where it used to give an infinite tau and a Hermiticity warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError, match=r"^the kinetic scale at n=8, omega=1e-320 exceeds the float range$"):
            build_uniform_electron_gas(2, 1e-320)
        assert np.isfinite(build_uniform_electron_gas(2, 1e-300).tau).all()


# -- external potential ----------------------------------------------------------

def test_external_potential_against_enumeration():
    s = build_uniform_electron_gas(2, 8.0, nuclei=[(2.0, (0.5, 0.0, 0.0))])
    got = external_potential_strength(s)
    best = 0.0
    for site in itertools.product(range(2), repeat=3):
        d = min_image_dist(site, (0.5, 0.0, 0.0), 2)
        best = max(best, 2.0 / d)
    assert math.isclose(got, best, rel_tol=1e-14)
    assert got == 4.0


def test_external_potential_edge_cases():
    assert external_potential_strength(build_uniform_electron_gas(2, 8.0)) == 0.0
    with pytest.raises(DomainError):
        external_potential_strength(
            build_uniform_electron_gas(2, 8.0, nuclei=[(1.0, (0.0, 0.0, 0.0))])
        )
    bare = ElectronicSystem(2, 1, 1.0, np.eye(2), np.zeros((2, 2)),
                            nuclei=((1.0, (0.5, 0.5, 0.5)),))
    with pytest.raises(ValidationError):
        external_potential_strength(bare)


# -- system validation -----------------------------------------------------------

def test_system_validation():
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        ElectronicSystem(2, 1, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]), zero)
    with pytest.raises(ValidationError):
        ElectronicSystem(2, 1, 1.0, eye, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        ElectronicSystem(2, 1, 1.0, eye, np.array([[0.3, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        ElectronicSystem(2, 1, 1.0, np.eye(3), zero)
    with pytest.raises(DomainError):
        ElectronicSystem(2, 3, 1.0, eye, zero)
    with pytest.raises(ValidationError):
        ElectronicSystem(8, 4, 1.0, np.eye(8), np.zeros((8, 8)), grid=3)
    with pytest.raises(ValidationError):
        ElectronicSystem(2, 1, 1.0, eye, zero, nuclei=((1.0, (0.5, 0.5)),))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_system_refuses_non_finite_coefficients(bad):
    eye, zero = np.eye(2), np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf in the Hermiticity test warned before
        with pytest.raises(ValidationError, match="^tau and nu entries must be finite$"):
            ElectronicSystem(2, 1, 1.0, np.diag([bad, 1.0]), zero)
        with pytest.raises(ValidationError, match="^tau and nu entries must be finite$"):
            ElectronicSystem(2, 1, 1.0, eye, np.array([[0.0, bad], [bad, 0.0]]))


# -- dense encoded instances ------------------------------------------------------

def test_encoding_satisfies_fermion_algebra():
    from trotterforge.chem import _annihilation

    n = 3
    ann = [_annihilation(j, n) for j in range(1, n + 1)]
    eye = np.eye(1 << n)
    for j in range(n):
        for k in range(n):
            anti = ann[j] @ ann[k].conj().T + ann[k].conj().T @ ann[j]
            target = eye if j == k else 0.0 * eye
            assert np.abs(anti - target).max() < 1e-14
            assert np.abs(ann[j] @ ann[k] + ann[k] @ ann[j]).max() < 1e-14


def test_single_hopping_spectrum():
    tau = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = ElectronicSystem(2, 1, 1.0, tau, np.zeros((2, 2)))
    h, t, v = jw_matrix(s)
    assert np.abs(v).max() == 0.0
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(t)), [-1.0, 0.0, 0.0, 1.0],
                               atol=1e-12)
    assert np.abs(h - t).max() == 0.0


def test_interaction_is_pairwise_occupation():
    nu = np.zeros((2, 2))
    nu[0, 1] = nu[1, 0] = 0.3
    s = ElectronicSystem(2, 1, 1.0, np.zeros((2, 2)), nu)
    _, _, v = jw_matrix(s)
    # only |11> (index 3) picks up the pair coefficient
    np.testing.assert_allclose(np.diag(v).real, [0.0, 0.0, 0.0, 0.3], atol=1e-14)
    assert np.abs(v - np.diag(np.diag(v))).max() == 0.0


def test_encoded_parts_commute_with_total_occupation():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    tau = a + a.conj().T
    b = np.triu(rng.uniform(0.1, 1.0, size=(4, 4)), k=1)
    nu = b + b.T
    s = ElectronicSystem(4, 2, 1.0, tau, nu)
    h, t, v = jw_matrix(s)
    assert np.abs(h - (t + v)).max() < 1e-12
    total_n = sum(number_op(j, 4) for j in range(1, 5))
    for mat in (h, t, v):
        assert np.abs(mat @ total_n - total_n @ mat).max() < 1e-10


def test_encoding_capacity(fake_physical_memory):
    n = 11
    fake_physical_memory(1)
    with pytest.raises(CapacityError, match=r"^a dense 11-mode Jordan-Wigner encoding .* needs 1.1 GiB"):
        jw_matrix(ElectronicSystem(n, 1, 1.0, np.eye(n), np.zeros((n, n))))


def test_electron_gas_is_sized_before_its_first_allocation(fake_physical_memory):
    fake_physical_memory(0.01)  # 10.7 MB: 88 n^2 B fits at g = 6 (n = 216), not at g = 8 (n = 512)
    assert build_uniform_electron_gas(6, 216.0).n == 216
    with pytest.raises(CapacityError, match=r"^an electron gas on a 8\^3 grid needs"):
        build_uniform_electron_gas(8, 512.0)


def test_an_electron_gas_past_memory_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^an electron gas on a 200\^3 grid needs"):
            build_uniform_electron_gas(200, 8e6)  # 5.6e15 B
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- step-count calculator ---------------------------------------------------------

def test_step_count_reference_instance():
    s = build_uniform_electron_gas(4, 64.0, eta=8)
    assert chem_step_count(s, 1.0, 0.01, 2) == 416
    # independent recomputation from the raw coefficient arrays
    t1 = np.abs(s.tau).sum(axis=1).max()
    v1 = top_eta_row_sum(s.nu, 8)
    alpha = (t1 + v1) ** (2 - 1) * t1 * v1 * 8
    expected = max(1, math.ceil((alpha * 1.0**3 / 0.01) ** (1 / 2)))
    assert chem_step_count(s, 1.0, 0.01, 2) == expected


def test_step_count_free_fermions():
    s = ElectronicSystem(3, 2, 1.0, np.eye(3), np.zeros((3, 3)))
    assert chem_step_count(s, 1.0, 1e-3, 2) == 1  # stages commute, zero bound


def test_step_count_constant_and_domain():
    s = build_uniform_electron_gas(2, 8.0)
    r1 = chem_step_count(s, 0.5, 1e-2, 1)
    r2 = chem_step_count(s, 0.5, 1e-2, 1, constant=4.0)
    assert r2 >= r1
    t1 = np.abs(s.tau).sum(axis=1).max()
    v1 = top_eta_row_sum(s.nu, s.eta)
    assert r2 == max(1, math.ceil(4.0 * t1 * v1 * s.eta * 0.5**2 / 1e-2))
    with pytest.raises(DomainError):
        chem_step_count(s, 0.5, 1e-2, 1, constant=0.0)


# -- scaling report -----------------------------------------------------------------

def test_norm_report_unit_density_defaults():
    rep = norm_scaling_report()
    assert [r.g for r in rep.rows] == list(range(3, 10))
    for row in rep.rows:
        assert row.n == row.g**3 and row.omega == float(row.n)
        assert row.eta == row.n // 2
        assert row.ratio_tau == 6.0  # stencil norm is exactly 12 * scale
    spread = rep.ratio_spread("nu")
    print("coulomb ratio spread:", spread)
    assert spread < 3.0
    assert rep.ratio_spread("tau") == 1.0


def test_norm_report_rows_match_direct_norms():
    rep = norm_scaling_report(grid_sides=(3, 4), omega=30.0, eta=5)
    for row in rep.rows:
        s = build_uniform_electron_gas(row.g, 30.0)
        t1 = np.abs(s.tau).sum(axis=1).max()
        v1 = top_eta_row_sum(s.nu, 5)
        assert math.isclose(row.tau_norm, t1, rel_tol=1e-13)
        assert math.isclose(row.nu_norm, v1, rel_tol=1e-13)
        assert math.isclose(row.ratio_nu,
                            v1 / (5 ** (2 / 3) * row.n ** (1 / 3) / 30.0 ** (1 / 3)),
                            rel_tol=1e-13)


def test_norm_report_csv():
    rep = norm_scaling_report(grid_sides=(3, 4))
    lines = rep.to_csv().splitlines()
    assert lines[0] == "g,n,omega,eta,tau_norm,nu_eta_norm,ratio_tau,ratio_nu"
    assert len(lines) == 3
    assert lines[1].startswith("3,27,27.0,13,")


def test_norm_report_eta_domain():
    with pytest.raises(DomainError):
        norm_scaling_report(grid_sides=(3,), eta=100)


# -- serialization --------------------------------------------------------------------

def test_json_document():
    s = build_uniform_electron_gas(3, 20.0, eta=7, nuclei=[(6.0, (1.5, 0.5, 0.5))])
    doc = json.loads(system_to_json(s))
    assert doc == {"grid": 3, "omega": 20.0, "eta": 7, "nuclei": [{"charge": 6.0, "pos": [1.5, 0.5, 0.5]}]}


def test_json_rejects_bare_system():
    s = ElectronicSystem(2, 1, 1.0, np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        system_to_json(s)
