import math
from pathlib import Path

import numpy as np
import pytest

from conftest import coeff_matrix
from trotterforge.decomp import lowrank_decompose
from trotterforge.errors import DomainError, TrotterForgeError, ValidationError
from trotterforge.hamlib import HamiltonianSpec, PauliKind, build_power_law, spec_from_json
from trotterforge.lowrank import rank_profile, truncated_svd
from trotterforge.trotter import induced_1norm

ZZ = (PauliKind.Z, PauliKind.Z)


# -- oracles --------------------------------------------------------------------


def dense_rank_oracle(block, tol):
    """Rank at spectral tolerance straight from a full SVD."""
    s = np.linalg.svd(np.asarray(block, dtype=float), compute_uv=False)
    return int(np.sum(s > tol))


def spectral_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def cauchy_block(n):
    u = np.arange(1, n + 1)[:, None]
    v = np.arange(1, n + 1)[None, :]
    return 1.0 / (u + v)


def profile_oracle(spec, dec, tol):
    """rho_max recomputed with the dense SVD oracle over every far-field block."""
    best = 0
    for mat in spec.two_local.values():
        for pair in dec.far_field:
            block = mat.block(pair.cross_region())
            best = max(best, dense_rank_oracle(block, tol))
    return max(1, best)


# -- truncated_svd -----------------------------------------------------------------


def test_outer_product_rank_one():
    a = np.outer([1.0, 2.0, 3.0], [4.0, 0.5, -1.0, 2.0])
    fac = truncated_svd(a, 1e-10)
    assert fac.rank == 1
    assert fac.residual < 1e-12
    assert spectral_norm(a - fac.reconstruct()) < 1e-12


def test_zero_block_rank_zero():
    fac = truncated_svd(np.zeros((5, 3)), 1e-6)
    assert fac.rank == 0
    assert fac.left.shape == (5, 0) and fac.right.shape == (3, 0)
    assert fac.singulars.size == 0


@pytest.mark.parametrize("tol, rank, residual", [(4.0, 0, 3.0), (0.5, 2, 0.25), (0.2, 3, 0.0), (1e-3, 3, 0.0)])
def test_residual_is_the_first_singular_value_cut_or_zero_at_full_rank(tol, rank, residual):
    fac = truncated_svd(np.diag([3.0, 2.0, 0.25])[:, ::-1], tol)
    assert (fac.rank, fac.residual) == (rank, residual)


def test_cauchy_block_matches_dense_oracle():
    block = cauchy_block(32)
    tol = 1e-8
    fac = truncated_svd(block, tol)
    assert fac.rank == dense_rank_oracle(block, tol)
    assert spectral_norm(block - fac.reconstruct()) <= tol


def test_factor_columns_orthonormal():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((12, 7))
    fac = truncated_svd(block, 1e-3)
    assert np.abs(fac.left.T @ fac.left - np.eye(fac.rank)).max() < 1e-10
    assert np.abs(fac.right.T @ fac.right - np.eye(fac.rank)).max() < 1e-10
    assert np.all(np.diff(fac.singulars) <= 1e-12)  # non-increasing
    assert np.all(fac.singulars >= 0)


def test_singular_values_bounded_by_induced_norms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        block = rng.standard_normal((9, 9)) * rng.integers(1, 5)
        fac = truncated_svd(block, 1e-12)
        col1 = np.abs(block).sum(axis=0).max()
        row1 = np.abs(block).sum(axis=1).max()
        assert np.all(fac.singulars <= np.sqrt(col1 * row1) + 1e-9)


def test_truncated_svd_input_errors():
    with pytest.raises(DomainError):
        truncated_svd(np.eye(2), 0.0)
    with pytest.raises(ValidationError):
        truncated_svd(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1e-6)
    with pytest.raises(ValidationError):
        truncated_svd(np.ones(4), 1e-6)


def test_reconstruction_error_within_tol_random():
    rng = np.random.default_rng(21)
    for tol in (1e-1, 1e-3, 1e-6):
        block = rng.standard_normal((16, 16))
        fac = truncated_svd(block, tol)
        assert spectral_norm(block - fac.reconstruct()) <= tol


def test_rank_monotone_in_tol():
    block = cauchy_block(24)
    tols = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    ranks = [truncated_svd(block, t).rank for t in tols]
    assert ranks == sorted(ranks)


# -- rank_profile -----------------------------------------------------------------


def test_constant_spec_profile():
    mat = coeff_matrix(
        16, {(j, k): 2.0 for j in range(1, 17) for k in range(j + 1, 17)}
    )
    spec = HamiltonianSpec(16, 1, {ZZ: mat}, {})
    profile = rank_profile(spec, lowrank_decompose(16, 2), tol=1.0)
    assert profile.rho_max == 1
    assert all(row.rank == 1 for row in profile.rows)


def test_profile_floor_rule():
    spec = HamiltonianSpec(8, 1, {ZZ: coeff_matrix(8, {})}, {})
    profile = rank_profile(spec, lowrank_decompose(8, 2), tol=1e-6)
    assert all(row.rank == 0 for row in profile.rows)
    assert profile.rho_max == 1


def test_profile_matches_dense_oracle():
    spec = build_power_law(64, 1, 1.0)
    dec = lowrank_decompose(64, 4)
    for tol in (1e-3, 1e-6):
        assert rank_profile(spec, dec, tol).rho_max == profile_oracle(spec, dec, tol)


def truncated_svd_profile(spec, dec, tol):
    """(rank, residual) of every rank_profile row, from truncated_svd over the same far blocks."""
    return [
        (fac.rank, fac.residual)
        for mat in spec.two_local.values()
        for fac in (truncated_svd(mat.block(pair.cross_region()), tol) for pair in dec.far_field)
    ]


def assert_profile_matches_truncated_svd(spec, dec, tol):
    rows = rank_profile(spec, dec, tol).rows
    want = truncated_svd_profile(spec, dec, tol)
    assert [r.rank for r in rows] == [rank for rank, _ in want]
    for row, (_, residual) in zip(rows, want):
        assert (row.residual == residual == 0.0) or math.isclose(row.residual, residual, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("sign_rule", ["all-positive", "alternating", "seeded-random"])
def test_values_only_profile_matches_truncated_svd_on_chains(sign_rule, tol):
    spec = build_power_law(256, 1, 1.5, ZZ, sign_rule, seed=1)
    assert_profile_matches_truncated_svd(spec, lowrank_decompose(256, 4), tol)


def golden_specs():
    """(file name, spec) of every golden spec file that loads; the others are malformed on purpose."""
    specs = []
    for path in sorted((Path(__file__).resolve().parent / "golden" / "specs").glob("*.json")):
        try:
            specs.append(pytest.param(spec_from_json(path.read_text()), id=path.name))
        except TrotterForgeError:
            pass
    return specs


@pytest.mark.parametrize("spec", golden_specs())
def test_values_only_profile_matches_truncated_svd_on_golden_specs(spec):
    for tol in (1e-3, 1e-6, 1e-9):
        assert_profile_matches_truncated_svd(spec, lowrank_decompose(spec.n, 1), tol)


def test_profile_rows_are_group_major():
    xx = (PauliKind.X, PauliKind.X)
    spec = HamiltonianSpec(
        16,
        1,
        {
            ZZ: build_power_law(16, 1, 1.0).two_local[ZZ],
            xx: build_power_law(16, 1, 2.0, xx, "seeded-random", 3).two_local[xx],
        },
        {},
    )
    dec = lowrank_decompose(16, 2)
    want = []
    for s1, s2 in (xx, ZZ):  # tag order, whatever order the spec was given
        for pair in dec.far_field:
            block = spec.two_local[(s1, s2)].block(pair.cross_region())
            want.append((pair.layer, pair.block, s1.value, s2.value, dense_rank_oracle(block, 1e-6)))
    rows = rank_profile(spec, dec, 1e-6).rows
    assert [(r.layer, r.block, r.sigma, r.sigma2, r.rank) for r in rows] == want


def test_profile_rejects_mismatched_n():
    spec = build_power_law(16, 1, 1.0)
    with pytest.raises(ValidationError):
        rank_profile(spec, lowrank_decompose(8, 2), 1e-6)


def test_profile_log_growth_alpha1():
    spec = build_power_law(256, 1, 1.0)
    dec = lowrank_decompose(256, 4)
    rho = rank_profile(spec, dec, 1e-6).rho_max
    # slowly growing with 1/tol; single-digit at this scale
    assert rho <= 2 + 3 * np.log(1e6)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_log_rank_sweep(alpha):
    spec = build_power_law(256, 1, alpha)
    dec = lowrank_decompose(256, 4)
    tols = np.array([1e-2, 1e-4, 1e-6, 1e-8])
    ranks = np.array([rank_profile(spec, dec, t).rho_max for t in tols], dtype=float)
    assert np.all(np.diff(ranks) >= 0)
    x = np.log(1.0 / tols)
    coeffs = np.polyfit(x, ranks, 1)
    fitted = np.polyval(coeffs, x)
    ss_res = float(np.sum((ranks - fitted) ** 2))
    ss_tot = float(np.sum((ranks - ranks.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    assert r2 >= 0.9


def test_profile_csv_shape():
    spec = build_power_law(8, 1, 2.0)
    text = rank_profile(spec, lowrank_decompose(8, 2), 1e-6).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "layer,block,pauliPair,rank,residual"
    assert len(lines) == 1 + 3  # three far-field blocks


def test_singular_bound_on_power_law_blocks():
    spec = build_power_law(32, 1, 1.5)
    mat = spec.two_local[ZZ]
    dec = lowrank_decompose(32, 4)
    for pair in dec.far_field:
        block = mat.block(pair.cross_region())
        fac = truncated_svd(block, 1e-12)
        col1 = np.abs(block).sum(axis=0).max()
        row1 = np.abs(block).sum(axis=1).max()
        assert np.all(fac.singulars <= np.sqrt(col1 * row1) + 1e-9)
    # the full-matrix induced norm dominates every block's column norm
    assert induced_1norm(mat.data + mat.data.T) >= max(
        np.abs(mat.block(p.cross_region())).sum(axis=0).max()
        for p in dec.far_field
    )
