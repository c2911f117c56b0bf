import math

import numpy as np
import pytest

from trotterforge.blockenc import (
    BlockEncoding,
    block_prep_cost,
    block_select_cost,
    build_boxed_preparation,
    build_lcu_encoding,
    cell_prep_cost,
    cell_select_cost,
    qubitization_step_count,
    walk_invariant_phases,
    walk_operator,
)
from trotterforge.decomp import bisection_decompose, nested_boxes, pair_box_norms
from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.hamlib import IndexRegion, PauliKind, build_power_law

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, -1.0])


# -- oracles --------------------------------------------------------------------


def step_count_oracle(tau, eps):
    r = math.ceil(max(2.0, math.e * tau + math.log(1.0 / eps)))
    return r if r % 2 == 0 else r + 1


def box_norm_oracle(block, boxes):
    b = np.abs(block)
    half = len(b)
    total = 0.0
    for box in boxes:
        sub = b[box.u.start + half : box.u.stop + half, box.v.start - 1 : box.v.stop - 1]
        total += box.weight * sub.max()
    return total


def unitary_residual(u):
    return np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()


# -- LCU encodings -----------------------------------------------------------------


def test_single_term_identity_encoding():
    enc = build_lcu_encoding([(1.0, Z)])
    assert enc.lam == 1.0
    assert np.abs(enc.encoded() - Z).max() < 1e-12
    assert enc.hermitian


def test_two_term_half_weights():
    enc = build_lcu_encoding([(0.5, X), (0.5, Z)])
    assert enc.lam == pytest.approx(1.0)
    assert np.abs(enc.encoded() - (X + Z) / 2.0).max() < 1e-10


def test_unequal_weights():
    enc = build_lcu_encoding([(2.0, X), (1.0, Z)])
    assert enc.lam == pytest.approx(3.0)
    assert np.abs(enc.encoded() - (2 * X + Z) / 3.0).max() < 1e-10


def test_lcu_isometry_and_unitarity():
    rng = np.random.default_rng(4)
    terms = [(float(w), m) for w, m in zip(rng.uniform(0.2, 2.0, 3), (X, Z, X @ Z))]
    enc = build_lcu_encoding(terms)
    assert np.abs(enc.g0.conj().T @ enc.g0 - np.eye(2)).max() < 1e-10
    assert unitary_residual(enc.u) < 1e-9
    h = sum(w * m for w, m in terms)
    assert np.abs(enc.encoded() - h / enc.lam).max() < 1e-9


def test_lcu_rejects_bad_terms():
    with pytest.raises(DomainError):
        build_lcu_encoding([(0.0, Z)])
    with pytest.raises(ValidationError):
        build_lcu_encoding([])
    with pytest.raises(ValidationError):
        build_lcu_encoding([(1.0, Z), (1.0, np.eye(4))])


# -- boxed preparation ---------------------------------------------------------------


def test_uniform_block_success_one():
    block = np.full((4, 4), 0.3)
    prep = build_boxed_preparation(block)
    assert prep.success_probability == pytest.approx(1.0)
    assert prep.encoding_error == 0.0
    assert np.allclose(prep.state, 0.25)
    assert np.linalg.norm(prep.state) == pytest.approx(1.0)


def test_power_law_half_block_success():
    spec = build_power_law(16, 1, 2.0)
    mat = spec.two_local[(PauliKind.Z, PauliKind.Z)]
    block = mat.block(IndexRegion(range(1, 9), range(9, 17)))
    prep = build_boxed_preparation(block)
    assert prep.success_probability >= 0.25
    assert prep.success_probability == pytest.approx(
        np.abs(block).sum() / box_norm_oracle(block, nested_boxes(8))
    )


def test_finite_resolution_error_bound():
    rng = np.random.default_rng(9)
    block = rng.uniform(0.0, 1.0, (8, 8))
    xi = 1 << 20
    prep = build_boxed_preparation(block, xi=xi)
    assert prep.encoding_error <= block.size * np.abs(block).max() / xi
    assert np.all(prep.coeffs >= np.abs(block) - 1e-15)  # rounding is upward


def test_resolution_error_slope():
    rng = np.random.default_rng(2)
    block = rng.uniform(0.1, 1.0, (8, 8))
    xis = np.array([1 << 8, 1 << 12, 1 << 16], dtype=float)
    errs = [
        build_boxed_preparation(block, xi=int(x)).encoding_error
        for x in xis
    ]
    slope = np.polyfit(np.log(xis), np.log(errs), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_zero_block_degenerate():
    prep = build_boxed_preparation(np.zeros((4, 4)))
    assert prep.success_probability == 0.0
    assert prep.state.size == 0


def test_preparation_config_validation():
    with pytest.raises(DomainError):
        build_boxed_preparation(np.ones((4, 4)), xi=1)
    with pytest.raises(ValidationError):
        build_boxed_preparation(np.ones((3, 4)))


@pytest.mark.parametrize("side", [1, 3, 6, 12])
@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_boxed_preparation_rejects_a_side_off_the_box_grids(side, fill):
    # the grid comes from the side, so an all-zero block is checked before its early return
    with pytest.raises(DomainError):
        build_boxed_preparation(np.full((side, side), fill))


def test_boxed_preparation_agrees_with_pair_box_norms():
    # both read the box grid through shifted_region over the pair's cross block
    mat = build_power_law(32, 1, 1.5, (PauliKind.Z, PauliKind.Z), "seeded-random", seed=7).two_local[
        (PauliKind.Z, PauliKind.Z)
    ]
    checked = 0
    for pair in bisection_decompose(32).pairs:
        if len(pair.left) == 1:
            continue  # a 1 x 1 block has no box grid
        block = mat.block(pair.cross_region())
        vec1, box1, _ = pair_box_norms(block, pair)
        prep = build_boxed_preparation(np.abs(block))
        assert prep.success_probability == pytest.approx(vec1 / box1, rel=1e-13, abs=0.0)
        checked += 1
    assert checked == 15


# -- walk operator ---------------------------------------------------------------------


def test_walk_phases_for_z():
    measured, expected = walk_invariant_phases(build_lcu_encoding([(1.0, Z)]))
    assert np.allclose(measured, expected, atol=1e-8)
    got = {round(float(p), 9) for p in measured}
    assert {round(0.0, 9), round(math.pi, 9)} <= got


def test_walk_phases_for_xz_mix():
    enc = build_lcu_encoding([(0.5, X), (0.5, Z)])
    measured, expected = walk_invariant_phases(enc)
    assert np.allclose(measured, expected, atol=1e-7)
    got = {round(p, 6) for p in measured}
    for want in (math.pi / 4, 3 * math.pi / 4, -math.pi / 4, -3 * math.pi / 4):
        assert round(want, 6) in got


def test_walk_phases_for_zero_operator():
    enc = build_lcu_encoding([(1.0, Z), (1.0, -Z)])
    measured, _ = walk_invariant_phases(enc)
    assert np.allclose(np.abs(measured), math.pi / 2, atol=1e-8)


def test_walk_pairing_random_hermitian():
    rng = np.random.default_rng(6)
    paulis = [X, Z, (X @ Z) * 1j]  # iXZ = -Y, Hermitian
    for _ in range(5):
        terms = [(float(w), p) for w, p in zip(rng.uniform(0.3, 1.5, 3), paulis)]
        enc = build_lcu_encoding(terms)
        assert enc.hermitian
        measured, expected = walk_invariant_phases(enc)
        assert measured.size == expected.size
        assert np.allclose(measured, expected, atol=1e-7)
        assert unitary_residual(walk_operator(enc)) < 1e-9


def test_walk_rejects_non_hermitian():
    enc = build_lcu_encoding([(1.0, np.array([[0, 1], [0, 0]]) + np.eye(2) * 0)])
    bad = BlockEncoding(enc.g0, enc.g1, enc.u, enc.lam, hermitian=False)
    with pytest.raises(ValidationError):
        walk_operator(bad)


def test_dense_builders_refuse_before_allocating(fake_physical_memory, monkeypatch):
    terms = [(1.0, np.eye(64)), (2.0, np.eye(64))]
    enc = build_lcu_encoding(terms)  # 0.6 MiB, built before memory is faked
    fake_physical_memory(2**-11)  # 0.5 MiB

    def never(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    for name in ("zeros", "ones", "eye", "kron", "diag"):
        monkeypatch.setattr(np, name, never)
    for build, what in (
        (lambda: build_lcu_encoding(terms), "an LCU encoding of dimension 128"),
        (lambda: walk_operator(enc), "a walk operator of dimension 256"),
    ):
        with pytest.raises(CapacityError, match=f"^{what} needs"):
            build()


# -- step count ---------------------------------------------------------------------------


def test_step_count_examples():
    assert qubitization_step_count(0.0, 0.9) == 2
    assert qubitization_step_count(1.0, 0.5) == 4
    assert qubitization_step_count(10.0, 1e-3) == step_count_oracle(10.0, 1e-3)
    assert qubitization_step_count(10.0, 1e-3) == 36


def test_step_count_monotone_and_even():
    last = 0
    for tau in np.linspace(0.0, 12.0, 25):
        r = qubitization_step_count(float(tau), 1e-2)
        assert r % 2 == 0
        assert r >= last
        last = r
    assert qubitization_step_count(3.0, 1e-6) >= qubitization_step_count(3.0, 1e-2)


def test_step_count_domain():
    with pytest.raises(DomainError):
        qubitization_step_count(-1.0, 0.5)
    with pytest.raises(DomainError):
        qubitization_step_count(1.0, 1.0)


# -- cost model -----------------------------------------------------------------------------


def test_cost_model_shapes():
    assert block_select_cost(8) == 2 * 8 + 2 * 4
    assert block_select_cost(16) > block_select_cost(8)
    assert block_prep_cost(8, 1.0, 5) == 9 + 5
    assert block_prep_cost(8, 9.0, 5) == 3 * (9 + 5)
    assert cell_select_cost(3, 4) == 7
    assert cell_prep_cost(3, 4, 4.0) == 2 * 7
