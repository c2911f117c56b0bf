import gc
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeff_entries, coeff_matrix, coeff_value
from trotterforge.errors import (
    CapacityError,
    DimensionError,
    DomainError,
    IndexRangeError,
    ValidationError,
    check_memory,
)
from trotterforge.hamlib import (
    BlockMemo,
    CoeffMatrix,
    HamiltonianSpec,
    IndexRegion,
    PauliKind,
    PauliTable,
    build_power_law,
    check_coeff_capacity,
    coeff_oracle,
    fixed_point_round,
    norms,
    nonzero_terms,
    pauli_table,
    spec_from_json,
    spec_to_json,
)
from trotterforge.decomp import lowrank_decompose
from trotterforge.trotter import induced_1norm, restricted_induced_1norm

ZZ = (PauliKind.Z, PauliKind.Z)


# -- oracles --------------------------------------------------------------------


def site_coords(j, side, d):
    """Row-major lattice coordinates of site j (1-based), 0-based on each axis."""
    rem, out = j - 1, []
    for _ in range(d):
        out.append(rem % side)
        rem //= side
    return tuple(reversed(out))


def power_law_entries_oracle(n, d, alpha):
    """Direct 1/dist^alpha over lattice coordinates, independent of hamlib."""
    side = round(n ** (1 / d))
    assert side**d == n
    out = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            dist = math.dist(site_coords(j, side, d), site_coords(k, side, d))
            out[(j, k)] = 1.0 / dist**alpha
    return out


def build_power_law_loop_oracle(n, d, alpha, sign_rule, seed):
    """The per-pair build: scalar libm pow and one sign draw per pair, in (j, k) order."""
    side = round(n ** (1.0 / d))
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            cj, ck = site_coords(j, side, d), site_coords(k, side, d)
            mag = 1.0 / math.sqrt(sum((x - y) ** 2 for x, y in zip(cj, ck))) ** alpha
            if sign_rule == "alternating":
                sign = -1.0 if (j + k) % 2 else 1.0
            elif sign_rule == "seeded-random":
                sign = 1.0 if rng.integers(2) else -1.0
            else:
                sign = 1.0
            a[j - 1, k - 1] = sign * mag
    return a


def region_norm_oracle(mat, region, use_max):
    """Pair-by-pair max or running sum of |stored value| over a region (0 at j >= k)."""
    best = 0.0
    total = 0.0
    for j, k in region.pairs():
        if not (1 <= j <= mat.n and 1 <= k <= mat.n):
            raise IndexRangeError(f"region pair ({j},{k}) outside the index range")
        v = abs(coeff_value(mat, j, k))
        best = max(best, v)
        total += v
    return best if use_max else total


def zeta_upper_oracle(alpha):
    """Partial sum + integral tail upper bound on zeta(alpha), alpha > 1."""
    head = sum(1.0 / m**alpha for m in range(1, 101))
    return head + 100.0 ** (1 - alpha) / (alpha - 1)


def rand_coeff(rng, n):
    a = np.triu(rng.standard_normal((n, n)), k=1)
    return CoeffMatrix(n, a)


# -- build_power_law ------------------------------------------------------------


def test_power_law_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="need seed >= 0, got -1"):
        build_power_law(4, 1, 2.0, sign_rule="seeded-random", seed=-1)


def test_power_law_n2_single_entry():
    spec = build_power_law(2, 1, 2.0)
    assert coeff_entries(spec.two_local[ZZ]) == {(1, 2): 1.0}


def test_power_law_n4_values():
    spec = build_power_law(4, 1, 2.0)
    got = coeff_entries(spec.two_local[ZZ])
    assert got == pytest.approx(
        {(1, 2): 1.0, (1, 3): 0.25, (1, 4): 1.0 / 9.0, (2, 3): 1.0, (2, 4): 0.25, (3, 4): 1.0}
    )


def test_power_law_2d_diagonal_corner():
    spec = build_power_law(4, 2, 1.0)
    # sites 1 and 4 sit at opposite corners of the 2x2 lattice
    assert coeff_value(spec.two_local[ZZ], 1, 4) == pytest.approx(1.0 / math.sqrt(2.0))


@pytest.mark.parametrize("n,d,alpha", [(8, 1, 1.0), (16, 2, 2.0), (27, 3, 1.5)])
def test_power_law_matches_enumeration_oracle(n, d, alpha):
    spec = build_power_law(n, d, alpha)
    expected = power_law_entries_oracle(n, d, alpha)
    assert coeff_entries(spec.two_local[ZZ]) == pytest.approx(expected)


@pytest.mark.parametrize("sign_rule", ["all-positive", "alternating", "seeded-random"])
@pytest.mark.parametrize("n,d", [(24, 1), (25, 2), (27, 3), (150, 1), (144, 2), (125, 3)])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.7, 3.0])
def test_power_law_bit_identical_to_pair_loop(n, d, alpha, sign_rule):
    spec = build_power_law(n, d, alpha, ZZ, sign_rule, seed=11)
    expected = build_power_law_loop_oracle(n, d, alpha, sign_rule, seed=11)
    assert np.array_equal(spec.two_local[ZZ].data, expected)


@pytest.mark.parametrize("sign_rule", ["all-positive", "alternating", "seeded-random"])
def test_power_law_build_holds_one_matrix_plus_a_slab(sign_rule):
    n = 1024
    tracemalloc.start()
    try:
        spec = build_power_law(n, 1, 1.5, ZZ, sign_rule, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.two_local[ZZ].data.nbytes == 8 * n * n
    assert peak <= 1.5 * 8 * n * n


@pytest.mark.parametrize("alpha", [200.0, 300.5, 700.0, 2000.0])
def test_power_law_past_the_float_range_of_dist_alpha_matches_mpmath(alpha):
    row = build_power_law(64, 1, alpha).two_local[ZZ].data[0]  # row[dist] is pair (1, 1 + dist)
    fallbacks = 0
    for dist in range(1, 64):
        try:
            direct = 1.0 / float(dist) ** alpha
        except OverflowError:
            with mpmath.workdps(60):
                want = float(mpmath.mpf(dist) ** -mpmath.mpf(alpha))  # rounded to the nearest double
            assert abs(row[dist] - want) <= 2.0**-1074, dist  # one subnormal ulp
            fallbacks += 1
        else:
            assert row[dist] == direct, dist  # a finite dist^alpha keeps its bytes
    assert fallbacks > 0


def test_power_law_rejects_bad_lattice_and_alpha():
    with pytest.raises(DimensionError):
        build_power_law(6, 2, 1.0)
    with pytest.raises(DomainError):
        build_power_law(4, 1, 0.0)


def test_sign_rules_deterministic():
    a = build_power_law(8, 1, 1.0, ZZ, "seeded-random", seed=7)
    b = build_power_law(8, 1, 1.0, ZZ, "seeded-random", seed=7)
    assert coeff_entries(a.two_local[ZZ]) == coeff_entries(b.two_local[ZZ])
    alt = build_power_law(4, 1, 1.0, ZZ, "alternating")
    assert coeff_value(alt.two_local[ZZ], 1, 2) == -1.0  # odd j+k
    assert coeff_value(alt.two_local[ZZ], 1, 3) == 0.5


# -- coeff_oracle ----------------------------------------------------------------


def test_fixed_point_examples():
    assert fixed_point_round(0.25, 4) == 0.25  # 0.0100 exactly
    assert fixed_point_round(1.0 / 3.0, 4) == 5.0 / 16.0  # 0.0101 after rounding
    assert fixed_point_round(0.0, 7) == 0.0


def test_coeff_oracle_bit_exact_and_range():
    spec = build_power_law(4, 1, 2.0)
    first = coeff_oracle(spec, ZZ, 1, 3, 4)
    assert first == coeff_oracle(spec, ZZ, 1, 3, 4) == 0.25
    with pytest.raises(IndexRangeError):
        coeff_oracle(spec, ZZ, 3, 1, 4)


def test_coeff_oracle_consistent_with_norms():
    spec = build_power_law(8, 1, 1.0)
    w = 10
    mat = spec.two_local[ZZ]
    rounded = sum(
        abs(coeff_oracle(spec, ZZ, j, k, w)) for j in range(1, 9) for k in range(j + 1, 9)
    )
    assert abs(rounded - np.abs(mat.data).sum()) <= 8 * 8 * 2.0**-w


# -- norms -------------------------------------------------------------------------


def test_norm_examples_power_law_n4():
    mat = build_power_law(4, 1, 2.0).two_local[ZZ]
    sym = mat.data + mat.data.T
    assert np.abs(mat.data).sum() == pytest.approx(1 + 0.25 + 1 / 9 + 1 + 0.25 + 1)
    assert induced_1norm(sym) == pytest.approx(2.25)
    assert restricted_induced_1norm(sym, 2) == pytest.approx(2.0)


def test_restricted_region_norms():
    mat = build_power_law(4, 1, 2.0).two_local[ZZ]
    region = IndexRegion(range(1, 3), range(3, 5))
    assert norms(mat.data, "restricted_1", region=region) == pytest.approx(0.25 + 1 / 9 + 1 + 0.25)
    assert norms(mat.data, "box_1", boxes=[(1, region)]) == pytest.approx(1.0)  # one box: the region max
    boxes = [(1, IndexRegion(range(1, 2), range(3, 4))), (2, IndexRegion(range(2, 3), range(3, 5)))]
    assert norms(mat.data, "box_1", boxes=boxes) == pytest.approx(0.25 + 2 * 1.0)
    # the same rectangle read from its block, in the block's own coordinates
    block, whole = mat.block(region), IndexRegion(range(1, 3), range(1, 3))
    assert norms(block, "restricted_1", region=whole) == norms(mat.data, "restricted_1", region=region)
    block_boxes = [(1, IndexRegion(range(1, 2), range(1, 2))), (2, IndexRegion(range(2, 3), range(1, 3)))]
    assert norms(block, "box_1", boxes=block_boxes) == norms(mat.data, "box_1", boxes=boxes)


def test_region_norms_match_pair_loop():
    rng = np.random.default_rng(3)
    mat = rand_coeff(rng, 40)
    regions = [
        IndexRegion(range(1, 21), range(21, 41)),
        IndexRegion(range(25, 41), range(1, 13)),  # below the diagonal: stored zeros
        IndexRegion(range(5, 31), range(10, 36)),  # straddles the diagonal
    ]
    for region in regions:
        assert norms(mat.data, "restricted_1", region=region) == region_norm_oracle(mat, region, False)
        assert norms(mat.data, "box_1", boxes=[(1, region)]) == region_norm_oracle(mat, region, True)
    boxes = [(1, regions[0]), (3, regions[1]), (2, regions[2])]
    expected = 0.0
    for weight, region in boxes:
        expected += weight * region_norm_oracle(mat, region, True)
    assert norms(mat.data, "box_1", boxes=boxes) == expected
    for bad in (IndexRegion(range(38, 42), range(1, 3)), IndexRegion(range(0, 3), range(3, 5))):
        with pytest.raises(IndexRangeError):
            region_norm_oracle(mat, bad, False)
        with pytest.raises(IndexRangeError):
            norms(mat.data, "restricted_1", region=bad)
        with pytest.raises(IndexRangeError):
            norms(mat.data, "box_1", boxes=[(1, bad)])
        with pytest.raises(IndexRangeError):
            norms(mat.data, "box_1", boxes=[(1, regions[0]), (1, bad)])


def test_index_region_is_one_unit_step_rectangle():
    region = IndexRegion(range(2, 4), range(5, 8))
    assert list(region.pairs()) == [(2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)]  # row-major
    assert region.slices() == (slice(1, 3), slice(4, 7))
    for rows, cols in [
        (range(3, 3), range(1, 4)),
        (range(1, 4), range(5, 2)),
        (range(1, 6, 2), range(7, 9)),
        (range(1, 3), range(9, 4, -1)),
        ((1, 2), range(3, 4)),
    ]:
        with pytest.raises(ValidationError):
            IndexRegion(rows, cols)


def test_norm_eta_out_of_range():
    mat = build_power_law(4, 1, 2.0).two_local[ZZ]
    with pytest.raises(DomainError):
        restricted_induced_1norm(mat.data + mat.data.T, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_norm_inequality_chain(n, seed):
    mat = rand_coeff(np.random.default_rng(seed), n)
    eta = 1 + seed % n
    sym = mat.data + mat.data.T
    restricted = restricted_induced_1norm(sym, eta)
    induced = induced_1norm(sym)
    assert restricted <= induced + 1e-12
    assert induced <= 2.0 * np.abs(mat.data).sum() + 1e-12  # symmetric completion doubles
    assert np.abs(mat.data).max() <= induced + 1e-12


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_power_law_vec1_zeta_bound(n):
    for alpha in (1.5, 2.0, 3.0):
        mat = build_power_law(n, 1, alpha).two_local[ZZ]
        assert np.abs(mat.data).sum() <= n * zeta_upper_oracle(alpha)


# -- CoeffMatrix / spec validation --------------------------------------------------


def test_coeff_matrix_copies_writable_input_only():
    a = np.triu(np.arange(16.0).reshape(4, 4), 1)
    mat = CoeffMatrix(4, a)
    a[0, 1] = 99.0  # the caller still holds a writable array
    assert coeff_value(mat, 1, 2) == 1.0 and not mat.data.flags.writeable
    frozen = a.copy()
    frozen.setflags(write=False)
    assert CoeffMatrix(4, frozen).data is frozen  # nothing can change it, so it is kept
    for mat in (coeff_matrix(4, {(1, 2): 0.5}), CoeffMatrix.zeros(4), build_power_law(4, 1, 2.0).two_local[ZZ]):
        assert not mat.data.flags.writeable


def test_coeff_matrix_rejects_lower_triangle():
    with pytest.raises(ValidationError):
        CoeffMatrix(3, np.ones((3, 3)))
    # one entry at a time, across and inside the row bands of the check
    n = 130
    CoeffMatrix(n, np.triu(np.ones((n, n)), 1))
    for j, k in ((0, 0), (63, 63), (64, 63), (64, 64), (129, 0), (129, 128), (129, 129), (70, 5)):
        a = np.zeros((n, n))
        a[j, k] = 1.0
        with pytest.raises(ValidationError, match="entries are defined only for j < k"):
            CoeffMatrix(n, a)


def test_coeff_matrix_reports_a_non_finite_entry_before_a_lower_one():
    n = 200
    for j, k in ((0, 1), (63, 199), (64, 10), (199, 199)):
        a = np.zeros((n, n))
        a[5, 2] = 1.0  # below the diagonal, in an earlier slab than most of the non-finite entries
        a[j, k] = math.nan
        with pytest.raises(ValidationError, match="coefficient entries must be finite"):
            CoeffMatrix(n, a)


def test_spec_rejects_identity_group():
    mat = coeff_matrix(2, {(1, 2): 1.0})
    with pytest.raises(ValidationError):
        HamiltonianSpec(2, 1, {(PauliKind.I, PauliKind.Z): mat}, {})


def test_block_is_a_read_only_view_of_the_stored_values():
    mat = rand_coeff(np.random.default_rng(5), 10)
    for region in (
        IndexRegion(range(1, 5), range(6, 11)),
        IndexRegion(range(3, 4), range(4, 11)),
        IndexRegion(range(1, 11), range(1, 11)),
    ):
        block = mat.block(region)
        assert np.shares_memory(block, mat.data) and not block.flags.writeable
        assert np.array_equal(block, mat.data[region.slices()])
    assert mat.block(IndexRegion(range(2, 3), range(7, 8)))[0, 0] == mat.data[1, 6]


def test_block_rejects_regions_outside_the_matrix():
    mat = rand_coeff(np.random.default_rng(6), 8)
    for bad in (
        IndexRegion(range(1, 3), range(7, 10)),  # past column n
        IndexRegion(range(8, 10), range(1, 3)),  # past row n
        IndexRegion(range(0, 3), range(4, 6)),  # starts at row 0
        IndexRegion(range(1, 3), range(0, 6)),  # starts at column 0
    ):
        with pytest.raises(IndexRangeError, match="outside the index range 1..8"):
            mat.block(bad)


def test_a_region_reads_any_2d_array_in_its_own_coordinates():
    values = np.arange(15.0).reshape(3, 5)
    view = IndexRegion(range(2, 4), range(3, 6)).of(values)
    assert np.shares_memory(view, values) and view.tolist() == [[7.0, 8.0, 9.0], [12.0, 13.0, 14.0]]
    for bad in (IndexRegion(range(3, 5), range(1, 2)), IndexRegion(range(1, 2), range(5, 7)), IndexRegion(range(0, 2), range(1, 2))):
        with pytest.raises(IndexRangeError, match=r"outside the index range 1\.\.3 x 1\.\.5$"):
            bad.of(values)


def test_block_reads_zero_at_and_below_the_diagonal():
    mat = rand_coeff(np.random.default_rng(7), 12)
    region = IndexRegion(range(3, 11), range(5, 12))  # straddles the diagonal
    block = mat.block(region)
    for (j, k), value in zip(region.pairs(), block.ravel()):
        assert value == (0.0 if j >= k else mat.data[j - 1, k - 1])
    assert not mat.block(IndexRegion(range(6, 13), range(1, 6))).any()


@pytest.mark.parametrize("pauli,sign_rule", [(ZZ, "all-positive"), (ZZ, "alternating"), (ZZ, "seeded-random"),
                                             ((PauliKind.X, PauliKind.Z), "seeded-random")])
def test_block_equals_the_symmetric_completion_on_every_lowrank_region(pauli, sign_rule):
    # the compiler and rank_profile read only j < k, where the completion added +0.0
    mat = build_power_law(32, 1, 1.5, pauli, sign_rule, seed=4).two_local[pauli]
    data = mat.data
    for cutoff in (1, 2, 4, 8):
        dec = lowrank_decompose(32, cutoff)
        for region in [p.cross_region() for p in dec.far_field] + dec.remainder_regions():
            idx = np.ix_(np.asarray(region.rows) - 1, np.asarray(region.cols) - 1)
            assert np.array_equal(mat.block(region), data[idx] + data.T[idx])


def test_negative_zero_entries_are_stored_as_zero():
    mat = coeff_matrix(4, {(1, 2): -0.0, (2, 4): 0.5, (3, 4): -0.0})
    assert not np.signbit(mat.data).any()
    assert mat.block(IndexRegion(range(1, 4), range(2, 5))).tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]


# -- JSON -----------------------------------------------------------------------


def test_spec_json_roundtrip():
    spec = build_power_law(8, 1, 1.5, (PauliKind.X, PauliKind.Y), "alternating")
    again = spec_from_json(spec_to_json(spec))
    assert again.n == spec.n and again.d == spec.d and again.alpha == spec.alpha
    key = (PauliKind.X, PauliKind.Y)
    assert coeff_entries(again.two_local[key]) == pytest.approx(coeff_entries(spec.two_local[key]))


def test_spec_json_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        spec_from_json(json.dumps({"n": 2, "d": 1, "bogus": 1}))


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "d": 1,',
        "[1, 2]",
        json.dumps({"n": 2, "d": 1, "terms": [{"sigma": "z", "entries": [[1, 2, 1.0]]}]}),
        json.dumps({"n": 2, "d": 1, "terms": [{"sigma2": "z", "entries": []}]}),
        json.dumps({"n": 2, "d": 1, "terms": ["zz"]}),
    ],
)
def test_spec_json_rejects_malformed_documents(text):
    with pytest.raises(ValidationError):
        spec_from_json(text)


@pytest.fixture
def gc_state():
    """Restores the collector's state after the test, whatever the test left."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, error",
    [(spec_to_json(build_power_law(4, 1, 2.0)), None), ('{"n": 2, "d": 1,', "not valid JSON"), ("[1, 2]", "JSON object")],
)
def test_spec_json_parses_with_the_collector_paused_and_restores_its_state(gc_state, monkeypatch, enabled, text, error):
    seen = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: seen.append(gc.isenabled()) or loads(s))
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        spec_from_json(text)
    else:
        with pytest.raises(ValidationError, match=error):
            spec_from_json(text)
    assert seen == [False]
    assert gc.isenabled() == enabled


# -- the block memo ---------------------------------------------------------------


def test_block_memo_shares_results_between_equal_blocks_only():
    mat = build_power_law(16, 1, 2.0).two_local[ZZ]
    memo, calls = BlockMemo(), []

    def get(region, params=("tag",)):
        block = mat.block(region)
        return memo.get(block, params, lambda: calls.append(block.shape) or len(calls))

    # the same shape and gap at two places: one power law, the same bytes
    assert get(IndexRegion(range(1, 5), range(5, 9))) == get(IndexRegion(range(9, 13), range(13, 17))) == 1
    assert get(IndexRegion(range(1, 5), range(9, 13))) == 2  # another gap
    assert get(IndexRegion(range(1, 3), range(3, 5))) == 3  # another shape
    assert get(IndexRegion(range(1, 5), range(5, 9)), ("tag", 2)) == 4  # other parameters
    assert len(calls) == 4
    zero, negative_zero = np.zeros((2, 2)), np.full((2, 2), -0.0)
    assert memo.get(zero, (), lambda: "zero") == "zero"
    assert memo.get(negative_zero, (), lambda: "negative zero") == "negative zero"


def test_block_memo_keys_load_no_openssl():
    # hashlib would load OpenSSL's libcrypto, 3.5 MiB of RSS in every process that keys a block
    code = (
        "import sys, numpy as np; from trotterforge.hamlib import BlockMemo; "
        "BlockMemo().get(np.zeros((2, 2)), (), lambda: 0); print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_block_memo_keys_tell_apart_equal_bytes_of_another_shape_or_dtype():
    a = np.arange(1.0, 7.0).reshape(2, 3)
    same_bytes = [a, a.reshape(3, 2), a.reshape(6, 1), a.view(np.int64), a.view(np.uint64)]
    zeros = [np.zeros((2, 2)), np.full((2, 2), -0.0)]
    keys = [BlockMemo.key(b) for b in same_bytes + zeros]
    assert len(set(keys)) == len(keys)
    assert all(len(digest) == 32 for _, _, digest in keys)
    # the digest reads C-order bytes: a strided view and a Fortran-order copy share the key of a C-order copy
    mat = np.arange(36.0).reshape(6, 6)
    view = mat[1:4, 2:6]
    assert BlockMemo.key(view) == BlockMemo.key(view.copy()) == BlockMemo.key(np.asfortranarray(view))
    memo = BlockMemo()
    results = [memo.get(b, ("tag",), lambda i=i: i) for i, b in enumerate(same_bytes + zeros)]
    assert results == list(range(len(keys)))


# -- Pauli tables --------------------------------------------------------------------


def mixed_table_spec():
    """Three groups in reverse tag order, on-site fields with zeros, and an identity offset."""
    n = 6
    groups = {
        pair: build_power_law(n, 1, 1.5, pair, "seeded-random", i).two_local[pair]
        for i, pair in enumerate([(PauliKind.Z, PauliKind.X), (PauliKind.Y, PauliKind.Y), (PauliKind.X, PauliKind.Z)])
    }
    fields = {
        PauliKind.Z: np.array([0.5, 0.0, -0.25, 0.0, 1.0, 0.125]),
        PauliKind.X: np.array([0.0, 1.5, 0.0, -2.0, 0.0, 0.0]),
    }
    return HamiltonianSpec(n, 1, groups, fields, identity=0.75)


def tag_order_terms(spec):
    """Every nonzero term, pair by pair: groups by tag, then (j, k); on-site kinds by tag, then site."""
    n, terms = spec.n, []
    for s1, s2 in sorted(spec.two_local, key=lambda p: (p[0].value, p[1].value)):
        data = spec.two_local[(s1, s2)].data
        for j in range(n):
            terms += [([(j + 1, s1), (k + 1, s2)], data[j, k]) for k in range(n) if data[j, k] != 0.0]
    for s in sorted(spec.on_site, key=lambda s: s.value):
        terms += [([(j + 1, s)], c) for j, c in enumerate(spec.on_site[s]) if c != 0.0]
    return terms


def test_term_groups_are_the_one_term_order():
    spec = mixed_table_spec()  # groups and on-site kinds given out of tag order
    X, Y, Z = PauliKind.X, PauliKind.Y, PauliKind.Z
    assert [kinds for kinds, _ in spec.term_groups()] == [(X, Z), (Y, Y), (Z, X), (X,), (Z,)]
    assert list(spec.two_local) == [(X, Z), (Y, Y), (Z, X)] and list(spec.on_site) == [X, Z]
    got = [
        (list(zip(sites, kinds)), c) for kinds, coeffs in spec.term_groups() for sites, c in nonzero_terms(coeffs)
    ]
    assert got == tag_order_terms(spec)
    assert all(isinstance(q, int) for string, _ in got for q, _ in string)


def test_pauli_table_rows_follow_term_groups():
    spec = mixed_table_spec()
    table = pauli_table(spec)
    terms = tag_order_terms(spec)
    xbit = {PauliKind.X: 1, PauliKind.Y: 1, PauliKind.Z: 0}
    zbit = {PauliKind.X: 0, PauliKind.Y: 1, PauliKind.Z: 1}
    want_x = [sum(xbit[s] << (q - 1) for q, s in string) for string, _ in terms]
    want_z = [sum(zbit[s] << (q - 1) for q, s in string) for string, _ in terms]
    assert table.x.tolist() == want_x
    assert table.z.tolist() == want_z
    assert table.coeff.tolist() == [c for _, c in terms]
    assert table.x.dtype == table.z.dtype == np.int64 and table.coeff.dtype == np.float64
    assert not any(a.flags.writeable for a in (table.x, table.z, table.coeff))


def test_pauli_table_edges():
    empty = pauli_table(HamiltonianSpec(3, 1, {}, {}, identity=1.0))
    assert empty.x.shape == empty.z.shape == empty.coeff.shape == (0,)
    with pytest.raises(CapacityError):
        pauli_table(HamiltonianSpec(64, 1, {}, {}))
    with pytest.raises(ValidationError):
        PauliTable([1, 2], [0], [1.0, 1.0])


def test_pickled_spec_objects_stay_read_only():
    spec = mixed_table_spec()
    loaded = pickle.loads(pickle.dumps(spec))
    assert (loaded.n, loaded.d, loaded.identity, loaded.alpha) == (spec.n, spec.d, spec.identity, spec.alpha)
    assert list(loaded.two_local) == list(spec.two_local)
    for pair, mat in spec.two_local.items():
        again = loaded.two_local[pair]
        assert again.n == mat.n and np.array_equal(again.data, mat.data)
        assert not again.data.flags.writeable
    assert list(loaded.on_site) == list(spec.on_site)
    for kind, vec in spec.on_site.items():
        assert np.array_equal(loaded.on_site[kind], vec) and not loaded.on_site[kind].flags.writeable
    mat = build_power_law(4, 1, 2.0).two_local[ZZ]
    again = pickle.loads(pickle.dumps(mat))
    assert np.array_equal(again.data, mat.data) and not again.data.flags.writeable
    table = pauli_table(spec)
    again = pickle.loads(pickle.dumps(table))
    for name in ("x", "z", "coeff"):
        assert np.array_equal(getattr(again, name), getattr(table, name))
        assert not getattr(again, name).flags.writeable


def test_coefficient_capacity_is_checked_before_allocating():
    check_coeff_capacity(1024)  # the far-field benchmark size: 8 MiB
    for build, gib in (
        (lambda: check_coeff_capacity(10**6), "7450.6"),
        (lambda: coeff_matrix(10**6, {}), "14901.2"),  # 2 copies at the peak
        (lambda: build_power_law(10**6, 1, 2.0), "14901.2"),  # 2 copies at the peak
    ):
        with pytest.raises(CapacityError, match=f"coefficient matrix needs {gib} GiB"):
            build()


def test_memory_check_states_needs_past_float_range(fake_physical_memory):
    fake_physical_memory(8)
    message = r"^x needs 2.89e\+609 GiB, more than the 8.0 GiB of physical memory$"
    with pytest.raises(CapacityError, match=message):
        check_memory(6 * 16 * 4**1024, "x")  # float division overflows here
