import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeff_matrix, coeff_value
from trotterforge.decomp import (
    _is_exact_power_law,
    IntervalPair,
    amplification_ratios,
    bisection_decompose,
    boxes_for_pair,
    cell_norms,
    cells_for_pair,
    decomposition_to_json,
    lattice_bisection_pairs,
    lowrank_decompose,
    nested_boxes,
    pair_box_norms,
    subdivide,
)
from trotterforge.errors import DomainError, ValidationError
from trotterforge.hamlib import CoeffMatrix, HamiltonianSpec, IndexRegion, PauliKind, build_power_law

ZZ = (PauliKind.Z, PauliKind.Z)


# -- oracles --------------------------------------------------------------------


def covered_pairs(regions):
    """Brute-force enumeration; fails on any overlap."""
    seen = set()
    for region in regions:
        for j, k in region.pairs():
            assert j < k, f"pair ({j},{k}) not strictly upper"
            assert (j, k) not in seen, f"pair ({j},{k}) covered twice"
            seen.add((j, k))
    return seen


def site_region(pair, region):
    """A region of the pair's cross block (1-based in the block) as the pair's sites."""
    rows, cols = region.slices()
    return IndexRegion(pair.left[rows], pair.right[cols])


def ends(side):
    """A site range as its inclusive (first, last)."""
    return side[0], side[-1]


def lowrank_regions(dec):
    """The far cross blocks, then the remainder the lowrank compiler lowers."""
    return [p.cross_region() for p in dec.far_field] + dec.remainder_regions()


def all_pairs(n):
    return {(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)}


def box_norm_oracle(mat, pair):
    """lambda numerator from the dyadic box definition, written out directly."""
    mid = pair.left[-1]
    half = len(pair.left)
    cells = {}
    for u in range(-half, 0):
        for v in range(1, half + 1):
            j, k = mid + 1 + u, mid + v
            mu = nu = None
            if u > -half and v < half:
                mu = (-u).bit_length() - 1
                nu = v.bit_length() - 1
            cells.setdefault(("box", mu, nu) if mu is not None else ("edge", u, v), []).append(
                abs(coeff_value(mat, j, k))
            )
    return sum(len(vals) * max(vals) for vals in cells.values())


def cross_block_vec1(mat, n):
    total = 0.0
    for j in range(1, n // 2 + 1):
        for k in range(n // 2 + 1, n + 1):
            total += abs(coeff_value(mat, j, k))
    return total


def spec_of(mat):
    return HamiltonianSpec(mat.n, 1, {ZZ: mat}, {})


def exact_power_law_oracle(spec):
    """Pair-by-pair check of |beta_jk| = 1/(k-j)^alpha to 1e-9 relative, on 1D chains."""
    if spec.alpha is None or spec.d != 1:
        return False
    for mat in spec.two_local.values():
        for j in range(1, spec.n + 1):
            for k in range(j + 1, spec.n + 1):
                expect = 1.0 / (k - j) ** spec.alpha
                if abs(abs(coeff_value(mat, j, k)) - expect) > 1e-9 * expect:
                    return False
    return True


# -- bisection --------------------------------------------------------------------


def test_bisection_base_case():
    dec = bisection_decompose(2)
    assert len(dec.pairs) == 1
    p = dec.pairs[0]
    assert (*ends(p.left), *ends(p.right)) == (1, 1, 2, 2)


def test_bisection_n4_listing():
    got = [
        (*ends(p.left), *ends(p.right)) for p in bisection_decompose(4).pairs
    ]
    assert got == [(1, 2, 3, 4), (1, 1, 2, 2), (3, 3, 4, 4)]


def test_bisection_n8_shape_and_cover():
    dec = bisection_decompose(8)
    assert len(dec.pairs) == 7
    by_layer = {}
    for p in dec.pairs:
        by_layer[p.layer] = by_layer.get(p.layer, 0) + 1
    assert by_layer == {1: 1, 2: 2, 3: 4}
    assert covered_pairs([p.cross_region() for p in dec.pairs]) == all_pairs(8)


def test_bisection_sorted_and_bounded():
    for n in (2, 4, 8, 16, 32):
        dec = bisection_decompose(n)
        keys = [(p.layer, p.block) for p in dec.pairs]
        assert keys == sorted(keys)
        assert len(dec.pairs) <= 2 * n  # O(n) pair count
        assert covered_pairs([p.cross_region() for p in dec.pairs]) == all_pairs(n)


def test_bisection_rejects_non_pow2():
    with pytest.raises(DomainError):
        bisection_decompose(6)


@pytest.mark.parametrize(
    "left,right,kind",
    [
        (range(3, 3), range(3, 5), "near"),  # an empty side
        (range(1, 3), range(5, 5), "near"),
        (range(0, 2), range(2, 4), "near"),  # a start below 1
        (range(1, 5, 2), range(5, 7), "near"),  # a step other than 1
        (range(1, 3), range(6, 2, -1), "near"),
        ((1, 2), range(3, 5), "near"),  # not a range
        (range(1, 5), range(4, 8), "near"),  # overlapping sides
        (range(5, 9), range(1, 5), "near"),  # misordered sides
        (range(1, 3), range(3, 5), "corner"),  # an unknown kind
    ],
    ids=["empty-left", "empty-right", "start-0", "step-2", "step-neg", "tuple", "overlap", "misordered", "kind"],
)
def test_interval_pair_rejects_bad_sides(left, right, kind):
    with pytest.raises(ValidationError):
        IntervalPair(1, 0, left, right, kind)


def test_interval_pair_accepts_adjacent_and_gapped_sides():
    assert IntervalPair(1, 0, range(1, 2), range(2, 3)).gap == 0
    far = IntervalPair(2, 0, range(1, 3), range(5, 7), "far")
    assert far.gap == 2 and not far.is_contiguous_halves()
    assert far.cross_region() == IndexRegion(range(1, 3), range(5, 7))


# -- low-rank ------------------------------------------------------------------------


def test_lowrank_n8_cutoff2_listing():
    dec = lowrank_decompose(8, 2)
    far = {(ends(p.left), ends(p.right)) for p in dec.far_field}
    assert far == {((1, 2), (5, 6)), ((1, 2), (7, 8)), ((3, 4), (7, 8))}
    near = {(ends(p.left), ends(p.right)) for p in dec.near_field}
    assert near == {((1, 2), (3, 4)), ((3, 4), (5, 6)), ((5, 6), (7, 8))}
    assert [ends(b) for b in dec.within_blocks] == [(1, 2), (3, 4), (5, 6), (7, 8)]
    assert sum(len(list(p.cross_region().pairs())) for p in dec.far_field) == 12
    assert sum(len(list(p.cross_region().pairs())) for p in dec.near_field) == 12
    assert covered_pairs(lowrank_regions(dec)) == all_pairs(8)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lowrank_quarter_cutoff_single_layer(n):
    dec = lowrank_decompose(n, n // 4)
    assert all(p.layer == 2 for p in dec.far_field)
    assert len(dec.far_field) == 3


def test_lowrank_cover_and_admissibility():
    for n in (4, 8, 16, 32):
        for cutoff in (1, 2, n // 4, n // 2):
            if cutoff < 1:
                continue
            dec = lowrank_decompose(n, cutoff)
            assert covered_pairs(lowrank_regions(dec)) == all_pairs(n)
            for p in dec.far_field:
                assert p.gap >= len(p.left)


def test_lowrank_half_cutoff_degenerates():
    dec = lowrank_decompose(8, 4)
    assert dec.far_field == ()
    assert len(dec.near_field) == 1


def test_lowrank_rejects_bad_cutoff():
    with pytest.raises(DomainError):
        lowrank_decompose(8, 3)
    with pytest.raises(DomainError):
        lowrank_decompose(8, 8)


# -- box grids -----------------------------------------------------------------------


@pytest.mark.parametrize("half,count", [(2, 1), (4, 4), (8, 9)])
def test_box_counts(half, count):
    boxes = nested_boxes(half)
    dyadic = boxes[:count]  # the dyadic boxes come first, then the unit boxes
    assert all(b.mu is not None for b in dyadic) and all(b.mu is None for b in boxes[count:])
    for b in dyadic:
        assert b.weight == 2 ** (b.mu + b.nu)
    for b in boxes[count:]:
        assert b.nu is None and b.weight == 1


@pytest.mark.parametrize("half", [2, 4, 8, 16])
def test_boxes_tile_shifted_rectangle(half):
    seen = set()
    for b in nested_boxes(half):
        for u in b.u:
            for v in b.v:
                assert (u, v) not in seen
                seen.add((u, v))
    assert seen == {(u, v) for u in range(-half, 0) for v in range(1, half + 1)}


def test_boxes_for_singleton_pair():
    pair = IntervalPair(3, 0, range(1, 2), range(2, 3))
    out = boxes_for_pair(pair)
    assert len(out) == 1 and out[0][0] == 1
    assert list(out[0][1].pairs()) == [(1, 1)]  # the 1 x 1 cross block itself
    assert list(site_region(pair, out[0][1]).pairs()) == [(1, 2)]


def test_boxes_for_pair_cover_cross_block():
    pair = IntervalPair(1, 0, range(1, 9), range(9, 17))
    regions = [region for _, region in boxes_for_pair(pair)]
    assert all(region.rows.stop <= 9 and region.cols.stop <= 9 for region in regions)  # inside the 8 x 8 block
    assert covered_pairs(site_region(pair, r) for r in regions) == {(j, k) for j in range(1, 9) for k in range(9, 17)}


# -- subdivision -----------------------------------------------------------------------


def test_subdivide_single_cell_spans_block():
    cells = subdivide(8, 1)
    assert cells == [(1, 1, range(-8, 0), range(1, 9))]


def test_subdivision_cells_partition():
    pair = IntervalPair(1, 0, range(1, 9), range(9, 17))
    for m in (1, 2, 3, 8):
        cells = cells_for_pair(pair, m)
        assert all(c.region.rows.stop <= 9 and c.region.cols.stop <= 9 for c in cells)  # inside the 8 x 8 block
        regions = [site_region(pair, c.region) for c in cells]
        assert covered_pairs(regions) == {(j, k) for j in range(1, 9) for k in range(9, 17)}


def test_subdivide_rejects_bad_m():
    with pytest.raises(DomainError):
        subdivide(8, 0)
    with pytest.raises(DomainError):
        subdivide(8, 9)


# -- amplification ----------------------------------------------------------------------


def test_constant_coefficients_unit_ratio():
    mat = coeff_matrix(
        8, {(j, k): 1.0 for j in range(1, 9) for k in range(j + 1, 9)}
    )
    report = amplification_ratios(spec_of(mat), bisection_decompose(8))
    assert report.lambda_block == pytest.approx(1.0)


def test_power_law_amplification_bound():
    spec = build_power_law(16, 1, 2.0)
    dec = bisection_decompose(16)
    report = amplification_ratios(spec, dec)
    assert 1.0 <= report.lambda_block <= 4.0 + 1e-9
    # direct recomputation from the dyadic box definition
    mat = spec.two_local[ZZ]
    expect = 1.0
    for pair in dec.pairs:
        vec1 = sum(abs(coeff_value(mat, j, k)) for j, k in pair.cross_region().pairs())
        if vec1 > 0:
            expect = max(expect, box_norm_oracle(mat, pair) / vec1)
    assert report.lambda_block == pytest.approx(expect)


def test_single_entry_in_weight4_box():
    # (2,6) sits in the mu=nu=1 box of the top-layer pair of n=8
    mat = coeff_matrix(8, {(2, 6): 0.7})
    report = amplification_ratios(spec_of(mat), bisection_decompose(8))
    assert report.lambda_block == pytest.approx(4.0)


def test_exact_power_law_check_on_the_upper_triangle():
    exact = build_power_law(16, 1, 2.0, sign_rule="alternating")
    data = exact.two_local[ZZ].data

    def edited(j, k, value):
        bent = data.copy()
        bent[j, k] = value
        return HamiltonianSpec(16, 1, {ZZ: CoeffMatrix(16, bent)}, {}, alpha=2.0)

    cases = [
        (exact, True),
        (edited(2, 9, data[2, 9] * (1 + 1e-10)), True),  # inside the 1e-9 relative tolerance
        (edited(2, 9, data[2, 9] * (1 + 1e-8)), False),  # one perturbed entry
        (edited(0, 15, 0.0), False),  # one zeroed entry
        (build_power_law(16, 2, 2.0), False),  # d=2 is not checked
        (spec_of(exact.two_local[ZZ]), False),  # no alpha claimed
    ]
    for spec, want in cases:
        assert _is_exact_power_law(spec) is want
        assert exact_power_law_oracle(spec) is want


def test_amplification_rejects_mismatched_n():
    with pytest.raises(ValidationError):
        amplification_ratios(spec_of(CoeffMatrix.zeros(4)), bisection_decompose(8))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 16]), st.integers(1, 4), st.integers(0, 10_000))
def test_lambda_avg_cell_bound(n, m, seed):
    rng = np.random.default_rng(seed)
    mat = CoeffMatrix(n, np.triu(rng.standard_normal((n, n)), k=1))
    report = amplification_ratios(spec_of(mat), bisection_decompose(n), m)
    assert 1.0 <= report.lambda_avg <= (n / m) ** 2 + 1e-9
    assert report.lambda_block <= n**2 + 1e-9


def test_pair_box_norms_match_the_box_definition():
    rng = np.random.default_rng(5)
    data = np.triu(rng.standard_normal((16, 16)), k=1)
    data[:8, 8:] = 0.0  # the top pair's cross block is empty
    mat = CoeffMatrix(16, data)
    for pair in bisection_decompose(16).pairs:
        vec1, box1, ratio = pair_box_norms(mat.block(pair.cross_region()), pair)
        if pair.layer == 1:
            assert (vec1, box1, ratio) == (0.0, 0.0, 1.0)
            continue
        assert vec1 == pytest.approx(sum(abs(data[j - 1, k - 1]) for j, k in pair.cross_region().pairs()))
        assert box1 == pytest.approx(box_norm_oracle(mat, pair))
        assert ratio == box1 / vec1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cell_norms_match_a_pair_loop(m):
    rng = np.random.default_rng(m)
    data = np.triu(rng.standard_normal((16, 16)), k=1)
    data[2:4, 8:12] = 0.0  # empty cells at m = 4
    for pair in bisection_decompose(16).pairs:
        block = CoeffMatrix(16, data).block(pair.cross_region())
        for cell in cells_for_pair(pair, m):
            sub, cell_1, ratio = cell_norms(block, cell)
            values = [abs(data[j - 1, k - 1]) for j, k in site_region(pair, cell.region).pairs()]
            assert np.shares_memory(sub, block)
            assert sorted(np.abs(sub).ravel()) == sorted(values)
            assert cell_1 == pytest.approx(sum(values))
            want = len(cell.region.rows) * len(cell.region.cols) * max(values) / cell_1 if cell_1 else 1.0
            assert ratio == pytest.approx(want)


# -- cross-block norm scaling ----------------------------------------------------------


def test_cross_block_norm_saturates_alpha3():
    values = []
    for n in (8, 16, 32, 64, 128, 256):
        mat = build_power_law(n, 1, 3.0).two_local[ZZ]
        values.append(cross_block_vec1(mat, n))
    assert max(values) / min(values) < 2.0


def test_cross_block_norm_grows_linearly_alpha1():
    sizes = (8, 16, 32, 64, 128, 256)
    values = [cross_block_vec1(build_power_law(n, 1, 1.0).two_local[ZZ], n) for n in sizes]
    slope = np.polyfit(np.log(sizes), np.log(values), 1)[0]
    assert abs(slope - 1.0) < 0.15


# -- lattice bisection / JSON -------------------------------------------------------------


def test_lattice_bisection_2d():
    splits = lattice_bisection_pairs(2, 2)
    assert splits[0] == ((1, 2), (3, 4))  # first split halves the 2x2 square
    for left, right in splits:
        assert not set(left) & set(right)


def test_decomposition_json_schema():
    records = json.loads(decomposition_to_json(lowrank_decompose(8, 2)))
    assert {r["kind"] for r in records} == {"far", "near", "within"}
    for r in records:
        assert set(r) == {"layer", "block", "left", "right", "kind"}
        assert len(r["left"]) == 2 and len(r["right"]) == 2
