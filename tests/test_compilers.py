import math
import pickle
import tracemalloc

import numpy as np
import pytest

import trotterforge.compilers as compilers
from conftest import coeff_matrix, coeff_value
from trotterforge.circuit import (
    Circuit,
    CompositeDiagonalPhase,
    ControlledPhase,
    circuit_text,
    circuit_to_unitary,
    exact_evolution,
    pauli_string_exponential,
    spectral_distance,
)
from trotterforge.compilers import (
    ProductFormula,
    _stage_axis_map,
    check_distance_capacity,
    compile_avgcost_step,
    compile_hamming2_reduction,
    compile_lowrank_step,
    compile_sequential_step,
    lowered_step_unitary,
    make_product_formula,
    phase_register_width,
    step_cost_json,
    step_distances,
)
from trotterforge.decomp import lowrank_decompose
from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.hamlib import CoeffMatrix, HamiltonianSpec, IndexRegion, PauliKind, build_power_law, nonzero_terms
from trotterforge.lowrank import truncated_svd

XX = (PauliKind.X, PauliKind.X)
XY = (PauliKind.X, PauliKind.Y)
ZZ = (PauliKind.Z, PauliKind.Z)


# -- oracles and helpers -----------------------------------------------------------


def truncation_bound_oracle(spec, cutoff, tol):
    """Sum over far blocks of the 1-norm of the dropped part, from a dense SVD."""
    total = 0.0
    for mat in spec.two_local.values():
        for pair in lowrank_decompose(spec.n, cutoff).far_field:
            block = mat.block(pair.cross_region())
            u, s, vt = np.linalg.svd(block, full_matrices=False)
            keep = int(np.sum(s > tol))
            dropped = block - (u[:, :keep] * s[:keep]) @ vt[:keep]
            total += np.abs(dropped).sum()
    return total


def zz_spec(n, value=0.5):
    entries = {(j, k): value for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    return HamiltonianSpec(n, 1, {ZZ: coeff_matrix(n, entries)}, {})


def mixed_group_spec(n, alpha=2.0):
    xx = build_power_law(n, 1, alpha, XX).two_local[XX]
    zz = build_power_law(n, 1, alpha, ZZ).two_local[ZZ]
    return HamiltonianSpec(n, 1, {XX: xx, ZZ: zz}, {})


def onsite_two_group_spec(n):
    """XY and ZZ groups with a few zero pairs, plus sparse Y and Z on-site fields."""
    xy = build_power_law(n, 1, 2.0, XY, "alternating").two_local[XY].data.copy()
    xy[0, 2] = 0.0
    zz = build_power_law(n, 1, 1.5, ZZ).two_local[ZZ].data.copy()
    zz[1, 3] = 0.0
    onsite_y = np.zeros(n)
    onsite_y[[0, n - 1]] = [0.3, -0.2]
    onsite_z = np.linspace(0.0, 0.5, n)
    return HamiltonianSpec(
        n,
        1,
        {XY: CoeffMatrix(n, xy), ZZ: CoeffMatrix(n, zz)},
        {PauliKind.Y: onsite_y, PauliKind.Z: onsite_z},
    )


def stage_axis_map_oracle(mat, s1, s2):
    """Pair-by-pair axis assignment; the first conflicting site raises."""
    axis = {}
    for j, k, _ in mat.nonzero_pairs():
        for q, s in ((j, s1), (k, s2)):
            if axis.setdefault(q, s) != s:
                raise ValidationError(f"site {q} needs two different basis changes within one stage")
    return axis


def step_error(step, spec):
    return spectral_distance(lowered_step_unitary(step), exact_evolution(spec, step.t))


# -- product formulas ----------------------------------------------------------------


def schedule_oracle(p, stage_count):
    """The (stage, fraction) list built entry by entry: Strang segments, neighbours merged."""

    def strang(scale):
        if stage_count == 1:
            return [(1, scale)]
        first = [(i, scale / 2.0) for i in range(1, stage_count)]
        return first + [(stage_count, scale)] + first[::-1]

    if p == 1:
        return [(i, 1.0) for i in range(1, stage_count + 1)]
    if p == 2:
        return strang(1.0)
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    schedule = []
    for seg in (u, u, 1.0 - 4.0 * u, u, u):
        for idx, frac in strang(seg):
            if schedule and schedule[-1][0] == idx:
                schedule[-1] = (idx, schedule[-1][1] + frac)
            else:
                schedule.append((idx, frac))
    return schedule


def schedule_of(fr):
    return list(zip(fr.stages.tolist(), fr.fractions.tolist()))


@pytest.mark.parametrize("stage_count", [1, 2, 3, 7, 1000])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_schedule_matches_the_entrywise_oracle_bit_for_bit(p, stage_count):
    fr = make_product_formula(p, stage_count)
    assert fr.stages.dtype == np.int64 and fr.fractions.dtype == float
    expected = schedule_oracle(p, stage_count)
    assert fr.stages.tolist() == [i for i, _ in expected]
    assert [f.hex() for f in fr.fractions.tolist()] == [f.hex() for _, f in expected]


def test_first_order_schedule():
    fr = make_product_formula(1, 2)
    assert schedule_of(fr) == [(1, 1.0), (2, 1.0)]


def test_strang_schedule():
    fr = make_product_formula(2, 2)
    assert schedule_of(fr) == [(1, 0.5), (2, 1.0), (1, 0.5)]


def test_suzuki_schedule():
    fr = make_product_formula(4, 2)
    assert len(fr.stages) == len(fr.fractions) == 11
    idxs = fr.stages.tolist()
    fracs = fr.fractions.tolist()
    assert idxs == idxs[::-1]  # palindromic
    assert fracs == pytest.approx(fracs[::-1])
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert schedule_of(fr)[1] == (2, pytest.approx(u))
    for stage in (1, 2):
        assert fr.fractions[fr.stages == stage].sum() == pytest.approx(1.0)


def test_schedule_arrays_are_read_only_copies():
    stages, fractions = np.array([1, 2, 1]), np.array([0.5, 1.0, 0.5])
    fr = ProductFormula(2, 2, stages, fractions)
    stages[0] = 2
    fractions[0] = 0.25
    assert fr.stages.tolist() == [1, 2, 1]
    assert fr.fractions.tolist() == [0.5, 1.0, 0.5]
    with pytest.raises(ValueError):
        fr.fractions[0] = 1.0


def test_read_only_schedule_arrays_are_kept_uncopied():
    stages, fractions = np.array([1, 2, 1]), np.array([0.5, 1.0, 0.5])
    stages.setflags(write=False)
    fractions.setflags(write=False)
    fr = ProductFormula(2, 2, stages, fractions)
    assert fr.stages is stages and fr.fractions is fractions


def test_formula_validation():
    with pytest.raises(DomainError):
        make_product_formula(3, 2)
    with pytest.raises(DomainError, match="order must be one of"):
        compile_sequential_step(zz_spec(3), 0.1, 3)
    with pytest.raises(ValidationError, match="stage index 3 out of range"):
        ProductFormula(2, 2, [1, 3, 1, 0], [0.5, 1.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match="stage 2 fractions sum to 0.75, not 1"):
        ProductFormula(2, 3, [1, 2, 3, 2], [1.0, 0.5, 1.0, 0.25])
    with pytest.raises(ValidationError, match="stage 1 fractions sum to 0.0, not 1"):
        ProductFormula(1, 1, np.array([], dtype=np.int64), np.array([]))
    with pytest.raises(ValidationError, match=r"stages \(3,\) and fractions \(2,\) need one 1-D length"):
        ProductFormula(2, 2, [1, 2, 1], [0.5, 1.0])


@pytest.mark.parametrize("p", [1, 2, 4])
def test_stage_runs_match_the_schedule_bincount(p):
    for stage_count in range(1, 65):
        occurrences = np.bincount(make_product_formula(p, stage_count).stages, minlength=stage_count + 1)
        for first in range(1, stage_count + 1):
            for last in range(first, stage_count + 1):
                expected = int(occurrences[first : last + 1].sum())
                assert compilers._stage_runs(p, stage_count, first, last) == expected, (stage_count, first, last)


# -- sequential ------------------------------------------------------------------------


def test_single_term_exact():
    spec = HamiltonianSpec(2, 1, {ZZ: coeff_matrix(2, {(1, 2): 0.8})}, {})
    step = compile_sequential_step(spec, 0.7, 1)
    assert step_error(step, spec) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 4])
def test_commuting_spec_exact_sequential(p):
    spec = zz_spec(4)
    step = compile_sequential_step(spec, 0.4, p)
    assert step_error(step, spec) < 1e-9


def test_identity_only_spec_global_phase():
    spec = HamiltonianSpec(2, 1, {}, {}, identity=0.7)
    step = compile_sequential_step(spec, 0.3, 2)
    assert step.global_phase == pytest.approx(0.21)
    assert step_error(step, spec) < 1e-12


def test_mixed_spec_order2_scaling():
    xy = build_power_law(5, 1, 2.0, XY).two_local[XY]
    zz = build_power_law(5, 1, 2.0, ZZ).two_local[ZZ]
    spec = HamiltonianSpec(5, 1, {XY: xy, ZZ: zz}, {})
    errors = [step_error(compile_sequential_step(spec, t, 2), spec) for t in (0.05, 0.1, 0.2)]
    assert errors[1] / errors[0] == pytest.approx(8.0, rel=0.35)
    slope = np.polyfit(np.log([0.05, 0.1, 0.2]), np.log(errors), 1)[0]
    assert abs(slope - 3.0) < 0.25


def test_sequential_count_only_matches_verification():
    spec = onsite_two_group_spec(5)
    for p in (1, 2, 4):
        full = compile_sequential_step(spec, 0.1, p)
        counted = compile_sequential_step(spec, 0.1, p, count_only=True)
        assert counted.circuit is None
        assert counted.gate_count == full.gate_count == full.circuit.cost()


def test_sequential_count_allocates_under_a_mib():
    spec = build_power_law(1024, 1, 1.5, ZZ, "seeded-random")
    for p in (1, 2, 4):
        tracemalloc.start()
        try:
            step = compile_sequential_step(spec, 0.1, p, count_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step.gate_count > 0 and peak < 2**20


def test_sequential_rejects_a_bad_order_with_no_terms():
    for count_only in (False, True):
        with pytest.raises(DomainError, match=r"order must be one of \(1, 2, 4\), got 3"):
            compile_sequential_step(HamiltonianSpec(2, 1, {}, {}), 0.1, 3, count_only=count_only)


def test_sequential_capacity_only_in_verification(fake_physical_memory):
    spec = build_power_law(15, 1, 2.0)
    fake_physical_memory(5e-5)  # 52 KiB, under the 110 KiB of the 627 lowered gates
    counted = compile_sequential_step(spec, 0.1, 2, count_only=True)
    assert counted.gate_count > 0
    with pytest.raises(CapacityError):
        compile_sequential_step(spec, 0.1, 2)


def test_lowrank_lowers_past_the_former_qubit_cap():
    spec = build_power_law(32, 1, 2.0)  # about 2 MiB of phase tables
    full = compile_lowrank_step(spec, 0.1, 1e-9, 4, 2)
    counted = compile_lowrank_step(spec, 0.1, 1e-9, 4, 2, count_only=True)
    assert full.gate_count == counted.gate_count == full.circuit.cost()


def test_lowering_is_sized_from_the_plan_before_any_gate(fake_physical_memory, monkeypatch):
    spec = build_power_law(32, 1, 2.0)

    def never(*args, **kwargs):
        raise AssertionError("lowered before the memory check")

    monkeypatch.setattr(compilers, "_op_gates", never)
    fake_physical_memory(2**-11)  # 0.5 MiB; the phase tables alone take 1.5 MiB
    message = r"^lowering the lowrank step on 32 qubits \(492 gates, \d+ composites\) needs"
    with pytest.raises(CapacityError, match=message):
        compile_lowrank_step(spec, 0.1, 1e-9, 4, 2)


def test_sequential_term_order():
    # groups and on-site kinds handed over out of tag order still run in term_groups() order
    base = onsite_two_group_spec(4)
    spec = HamiltonianSpec(4, 1, dict(reversed(base.two_local.items())), dict(reversed(base.on_site.items())))
    assert [kinds for kinds, _ in spec.term_groups()] == [XY, ZZ, (PauliKind.Y,), (PauliKind.Z,)]
    want = [
        gate
        for kinds, coeffs in spec.term_groups()
        for sites, c in nonzero_terms(coeffs)
        for gate in pauli_string_exponential(list(zip(sites, kinds)), 0.3 * c, 4).gates
    ]
    assert circuit_text(compile_sequential_step(spec, 0.3, 1).circuit) == circuit_text(Circuit(4, tuple(want)))
    assert circuit_text(compile_sequential_step(base, 0.3, 1).circuit) == circuit_text(Circuit(4, tuple(want)))


# -- lowrank ---------------------------------------------------------------------------


def test_lowrank_commuting_exact():
    spec = zz_spec(8)
    step = compile_lowrank_step(spec, 0.3, 1e-12, 2, 2)
    assert step_error(step, spec) < 1e-9


def test_lowrank_takes_one_svd_per_distinct_far_block(monkeypatch):
    # a power law is translation invariant: 741 far blocks at n=1024 hold 14 distinct matrices
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    spec = build_power_law(1024, 1, 2.0)
    assert len(lowrank_decompose(1024, 4).far_field) == 741
    compile_lowrank_step(spec, 1.0, 1e-9, 4, 2, count_only=True)
    assert len(calls) == 14


def test_every_far_op_holds_the_svd_of_its_own_block(monkeypatch):
    spec = mixed_group_spec(32)
    ops = []
    op_gates = compilers._op_gates
    monkeypatch.setattr(compilers, "_op_gates", lambda op, theta, spec: ops.append(op) or op_gates(op, theta, spec))
    compile_lowrank_step(spec, 0.2, 1e-6, 4, 2)
    far = [op for op in ops if op.kind == "far"]
    assert len(far) > len({(op.rows, op.cols) for op in far})  # several stages reuse the factors
    for op in far:
        fac = op.data
        for mat in spec.two_local.values():  # both groups hold the same power law
            want = truncated_svd(mat.block(IndexRegion(op.rows, op.cols)), 1e-6)
            assert np.array_equal(fac.left, want.left) and np.array_equal(fac.right, want.right)
            assert np.array_equal(fac.singulars, want.singulars) and fac.residual == want.residual


def test_lowrank_rank1_block_cost():
    entries = {(1, 5): 0.3, (1, 6): 0.6, (2, 5): 0.1, (2, 6): 0.2}  # rank-1 cross block
    spec = HamiltonianSpec(8, 1, {ZZ: coeff_matrix(8, entries)}, {})
    t, eps = 0.2, 1e-3
    step = compile_lowrank_step(spec, t, 1e-9, 2, 1)
    w = phase_register_width(8, t, eps)
    comp = [g for g in step.circuit.gates if type(g).__name__ == "CompositeDiagonalPhase"]
    assert len(comp) == 1
    assert comp[0].cost == 2 * 1 * w  # sideLength * rank * width
    assert step_error(step, spec) < 1e-9


def test_lowrank_truncation_bound_and_monotone():
    spec = build_power_law(8, 1, 1.0)
    t, cutoff = 0.2, 2
    coarse = compile_lowrank_step(spec, t, 0.08, cutoff, 2)
    fine = compile_lowrank_step(spec, t, 1e-3, cutoff, 2)
    err_coarse = step_error(coarse, spec)
    err_fine = step_error(fine, spec)
    assert err_coarse <= t * truncation_bound_oracle(spec, cutoff, 0.08) + 1e-9
    assert err_fine <= t * truncation_bound_oracle(spec, cutoff, 1e-3) + 1e-9
    assert err_coarse > 1e-6  # coarse tolerance actually truncates
    assert err_fine < err_coarse


def test_lowrank_count_only_matches_verification():
    spec = build_power_law(8, 1, 1.5)
    full = compile_lowrank_step(spec, 0.2, 1e-4, 2, 2)
    counted = compile_lowrank_step(spec, 0.2, 1e-4, 2, 2, count_only=True)
    assert counted.gate_count == full.gate_count
    # zeros in the within blocks (1,2), (3,4) and the near rectangle (5,7), plus on-site terms
    zz = spec.two_local[ZZ].data.copy()
    zz[0, 1] = zz[2, 3] = zz[4, 6] = 0.0
    sparse = HamiltonianSpec(8, 1, {ZZ: CoeffMatrix(8, zz)}, {PauliKind.Z: np.full(8, 0.1)})
    for p in (1, 2, 4):
        full = compile_lowrank_step(sparse, 0.2, 1e-4, 2, p)
        counted = compile_lowrank_step(sparse, 0.2, 1e-4, 2, p, count_only=True)
        assert counted.gate_count == full.gate_count == full.circuit.cost()
    assert step_error(full, sparse) < 1e-3


def test_stage_axis_map_matches_pair_loop():
    rng = np.random.default_rng(2)
    for trial in range(40):
        data = np.triu(rng.standard_normal((6, 6)), k=1)
        data[rng.random((6, 6)) < 0.8] = 0.0
        mat = CoeffMatrix(6, data)
        for s1, s2 in (XY, ZZ, (PauliKind.Y, PauliKind.Z)):
            try:
                expected = stage_axis_map_oracle(mat, s1, s2)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=str(exc)):
                    _stage_axis_map(mat, s1, s2)
            else:
                assert _stage_axis_map(mat, s1, s2) == expected


def test_stage_axis_map_rejects_xz_conflict():
    xz = (PauliKind.X, PauliKind.Z)
    mat = coeff_matrix(4, {(1, 3): 0.5, (3, 4): 0.25, (2, 4): 1.0})
    spec = HamiltonianSpec(4, 1, {xz: mat}, {})
    with pytest.raises(ValidationError, match="site 3 needs two different basis changes"):
        _stage_axis_map(mat, *xz)
    for count_only in (False, True):
        with pytest.raises(ValidationError, match="site 3"):
            compile_lowrank_step(spec, 0.1, 1e-9, 1, 2, count_only=count_only)
        with pytest.raises(ValidationError, match="site 3"):
            compile_avgcost_step(spec, 0.1, 1, 2, count_only=count_only)


def test_lowrank_x_group_wrapped():
    mat = build_power_law(4, 1, 2.0, XX).two_local[XX]
    spec = HamiltonianSpec(4, 1, {XX: mat}, {})
    step = compile_lowrank_step(spec, 0.15, 1e-12, 1, 2)
    assert step_error(step, spec) < 1e-9


def test_lowrank_rejects_bad_tol():
    with pytest.raises(DomainError):
        compile_lowrank_step(zz_spec(8), 0.1, 0.0, 2, 2)


# -- avgcost ----------------------------------------------------------------------------


def test_avgcost_commuting_exact_any_m():
    spec = zz_spec(8)
    for m in (1, 2, 4):
        step = compile_avgcost_step(spec, 0.3, m, 2)
        assert step_error(step, spec) < 1e-9


def test_avgcost_m1_equals_lowrank_exact():
    spec = build_power_law(8, 1, 1.5)
    a = lowered_step_unitary(compile_avgcost_step(spec, 0.25, 1, 2))
    b = lowered_step_unitary(compile_lowrank_step(spec, 0.25, 1e-14, 2, 2))
    assert np.abs(a - b).max() < 1e-9


def test_avgcost_count_only_matches_verification():
    spec = build_power_law(8, 1, 1.5)
    full = compile_avgcost_step(spec, 0.2, 2, 2)
    counted = compile_avgcost_step(spec, 0.2, 2, 2, count_only=True)
    assert counted.gate_count == full.gate_count
    # an all-zero cell (rows 1-2 x columns 5-6 at m=2) and an on-site stage
    zz = spec.two_local[ZZ].data.copy()
    zz[0:2, 4:6] = 0.0
    sparse = HamiltonianSpec(8, 1, {ZZ: CoeffMatrix(8, zz)}, {PauliKind.Z: np.linspace(0.0, 0.4, 8)})
    for p in (1, 2, 4):
        full = compile_avgcost_step(sparse, 0.2, 2, p)
        counted = compile_avgcost_step(sparse, 0.2, 2, p, count_only=True)
        assert counted.circuit is None
        assert counted.gate_count == full.gate_count == full.circuit.cost()
    assert step_error(full, sparse) < 1e-9


def test_avgcost_rejects_bad_m():
    with pytest.raises(DomainError):
        compile_avgcost_step(zz_spec(8), 0.1, 0, 2)
    with pytest.raises(DomainError):
        compile_avgcost_step(zz_spec(8), 0.1, 5, 2)


# -- order scaling across methods ---------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 4])
def test_two_stage_order_scaling(p):
    spec = mixed_group_spec(4)
    ts = (0.05, 0.1, 0.2)
    errors = [
        step_error(compile_lowrank_step(spec, t, 1e-13, 1, p), spec) for t in ts
    ]
    slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
    assert abs(slope - (p + 1)) < 0.25


# -- Hamming-weight-2 reduction -------------------------------------------------------------


def reg_index(j, k, width):
    return (j - 1) + ((k - 1) << width)


def test_reduction_zero_coefficients():
    circ = compile_hamming2_reduction(CoeffMatrix.zeros(4))
    u = circuit_to_unitary(circ)
    assert spectral_distance(u, np.eye(u.shape[0])) < 1e-9


def test_reduction_single_coefficient():
    circ = compile_hamming2_reduction(coeff_matrix(4, {(1, 2): np.pi / 8}))
    u = circuit_to_unitary(circ)
    d = np.diag(u)
    for j, k in ((1, 2), (2, 1)):
        idx = reg_index(j, k, 2)
        assert d[idx] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-9)
        assert abs(d[idx]) >= 1.0 - 1e-9  # ancillas restored
    assert d[reg_index(1, 3, 2)] == pytest.approx(1.0, abs=1e-9)


def test_reduction_random_matrix():
    rng = np.random.default_rng(17)
    mat = CoeffMatrix(4, np.triu(rng.uniform(-0.5, 0.5, (4, 4)), k=1))
    circ = compile_hamming2_reduction(mat)
    u = circuit_to_unitary(circ)
    d = np.diag(u)
    for j in range(1, 5):
        for k in range(1, 5):
            want = np.exp(-4j * (coeff_value(mat, j, k) + coeff_value(mat, k, j)))  # either order
            assert d[reg_index(j, k, 2)] == pytest.approx(want, abs=1e-8)


def test_reduction_ancillas_restored_everywhere():
    mat = coeff_matrix(4, {(1, 4): 0.3, (2, 3): -0.7})
    u = circuit_to_unitary(compile_hamming2_reduction(mat))
    d = np.abs(np.diag(u))
    for j in range(1, 5):
        for k in range(1, 5):
            assert d[reg_index(j, k, 2)] >= 1.0 - 1e-9


def test_reduction_rejects_non_pow2():
    with pytest.raises(DomainError):
        compile_hamming2_reduction(CoeffMatrix.zeros(3))


def test_reduction_count_scales_without_cap():
    circ = compile_hamming2_reduction(CoeffMatrix.zeros(16))  # 24 qubits, count-only
    assert circ.qubit_count == 24
    assert circ.cost() > 0
    with pytest.raises(CapacityError):
        circuit_to_unitary(circ)


# -- exports -----------------------------------------------------------------------------


def test_step_exports():
    spec = zz_spec(4)
    step = compile_sequential_step(spec, 0.1, 1)
    text = circuit_text(step.circuit)
    assert "CNOT" in text and "RZ" in text
    doc = step_cost_json(step)
    assert '"method": "sequential"' in doc
    counted = compile_sequential_step(spec, 0.1, 1, count_only=True)
    assert counted.circuit is None and step_cost_json(counted) == doc


def test_reduction_overhead_model():
    # fixed per-n overhead: four conversion passes, 3 gates per unary site,
    # composite cost 2w+1 each; phases are the only coefficient-dependent part
    for n in (4, 8):
        mat = coeff_matrix(n, {(1, 2): 0.1})
        circ = compile_hamming2_reduction(mat)
        w = n.bit_length() - 1
        phases = sum(isinstance(g, ControlledPhase) for g in circ.gates)
        assert phases == 1
        assert circ.cost() - phases == 4 * n * (2 * w + 3)


# -- phase tables --------------------------------------------------------------------------


def closure_phase(op, theta, bits):
    """The per-basis-state formulas the phase tables replaced, one state at a time."""
    z = 1.0 - 2.0 * np.asarray(bits, dtype=float)
    zu, zv = z[: len(op.rows)], z[len(op.rows) :]
    if op.kind == "far":
        left, sing, right = op.data.left, op.data.singulars, op.data.right
        coupling = float(((zu @ left) * sing) @ (right.T @ zv))
    else:
        coupling = float(zu @ np.ascontiguousarray(op.data) @ zv)
    return -theta * coupling


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("pair", [XX, (PauliKind.Y, PauliKind.Y), ZZ], ids=["xx", "yy", "zz"])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_phase_tables_match_closure_formulas_bit_for_bit(monkeypatch, n, pair, p):
    seen = []
    op_gates = compilers._op_gates

    def recording(op, theta, spec):
        gates = op_gates(op, theta, spec)
        if op.kind in ("far", "cell"):
            seen.append((op, theta, gates))
        return gates

    monkeypatch.setattr(compilers, "_op_gates", recording)
    spec = build_power_law(n, 1, 1.5, pair, "seeded-random", seed=n + p)
    compile_lowrank_step(spec, 0.3, 1e-9, n // 4, p)
    compile_avgcost_step(spec, 0.3, n // 4, p)
    assert {op.kind for op, _, _ in seen} == {"far", "cell"}
    for op, theta, (gate,) in seen:
        k = len(gate.qubits)
        want = [closure_phase(op, theta, [(idx >> i) & 1 for i in range(k)]) for idx in range(1 << k)]
        assert gate.qubits == tuple(op.rows) + tuple(op.cols)
        assert np.array_equal(gate.phases, want)


def test_gadget_tables_hold_one_pi_each():
    n, w = 16, 4
    circ = compile_hamming2_reduction(CoeffMatrix.zeros(n))
    composites = [g for g in circ.gates if isinstance(g, CompositeDiagonalPhase)]
    assert len(composites) == 4 * n
    unary_start = 2 * w + 1
    for g in composites:
        u = g.qubits[-1] - unary_start + 1
        assert np.flatnonzero(g.phases).tolist() == [(u - 1) | (1 << w)]
        assert g.phases[(u - 1) | (1 << w)] == math.pi
    # the j pass (register 1..w) and the k pass (register w+1..2w) share one table per marker
    j_gate = next(g for g in composites if g.qubits[0] == 1)
    k_gate = next(g for g in composites if g.qubits[0] == w + 1)
    assert np.shares_memory(j_gate.phases, k_gate.phases)


def test_lowered_circuits_survive_pickle():
    spec = mixed_group_spec(8)
    circuits = [
        compile_lowrank_step(spec, 0.2, 1e-9, 2, 2).circuit,
        compile_avgcost_step(spec, 0.2, 2, 2).circuit,
        compile_hamming2_reduction(build_power_law(4, 1, 2.0).two_local[ZZ]),
    ]
    for circ in circuits:
        again = pickle.loads(pickle.dumps(circ))
        assert np.array_equal(circuit_to_unitary(again), circuit_to_unitary(circ))
        tables = [g.phases for g in again.gates if isinstance(g, CompositeDiagonalPhase)]
        assert tables and not any(t.flags.writeable for t in tables)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_pickled_formula_stays_read_only(p):
    formula = make_product_formula(p, 5)
    loaded = pickle.loads(pickle.dumps(formula))
    assert (loaded.p, loaded.stage_count) == (formula.p, formula.stage_count)
    assert np.array_equal(loaded.stages, formula.stages)
    assert np.array_equal(loaded.fractions, formula.fractions)
    assert not loaded.stages.flags.writeable and not loaded.fractions.flags.writeable


# -- distances from exact evolution ------------------------------------------------------


def z_field_spec(n):
    zz = build_power_law(n, 1, 1.0, ZZ, "seeded-random", n).two_local[ZZ]
    return HamiltonianSpec(n, 1, {ZZ: zz}, {PauliKind.Z: np.linspace(-0.4, 0.6, n)}, identity=0.3)


@pytest.mark.parametrize("make_spec", [
    pytest.param(lambda: z_field_spec(8), id="zz-field-identity"),
    pytest.param(lambda: build_power_law(8, 1, 2.0, ZZ, "alternating"), id="zz-chain"),
    pytest.param(lambda: HamiltonianSpec(8, 1, mixed_group_spec(8).two_local, {PauliKind.X: np.full(8, 0.2)},
                                         identity=-0.5), id="xx-zz-field-identity"),
])
def test_step_distances_equal_the_dense_distance_bit_for_bit(make_spec):
    spec = make_spec()
    steps = [compile_sequential_step(spec, 0.3, 1), compile_lowrank_step(spec, 0.2, 1e-9, 2, 4),
             compile_avgcost_step(spec, 1.0, 2, 2)]
    want = [step_error(step, spec) for step in steps]
    assert step_distances(spec, steps) == want
    assert step_distances(spec, steps[1:2]) == want[1:2]


def test_step_distances_of_a_z_only_spec_hold_no_dense_matrix(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a Z-only spec built a dense matrix")

    spec = z_field_spec(8)
    steps = [compile_lowrank_step(spec, t, 1e-9, 2, 2) for t in (0.1, 1.0)]
    for name in ("circuit_to_unitary", "exact_evolutions", "lowered_step_unitary"):
        monkeypatch.setattr(compilers, name, never)
    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, never)
    assert max(step_distances(spec, steps)) < 1e-12


def test_step_distances_need_lowered_steps():
    for spec in (z_field_spec(4), mixed_group_spec(4)):
        with pytest.raises(ValidationError, match="count-only"):
            step_distances(spec, [compile_sequential_step(spec, 0.1, 2, count_only=True)])


def test_distance_capacity_follows_the_path_of_the_spec(fake_physical_memory):
    fake_physical_memory(1)
    check_distance_capacity(z_field_spec(22))  # 176 B x 2^22 = 0.7 GiB
    with pytest.raises(CapacityError, match=r"^checking a 23-qubit Z-only step against exact evolution "
                                            r"\(2\^23 vectors\) needs 1.4 GiB"):
        check_distance_capacity(z_field_spec(23))
    with pytest.raises(CapacityError, match=r"^checking a 12-qubit step .*\(6 dense 2\^12 x 2\^12 matrices\)"):
        check_distance_capacity(mixed_group_spec(12))
