import numpy as np
import pytest

from trotterforge.circuit import (
    ControlledPhase,
    circuit_to_unitary,
    exact_evolution,
    spectral_distance,
)
from trotterforge.compilers import (
    ProductFormula,
    _stage_axis_map,
    compile_avgcost_step,
    compile_hamming2_reduction,
    compile_lowrank_step,
    compile_sequential_step,
    lowered_step_unitary,
    make_product_formula,
    phase_register_width,
    sequential_terms,
    step_cost_json,
    step_to_text,
)
from trotterforge.decomp import lowrank_decompose
from trotterforge.errors import CapacityError, DomainError, ValidationError
from trotterforge.hamlib import CoeffMatrix, HamiltonianSpec, PauliKind, build_power_law

XX = (PauliKind.X, PauliKind.X)
XY = (PauliKind.X, PauliKind.Y)
ZZ = (PauliKind.Z, PauliKind.Z)


# -- oracles and helpers -----------------------------------------------------------


def truncation_bound_oracle(spec, cutoff, tol):
    """Sum over far blocks of the 1-norm of the dropped part, from a dense SVD."""
    total = 0.0
    for key in spec.groups():
        mat = spec.two_local[key]
        for pair in lowrank_decompose(spec.n, cutoff).far_field:
            block = mat.block(list(pair.left.sites()), list(pair.right.sites()))
            u, s, vt = np.linalg.svd(block, full_matrices=False)
            keep = int(np.sum(s > tol))
            dropped = block - (u[:, :keep] * s[:keep]) @ vt[:keep]
            total += np.abs(dropped).sum()
    return total


def zz_spec(n, value=0.5):
    entries = {(j, k): value for j in range(1, n + 1) for k in range(j + 1, n + 1)}
    return HamiltonianSpec(n, 1, {ZZ: CoeffMatrix.from_entries(n, entries)}, {})


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
    assert fr.stages.tolist() == [1, 2, 1]
    with pytest.raises(ValueError):
        fr.fractions[0] = 1.0


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


# -- sequential ------------------------------------------------------------------------


def test_single_term_exact():
    spec = HamiltonianSpec(2, 1, {ZZ: CoeffMatrix.from_entries(2, {(1, 2): 0.8})}, {})
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


def test_sequential_capacity_only_in_verification():
    spec = build_power_law(15, 1, 2.0)
    counted = compile_sequential_step(spec, 0.1, 2, count_only=True)
    assert counted.gate_count > 0
    with pytest.raises(CapacityError):
        compile_sequential_step(spec, 0.1, 2)


def test_sequential_term_order():
    spec = mixed_group_spec(4)
    terms = sequential_terms(spec)
    keys = [(s1.value, s2.value, q1, q2) for ((q1, s1), (q2, s2)), _ in terms]
    assert keys == sorted(keys)


# -- lowrank ---------------------------------------------------------------------------


def test_lowrank_commuting_exact():
    spec = zz_spec(8)
    step = compile_lowrank_step(spec, 0.3, 1e-12, 2, 2)
    assert step_error(step, spec) < 1e-9


def test_lowrank_rank1_block_cost():
    entries = {(1, 5): 0.3, (1, 6): 0.6, (2, 5): 0.1, (2, 6): 0.2}  # rank-1 cross block
    spec = HamiltonianSpec(8, 1, {ZZ: CoeffMatrix.from_entries(8, entries)}, {})
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
    mat = CoeffMatrix.from_entries(4, {(1, 3): 0.5, (3, 4): 0.25, (2, 4): 1.0})
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
    circ = compile_hamming2_reduction(CoeffMatrix.from_entries(4, {(1, 2): np.pi / 8}))
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
    assert circ.system_qubits == 4
    u = circuit_to_unitary(circ)
    d = np.diag(u)
    for j in range(1, 5):
        for k in range(1, 5):
            want = np.exp(-4j * mat.sym_value(j, k))
            assert d[reg_index(j, k, 2)] == pytest.approx(want, abs=1e-8)


def test_reduction_ancillas_restored_everywhere():
    mat = CoeffMatrix.from_entries(4, {(1, 4): 0.3, (2, 3): -0.7})
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
    text = step_to_text(step)
    assert "CNOT" in text and "RZ" in text
    doc = step_cost_json(step)
    assert '"method": "sequential"' in doc
    counted = compile_sequential_step(spec, 0.1, 1, count_only=True)
    with pytest.raises(ValidationError):
        step_to_text(counted)


def test_reduction_overhead_model():
    # fixed per-n overhead: four conversion passes, 3 gates per unary site,
    # composite cost 2w+1 each; phases are the only coefficient-dependent part
    for n in (4, 8):
        mat = CoeffMatrix.from_entries(n, {(1, 2): 0.1})
        circ = compile_hamming2_reduction(mat)
        w = n.bit_length() - 1
        phases = sum(isinstance(g, ControlledPhase) for g in circ.gates)
        assert phases == 1
        assert circ.cost() - phases == 4 * n * (2 * w + 3)
