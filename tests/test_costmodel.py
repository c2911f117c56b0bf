import gc
import math
import tracemalloc

import numpy as np
import pytest

import trotterforge.compilers as compilers
import trotterforge.costmodel as costmodel
from trotterforge.circuit import CompositeDiagonalPhase, circuit_text
from trotterforge.compilers import compile_avgcost_step, compile_lowrank_step, phase_register_width
from trotterforge.costmodel import (
    Recurrence,
    balanced_subdivision,
    block_step_count,
    classify_recurrence,
    compile_method,
    fit_exponent,
    gate_count_report,
    solve_coupled_recurrence,
    solve_recurrence_numeric,
)
from trotterforge.decomp import bisection_decompose
from trotterforge.errors import DomainError, ValidationError
from trotterforge.hamlib import BlockMemo, CoeffMatrix, HamiltonianSpec, PauliKind, build_power_law


# -- oracles --------------------------------------------------------------------


def recursion_oracle(c0, n0, m1, m2, m, cost, n):
    if n < n0:
        return c0
    lo = recursion_oracle(c0, n0, m1, m2, m, cost, n // m)
    hi = recursion_oracle(c0, n0, m1, m2, m, cost, -(-n // m))
    return m1 * lo + m2 * hi + cost(n)


def loglog_slope(ns, counts):
    return np.polyfit(np.log(ns), np.log(counts), 1)[0]


# -- recurrences -----------------------------------------------------------------


def test_linear_cost_example():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n))
    assert solve_recurrence_numeric(rec, 8) == 32.0
    assert solve_recurrence_numeric(rec, 8) == recursion_oracle(
        1.0, 2, 2, 0, 2, lambda n: float(n), 8
    )


def test_leaf_count():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: 0.0)
    for n in (2, 4, 16, 64):
        assert solve_recurrence_numeric(rec, n) == float(n)


def test_base_case():
    rec = Recurrence(7.0, 4, 2, 0, 2, lambda n: float(n))
    assert solve_recurrence_numeric(rec, 3) == 7.0
    assert solve_recurrence_numeric(rec, 1) == 7.0


def test_uneven_split_matches_oracle():
    cost = lambda n: float(n) ** 1.5
    rec = Recurrence(2.0, 3, 1, 2, 3, cost)
    for n in (5, 17, 100):
        assert solve_recurrence_numeric(rec, n) == pytest.approx(
            recursion_oracle(2.0, 3, 1, 2, 3, cost, n)
        )


def test_recurrence_validation():
    with pytest.raises(DomainError):
        Recurrence(1.0, 2, 0, 0, 2, lambda n: 0.0)
    with pytest.raises(DomainError):
        Recurrence(1.0, 2, 2, 0, 1, lambda n: 0.0)
    with pytest.raises(DomainError):
        Recurrence(-1.0, 2, 2, 0, 2, lambda n: 0.0)


# -- classification ----------------------------------------------------------------


def test_boundary_case():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n), alpha_exp=1.0, k=0)
    cls = classify_recurrence(rec)
    assert cls.case == "boundary"
    assert (cls.exponent, cls.log_power) == (1.0, 1)
    assert cls.ratio_spread < 3.0


def test_top_case():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n) ** 2, alpha_exp=2.0, k=0)
    cls = classify_recurrence(rec)
    assert cls.case == "top"
    assert (cls.exponent, cls.log_power) == (2.0, 0)
    assert cls.ratio_spread < 3.0


def test_bottom_case():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: 1.0, alpha_exp=0.0, k=0)
    cls = classify_recurrence(rec)
    assert cls.case == "bottom"
    assert (cls.exponent, cls.log_power) == (1.0, 0)
    assert cls.critical_exponent == pytest.approx(1.0)
    assert cls.ratio_spread < 3.0


def test_classification_needs_declaration():
    rec = Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n))
    with pytest.raises(ValidationError):
        classify_recurrence(rec)


def test_coupled_recurrence_nlogn():
    ratios = []
    for e in range(4, 13):
        n = 1 << e
        value = solve_coupled_recurrence(n, lambda x: float(x))
        ratios.append(value / (n * math.log2(n)))
    assert max(ratios) / min(ratios) < 3.0


def test_coupled_rejects_non_pow2():
    with pytest.raises(DomainError):
        solve_coupled_recurrence(12, lambda x: float(x))


# -- exponent fitting -----------------------------------------------------------------


def test_fit_exponent_exact_power():
    ns = [16, 32, 64, 128]
    assert fit_exponent(ns, [float(n) ** 1.5 for n in ns]) == pytest.approx(1.5)


def test_fit_exponent_weights_tail():
    ns = [16, 32, 64, 128]
    # noise on the smallest point should matter less than on the largest
    clean = [float(n) for n in ns]
    low_noise = fit_exponent(ns, [clean[0] * 1.3] + clean[1:])
    high_noise = fit_exponent(ns, clean[:-1] + [clean[-1] * 1.3])
    assert abs(high_noise - 1.0) > abs(low_noise - 1.0)


def test_fit_exponent_validation():
    with pytest.raises(ValidationError):
        fit_exponent([8], [1.0])


# -- gate-count reports -----------------------------------------------------------------


SWEEP = (64, 128, 256, 512, 1024)


def test_sequential_report_quadratic():
    report = gate_count_report("sequential", 2.0, 1, 1.0, 1e-3, SWEEP)
    assert report.predicted_exponent == 2.0
    assert abs(report.fitted_exponent - 2.0) <= 0.1
    # term count is exactly quadratic; the count oracle is 3 gates per ZZ term
    assert report.counts[0] > 3 * (64 * 63 // 2) * 0.9


def test_lowrank_report_near_linear():
    report = gate_count_report("lowrank", 2.0, 1, 1.0, 1e-3, SWEEP)
    assert report.predicted_exponent == 1.0
    assert report.fitted_exponent <= 1.2


def test_block_report_alpha3():
    report = gate_count_report("block", 3.0, 1, 1.0, 1e-3, SWEEP)
    assert report.predicted_exponent == 1.0
    assert report.fitted_exponent <= 1.2


def test_avgcost_report_alpha_three_halves():
    ns = (32, 64, 128, 256)
    report = gate_count_report("avgcost", 1.5, 1, 1.0, 1e-3, ns)
    assert report.predicted_exponent == pytest.approx(1.25)
    ratios = [c / n**1.25 for n, c in zip(report.ns, report.counts)]
    assert max(ratios) / min(ratios) <= 2.0


def test_report_rejections():
    with pytest.raises(DomainError):
        gate_count_report("mystery", 1.0, 1, 1.0, 1e-3, SWEEP)
    with pytest.raises(DomainError):
        gate_count_report("lowrank", 1.0, 2, 1.0, 1e-3, SWEEP)
    with pytest.raises(DomainError):
        gate_count_report("avgcost", 2.0, 1, 1.0, 1e-3, SWEEP)
    with pytest.raises(ValidationError):
        gate_count_report("sequential", 1.0, 1, 1.0, 1e-3, (8, 16, 32))
    with pytest.raises(ValidationError):
        gate_count_report("sequential", 1.0, 1, 1.0, 1e-3, (8, 12, 16, 32))


@pytest.mark.parametrize("tol", [None, 1e-9])
@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8])
@pytest.mark.parametrize("method", ["sequential", "lowrank", "avgcost"])
def test_report_counts_the_step_compile_method_builds(method, eps, tol):
    ns = (16, 32, 64, 128)
    report = gate_count_report(method, 1.5, 1, 1.0, eps, ns, tol=tol)
    for n, count in zip(ns, report.counts):
        step = compile_method(method, build_power_law(n, 1, 1.5), 1.0, 2, eps, tol=tol, count_only=True)
        assert count == step.gate_count


class Unshared(BlockMemo):
    """Oracle memo: computes every result afresh, as if no two blocks were equal."""

    def get(self, block, params, compute):
        return compute()


def fresh_count(method, spec, t, p, eps, memo, cutoff_size=4):
    if method == "block":
        return block_step_count(spec, t, eps, memo)
    return compile_method(method, spec, t, p, eps, cutoff_size=cutoff_size, count_only=True, memo=memo).gate_count


MEMO_CASES = [(0.5, 0.1, 1e-3, 1, 4), (1.0, 1.0, 1e-8, 2, 2), (1.5, 0.3, 1e-3, 4, 1), (3.0, 1.0, 1e-6, 2, 8)]


@pytest.mark.parametrize(
    "method, alpha, t, eps, p, cutoff_size",
    [(method, *case) for method in ("lowrank", "block", "avgcost") for case in MEMO_CASES
     if method != "avgcost" or case[0] < 2.0],  # avgcost is defined below alpha = 2 only
)
def test_one_memo_per_report_counts_what_a_fresh_memo_per_size_counts(method, alpha, t, eps, p, cutoff_size):
    ns = (16, 32, 64, 128)
    report = gate_count_report(method, alpha, 1, t, eps, ns, p=p, cutoff_size=cutoff_size)
    for n, count in zip(ns, report.counts):
        spec = build_power_law(n, 1, alpha)
        assert count == fresh_count(method, spec, t, p, eps, None, cutoff_size)
        assert count == fresh_count(method, spec, t, p, eps, Unshared(), cutoff_size)


@pytest.mark.parametrize("method", ["lowrank", "block", "avgcost"])
def test_a_report_memo_holds_no_block_bytes(method, monkeypatch):
    # block bytes as keys would take 349-699 KiB here; a digest key takes a few hundred bytes
    memos = []

    class Kept(BlockMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(costmodel, "BlockMemo", Kept)
    tracemalloc.start()
    try:
        gate_count_report(method, 1.5, 1, 0.1, 1e-3, (64, 128, 256, 512))
        gc.collect()
        with_memo = tracemalloc.get_traced_memory()[0]
        [memo] = memos
        keys = len(memo._blocks)
        memos.clear()
        del memo
        gc.collect()
        held = with_memo - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert keys >= 9  # distinct blocks the sweep read
    assert held <= 64 * 1024  # keys and results of every distinct block


def same_circuit(a, b):
    composites = [(x, y) for x, y in zip(a.gates, b.gates) if isinstance(x, CompositeDiagonalPhase)]
    return circuit_text(a) == circuit_text(b) and all(np.array_equal(x.phases, y.phases) for x, y in composites)


@pytest.mark.parametrize("method", ["lowrank", "avgcost"])
def test_a_memo_shared_across_random_sign_compiles_changes_no_circuit(method):
    zz, xx = (PauliKind.Z, PauliKind.Z), (PauliKind.X, PauliKind.X)
    groups = {pair: build_power_law(8, 1, 1.5, pair, "seeded-random", seed).two_local[pair] for seed, pair in enumerate((zz, xx))}
    spec = HamiltonianSpec(8, 1, groups, {})
    shared = BlockMemo()
    for t in (0.1, 0.7):
        for p in (1, 2, 4):
            got = compile_method(method, spec, t, p, 1e-3, tol=1e-6, cutoff_size=1, memo=shared)
            want = compile_method(method, spec, t, p, 1e-3, tol=1e-6, cutoff_size=1, memo=Unshared())
            assert got.gate_count == want.gate_count
            assert same_circuit(got.circuit, want.circuit)


def two_group_spec(n, alpha=1.5):
    zz, xx = (PauliKind.Z, PauliKind.Z), (PauliKind.X, PauliKind.X)
    groups = {pair: build_power_law(n, 1, alpha, pair, "seeded-random", seed).two_local[pair] for seed, pair in enumerate((zz, xx))}
    return HamiltonianSpec(n, 1, groups, {})


class ClosureCheck(BlockMemo):
    """A memo that records every object its computes close over."""

    def __init__(self):
        super().__init__()
        self.closed_over = []

    def get(self, block, params, compute):
        self.closed_over += [cell.cell_contents for cell in compute.__closure__ or ()]
        return super().get(block, params, compute)


def test_every_memoized_compute_reads_the_block_it_is_keyed_on(monkeypatch):
    args = []
    for module, name in ((costmodel, "pair_box_norms"), (compilers, "cell_norms"), (compilers, "truncated_svd")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn: args.append(a[0]) or fn(*a))
    spec, memo = two_group_spec(16), ClosureCheck()
    block_step_count(spec, 1.0, 1e-3, memo)
    for method in ("lowrank", "avgcost"):
        for count_only in (True, False):
            compile_method(method, spec, 0.3, 2, 1e-3, m=3, cutoff_size=2, count_only=count_only, memo=memo)
    assert args and all(type(a) is np.ndarray for a in args)
    assert memo.closed_over and not any(isinstance(x, (CoeffMatrix, HamiltonianSpec)) for x in memo.closed_over)


@pytest.mark.parametrize("count_only", [True, False])
def test_a_stage_reads_each_pair_cross_block_once(monkeypatch, count_only):
    spec, reads = two_group_spec(16), []
    block = CoeffMatrix.block
    monkeypatch.setattr(CoeffMatrix, "block", lambda self, region: reads.append(region) or block(self, region))
    crosses = [pair.cross_region() for pair in bisection_decompose(16).pairs]
    # p = 2 over two group stages runs three schedule entries: 1/2, 2, 1/2
    compile_method("avgcost", spec, 0.3, 2, 1e-3, m=3, count_only=count_only)
    assert sorted(map(repr, reads)) == sorted(map(repr, 3 * crosses))
    reads.clear()
    block_step_count(spec, 0.3, 1e-3)
    assert sorted(map(repr, reads)) == sorted(map(repr, 2 * crosses))


def test_every_cell_op_is_a_view_of_its_pair_cross_block(monkeypatch):
    spec = build_power_law(16, 1, 1.5, sign_rule="seeded-random", seed=3)
    data = spec.two_local[(PauliKind.Z, PauliKind.Z)].data
    reads, ops = {}, []

    def block_copy(self, region):  # a fresh array per read, so a view shows which read it came from
        copy = self.data[region.slices()].copy()
        reads.setdefault(region, []).append(copy)
        return copy

    monkeypatch.setattr(CoeffMatrix, "block", block_copy)
    op_gates = compilers._op_gates
    monkeypatch.setattr(compilers, "_op_gates", lambda op, theta, spec: ops.append(op) or op_gates(op, theta, spec))
    compile_method("avgcost", spec, 0.3, 2, 1e-3, m=3)
    assert len(ops) == 51
    for op in ops:
        [pair] = [p for p in bisection_decompose(16).pairs if op.rows[0] in p.left and op.cols[0] in p.right]
        assert set(op.rows) <= set(pair.left) and set(op.cols) <= set(pair.right)
        assert any(np.shares_memory(op.data, block) for block in reads[pair.cross_region()])
        assert np.array_equal(op.data, data[np.ix_(np.asarray(op.rows) - 1, np.asarray(op.cols) - 1)])


@pytest.mark.parametrize("method", ["block", "lowrank", "avgcost"])
def test_a_memo_filled_on_one_spec_serves_another_with_the_same_blocks(method):
    # a power law's cross blocks at n=32 recur, at other sites, at n=64 and in another Pauli group
    xx = (PauliKind.X, PauliKind.X)
    filled = BlockMemo()
    fresh_count(method, build_power_law(32, 1, 1.5), 0.3, 2, 1e-3, filled, cutoff_size=2)
    if method == "avgcost":  # and the uneven cells of m = 3
        compile_method(method, build_power_law(32, 1, 1.5), 0.3, 2, 1e-3, m=3, count_only=True, memo=filled)
    for spec in (build_power_law(64, 1, 1.5), build_power_law(32, 1, 1.5, xx, "alternating")):
        assert fresh_count(method, spec, 0.3, 2, 1e-3, filled, 2) == fresh_count(method, spec, 0.3, 2, 1e-3, Unshared(), 2)
    if method != "block":
        spec = build_power_law(16, 1, 1.5, xx)
        got = compile_method(method, spec, 0.3, 2, 1e-3, m=3, cutoff_size=2, memo=filled)
        want = compile_method(method, spec, 0.3, 2, 1e-3, m=3, cutoff_size=2, memo=Unshared())
        assert got.gate_count == want.gate_count and same_circuit(got.circuit, want.circuit)


def test_a_report_takes_one_svd_and_one_box_norm_per_distinct_block_of_its_sweep(monkeypatch):
    # these sizes hold 1,383 far blocks of 14 distinct byte patterns, and 1,979 bisection pairs
    # whose cross blocks take 10 (one per half size)
    svds, boxes = [], []
    svd, pair_box_norms = np.linalg.svd, costmodel.pair_box_norms
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a.shape) or svd(a, **kw))
    monkeypatch.setattr(costmodel, "pair_box_norms", lambda mat, pair: boxes.append(pair) or pair_box_norms(mat, pair))
    gate_count_report("lowrank", 2.0, 1, 1.0, 1e-3, SWEEP)
    gate_count_report("block", 2.0, 1, 1.0, 1e-3, SWEEP)
    assert len(svds) == 14
    assert len(boxes) == 10


def test_compile_method_maps_eps_tol_and_m_onto_the_compilers():
    spec = build_power_law(64, 1, 1.5)
    want = compile_lowrank_step(spec, 1.0, 1e-8, 4, 2, count_only=True, eps=1e-8)
    assert compile_method("lowrank", spec, 1.0, 2, 1e-8, count_only=True).gate_count == want.gate_count
    want = compile_lowrank_step(spec, 1.0, 1e-9, 4, 2, count_only=True, eps=1e-8)
    assert compile_method("lowrank", spec, 1.0, 2, 1e-8, tol=1e-9, count_only=True).gate_count == want.gate_count
    m = balanced_subdivision(64, 1.5, 1.0)
    want = compile_avgcost_step(spec, 1.0, m, 2, count_only=True, eps=1e-8)
    assert compile_method("avgcost", spec, 1.0, 2, 1e-8, count_only=True).gate_count == want.gate_count
    want = compile_avgcost_step(spec, 1.0, 2, 2, count_only=True, eps=1e-8)
    assert compile_method("avgcost", spec, 1.0, 2, 1e-8, m=2, count_only=True).gate_count == want.gate_count
    with pytest.raises(DomainError):
        compile_method("block", spec, 1.0, 2, 1e-8)


def test_lowrank_fit_divides_by_the_width_the_counts_use():
    ns = (64, 128, 256, 512)
    report = gate_count_report("lowrank", 1.5, 1, 1.0, 1e-8, ns, tol=1e-3)
    layers = [max(1, (n // 4).bit_length() - 2) for n in ns]
    net = [c / (phase_register_width(n, 1.0, 1e-8) * k) for n, c, k in zip(ns, report.counts, layers)]
    assert report.fitted_exponent == fit_exponent(ns, net)


def test_report_csv_layout():
    report = gate_count_report("sequential", 1.0, 1, 0.5, 1e-3, (16, 32, 64, 128))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "method,alpha,d,n,count,fitted_exponent,predicted_exponent"
    assert len(lines) == 5
    assert lines[1].startswith("sequential,1.0,1,16,")


# -- block/avgcost count models ------------------------------------------------------------


def test_block_count_grows_with_time():
    spec = build_power_law(64, 1, 2.0)
    assert block_step_count(spec, 2.0, 1e-3) > block_step_count(spec, 0.5, 1e-3)


def test_balanced_subdivision_clamps():
    assert balanced_subdivision(64, 1.0, 1.0) == 8
    assert balanced_subdivision(4, 3.5, 1.0) == 1
    assert balanced_subdivision(64, 0.0, 100.0) == 32


def test_balanced_m_is_feasible():
    for n in (32, 64, 128):
        m = balanced_subdivision(n, 1.5, 1.0)
        step = compile_avgcost_step(build_power_law(n, 1, 1.5), 1.0, m, 2, count_only=True)
        assert step.gate_count > 0
