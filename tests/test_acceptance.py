"""End-to-end acceptance gate: twelve numbered criteria, one line each.

Run with -s to see the per-criterion PASS/FAIL lines. Every criterion
carries a wall-clock budget that is part of the check.
"""

import math
import time

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from conftest import coeff_matrix
from trotterforge.blockenc import (
    build_boxed_preparation,
    build_lcu_encoding,
    walk_invariant_phases,
)
from trotterforge.bounds import (
    THETA_CEILING,
    BoundQuery,
    coeff_oracle_lower_bound,
    commuting_ham_lower_bound,
    diag_synthesis_lower_bound,
    discrete_diag_lower_bound,
)
from trotterforge.chem import ElectronicSystem, jw_matrix, norm_scaling_report
from trotterforge.circuit import (
    circuit_to_unitary,
    exact_evolution,
    spectral_distance,
    subspace_distance,
)
from trotterforge.compilers import (
    compile_avgcost_step,
    compile_hamming2_reduction,
    compile_lowrank_step,
    compile_sequential_step,
    lowered_step_unitary,
)
from trotterforge.costmodel import (
    Recurrence,
    classify_recurrence,
    gate_count_report,
    solve_coupled_recurrence,
)
from trotterforge.decomp import bisection_decompose, lowrank_decompose, nested_boxes
from trotterforge.hamlib import HamiltonianSpec, IndexRegion, PauliKind, build_power_law
from trotterforge.lowrank import rank_profile
from trotterforge.trotter import fermionic_error_norms

mp.mp.dps = 50

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _finish(num: int, name: str, budget: float, start: float, problems: list) -> None:
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s)")
    assert not problems, problems


def _rand_string(rng, q: int) -> np.ndarray:
    mats = [_PAULI[rng.integers(0, 4)] for _ in range(q)]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _mixed_spec(n: int) -> HamiltonianSpec:
    xx = build_power_law(n, 1, 2.0, (PauliKind.X, PauliKind.X)).two_local[
        (PauliKind.X, PauliKind.X)
    ]
    zz = build_power_law(n, 1, 1.0).two_local[(PauliKind.Z, PauliKind.Z)]
    return HamiltonianSpec(n, 1, {(PauliKind.X, PauliKind.X): xx, (PauliKind.Z, PauliKind.Z): zz}, {})


def _slope(ts, errs) -> float:
    return float(np.polyfit(np.log(ts), np.log(errs), 1)[0])


# -- 1: every site pair lands in exactly one rectangle ---------------------------

def test_01_pair_covers_are_exact():
    start = time.perf_counter()
    problems = []

    def tally(regions, n, label):
        seen = {}
        for region in regions:
            for j, k in region.pairs():
                seen[(j, k)] = seen.get((j, k), 0) + 1
        want = {(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)}
        if set(seen) != want or any(v != 1 for v in seen.values()):
            problems.append(f"{label} n={n}: cover is not exact")

    for n in (2, 4, 8, 16, 32):
        tally([p.cross_region() for p in bisection_decompose(n).pairs], n, "bisection")
        cutoff = max(1, min(4, n // 2))
        dec = lowrank_decompose(n, cutoff)
        tally([p.cross_region() for p in dec.far_field] + dec.remainder_regions(), n, "lowrank")
        cells = {}
        for box in nested_boxes(n):
            for u in box.u:
                for v in box.v:
                    cells[(u, v)] = cells.get((u, v), 0) + 1
        want = {(u, v) for u in range(-n, 0) for v in range(1, n + 1)}
        if set(cells) != want or any(c != 1 for c in cells.values()):
            problems.append(f"boxes n={n}: tiling is not exact")

    _finish(1, "exact pair covers", 1.0, start, problems)


# -- 2: corner block reproduces H / lambda; boxed success probability ---------------

def test_02_block_encoding_identity():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(202)
    for trial in range(20):
        q = int(rng.integers(2, 6))
        k = int(rng.integers(2, 7))
        weights = rng.uniform(0.2, 2.0, size=k)
        mats = [_rand_string(rng, q) for _ in range(k)]
        target = sum(w * m for w, m in zip(weights, mats))
        enc = build_lcu_encoding(list(zip(weights, mats)))
        resid = np.linalg.norm(enc.encoded() - target / enc.lam, 2)
        if resid > 1e-9:
            problems.append(f"trial {trial}: encoding residual {resid:.2e}")

    for n, alpha in ((16, 1.0), (16, 2.0), (16, 3.0), (32, 2.0)):
        spec = build_power_law(n, 1, alpha)
        half = n // 2
        mat = spec.two_local[(PauliKind.Z, PauliKind.Z)]
        block = np.abs(
            mat.block(IndexRegion(range(1, half + 1), range(half + 1, n + 1)))
        )
        prep = build_boxed_preparation(block)
        box_norm = 0.0
        for box in nested_boxes(half):
            sub = block[box.u.start + half : box.u.stop + half, box.v.start - 1 : box.v.stop - 1]
            box_norm += box.weight * float(sub.max())
        expected = float(block.sum()) / box_norm
        if abs(prep.success_probability - expected) > 1e-9:
            problems.append(
                f"n={n} alpha={alpha}: success {prep.success_probability} != {expected}"
            )
        if prep.encoding_error != 0.0:
            problems.append(f"n={n} alpha={alpha}: exact mode reported rounding error")

    _finish(2, "block-encoding identity", 10.0, start, problems)


# -- 3: walk eigenphases are +/- arccos of the encoded spectrum ----------------------

def test_03_walk_spectrum():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(303)
    kept = 0
    while kept < 12:
        q = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        terms = [(float(rng.uniform(0.2, 2.0)), _rand_string(rng, q)) for _ in range(k)]
        enc = build_lcu_encoding(terms)
        if not enc.hermitian:
            continue
        evals = np.linalg.eigvalsh((enc.encoded() + enc.encoded().conj().T) / 2.0)
        if np.abs(evals).max() > 1.0 - 1e-6:
            continue  # keep every invariant block two-dimensional
        kept += 1
        measured, _ = walk_invariant_phases(enc)
        expected = np.sort([s * math.acos(float(e)) for e in evals for s in (1.0, -1.0)])
        gap = float(np.abs(measured - expected).max())
        if gap > 1e-7:
            problems.append(f"instance {kept}: phase multiset gap {gap:.2e}")
    _finish(3, "walk spectrum", 10.0, start, problems)


# -- 4: far-field ranks grow like log(1/tol) and stay small --------------------------

def test_04_log_rank_growth():
    start = time.perf_counter()
    problems = []
    tols = [10.0**-e for e in range(2, 9)]
    x = np.log([1.0 / tol for tol in tols])
    for alpha in (1.0, 2.0, 3.0):
        spec = build_power_law(256, 1, alpha)
        dec = lowrank_decompose(256, 4)
        rhos = [rank_profile(spec, dec, tol).rho_max for tol in tols]
        if max(rhos) > 25:
            problems.append(f"alpha={alpha}: rho_max {max(rhos)} exceeds 25")
        coeffs = np.polyfit(x, rhos, 1)
        fit = np.polyval(coeffs, x)
        ss_res = float(((rhos - fit) ** 2).sum())
        ss_tot = float(((rhos - np.mean(rhos)) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot
        if r2 < 0.9:
            problems.append(f"alpha={alpha}: rank-vs-log fit R^2 {r2:.3f} < 0.9 ({rhos})")
    _finish(4, "log-rank growth", 30.0, start, problems)


# -- 5: compiled steps are exact on commuting specs, order-correct on mixed ---------

def test_05_compiled_step_correctness():
    start = time.perf_counter()
    problems = []
    t = 0.3
    spec10 = build_power_law(10, 1, 2.0)
    spec8 = build_power_law(8, 1, 2.0)
    runs = (
        ("sequential", spec10, compile_sequential_step(spec10, t, 2)),
        ("lowrank", spec8, compile_lowrank_step(spec8, t, 1e-12, 2, 2)),
        ("avgcost", spec8, compile_avgcost_step(spec8, t, 2, 2)),
    )
    for name, spec, step in runs:
        dist = spectral_distance(lowered_step_unitary(step), exact_evolution(spec, t))
        if dist > 1e-9:
            problems.append(f"{name} commuting: distance {dist:.2e}")

    ts = (0.05, 0.1, 0.2)
    spec6 = _mixed_spec(6)
    spec4 = _mixed_spec(4)
    for p in (1, 2, 4):
        errs = [
            spectral_distance(
                lowered_step_unitary(compile_sequential_step(spec6, tv, p)),
                exact_evolution(spec6, tv),
            )
            for tv in ts
        ]
        got = _slope(ts, errs)
        if abs(got - (p + 1)) > 0.25:
            problems.append(f"sequential p={p}: slope {got:.2f}")
        errs = [
            spectral_distance(
                lowered_step_unitary(compile_lowrank_step(spec4, tv, 1e-13, 1, p)),
                exact_evolution(spec4, tv),
            )
            for tv in ts
        ]
        got = _slope(ts, errs)
        if abs(got - (p + 1)) > 0.25:
            problems.append(f"lowrank p={p}: slope {got:.2f}")
    _finish(5, "compiled-step correctness", 120.0, start, problems)


# -- 6: half-vs-half interaction 1-norm scalings -------------------------------------

def test_06_cross_block_norm():
    start = time.perf_counter()
    problems = []
    ns = (8, 16, 32, 64, 128, 256)

    def cross_norm(n, alpha):
        spec = build_power_law(n, 1, alpha)
        mat = spec.two_local[(PauliKind.Z, PauliKind.Z)]
        half = n // 2
        return float(
            np.abs(mat.block(IndexRegion(range(1, half + 1), range(half + 1, n + 1)))).sum()
        )

    steep = [cross_norm(n, 3.0) for n in ns]
    if max(steep) / min(steep) >= 2.0:
        problems.append(f"alpha=3 cross norms not bounded: {steep}")
    shallow = [cross_norm(n, 1.0) for n in ns]
    got = _slope(ns, shallow)
    if abs(got - 1.0) > 0.15:
        problems.append(f"alpha=1 cross-norm exponent {got:.3f}")
    _finish(6, "cross-block 1-norm", 5.0, start, problems)


# -- 7: per-step gate counts match the predicted power laws --------------------------

def test_07_gate_count_scaling():
    start = time.perf_counter()
    problems = []
    sweep = (64, 128, 256, 512, 1024)
    seq = gate_count_report("sequential", 2.0, 1, 1.0, 1e-3, sweep)
    if abs(seq.fitted_exponent - 2.0) > 0.1:
        problems.append(f"sequential fit {seq.fitted_exponent:.3f}")
    low = gate_count_report("lowrank", 2.0, 1, 1.0, 1e-3, sweep)
    if low.fitted_exponent > 1.2:
        problems.append(f"lowrank fit {low.fitted_exponent:.3f} > 1.2")
    for alpha in (2.0, 3.0):
        blk = gate_count_report("block", alpha, 1, 1.0, 1e-3, sweep)
        if blk.fitted_exponent > 1.2:
            problems.append(f"block alpha={alpha} fit {blk.fitted_exponent:.3f} > 1.2")
    _finish(7, "gate-count scaling", 30.0, start, problems)


# -- 8: recurrence classes track numeric evaluation ----------------------------------

def test_08_recurrence_classes():
    start = time.perf_counter()
    problems = []
    cases = (
        (Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n) ** 2, alpha_exp=2.0, k=0), "top"),
        (Recurrence(1.0, 2, 2, 0, 2, lambda n: float(n), alpha_exp=1.0, k=0), "boundary"),
        (Recurrence(1.0, 2, 4, 0, 2, lambda n: float(n), alpha_exp=1.0, k=0), "bottom"),
    )
    for rec, want in cases:
        cls = classify_recurrence(rec)
        if cls.case != want:
            problems.append(f"expected {want}, classified {cls.case}")
        if cls.ratio_spread >= 3.0:
            problems.append(f"{want}: numeric drift {cls.ratio_spread:.2f}x")
    ratios = [
        solve_coupled_recurrence(n, lambda x: float(x)) / (n * math.log2(n))
        for n in (1 << e for e in range(4, 13))
    ]
    if max(ratios) / min(ratios) >= 3.0:
        problems.append(f"coupled system drift {max(ratios) / min(ratios):.2f}x")
    _finish(8, "recurrence classes", 5.0, start, problems)


# -- 9: register-pair phase gadget ----------------------------------------------------

def test_09_weight2_phase_gadget():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(909)
    n, w = 4, 2
    for trial in range(2):
        betas = {
            (j, k): float(rng.uniform(-0.7, 0.7))
            for j in range(1, n + 1)
            for k in range(j + 1, n + 1)
        }
        circ = compile_hamming2_reduction(coeff_matrix(n, betas))
        u = circuit_to_unitary(circ)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                idx = (j - 1) + ((k - 1) << w)
                beta = betas[(min(j, k), max(j, k))] if j != k else 0.0
                want = np.exp(-4j * beta)
                if abs(u[idx, idx] - want) > 1e-8:
                    problems.append(f"trial {trial} ({j},{k}): phase off")
                col = u[:, idx].copy()
                col[: 1 << (2 * w)] = 0.0  # zero-ancilla sector
                leak = float(np.linalg.norm(col))
                if leak > 1e-9:
                    problems.append(f"trial {trial} ({j},{k}): ancilla leak {leak:.2e}")
    _finish(9, "weight-2 phase gadget", 30.0, start, problems)


# -- 10: lower-bound formulas vs high-precision evaluation ----------------------------

def _mp_arc(delta):
    d = mp.mpf(delta)
    return mp.asin(2 * d * mp.sqrt(1 - d * d))


def _mp_pair_denom(q, accuracy):
    pairs = mp.mpf(math.comb(q.b, 2))
    if q.gate_set_size is None:
        return mp.mpf(q.c_compile) * mp.log(pairs / mp.mpf(accuracy))
    return mp.log(pairs * q.gate_set_size)


def _mp_qubit_denom(q, accuracy):
    if q.gate_set_size is None:
        return mp.mpf(q.c_compile) * mp.log(mp.mpf(q.b) / mp.mpf(accuracy))
    return mp.log(mp.mpf(q.b) * q.gate_set_size)


def _mp_parts(variant, q):
    """(main, overhead, floor) at 50 digits; raw = main - overhead.

    floor is the prefactor of the log-ratio terms: when 2 theta sits near the
    arc the ratio's log cancels and errors must be judged against it instead.
    """
    if variant == "diag":
        num = mp.log(2 * mp.mpf(q.theta_max) / _mp_arc(q.delta))
        pre = mp.mpf(2) ** q.mu / _mp_pair_denom(q, q.delta)
        return pre * num, mp.mpf(0), pre
    if variant == "ham":
        d_eff = 3.0 * q.eps
        theta_eff = min(q.t, THETA_CEILING)
        pre = mp.mpf(q.n) ** 2 / _mp_pair_denom(q, d_eff)
        main = pre * mp.log(2 * mp.mpf(theta_eff) / _mp_arc(d_eff))
        over = mp.mpf(q.c_red) * q.n * mp.log(mp.mpf(q.n) / mp.mpf(q.eps)) ** 2
        return main, over, pre
    if variant == "discrete":
        main = mp.mpf(2) ** q.mu * mp.log(1 / mp.mpf(q.delta))
        return main / _mp_qubit_denom(q, q.delta), mp.mpf(0), mp.mpf(0)
    inv = mp.log(1 / mp.mpf(q.eps))
    main = mp.mpf(q.n) ** 2 * inv / _mp_qubit_denom(q, q.eps)
    return main, mp.mpf(q.c_red) * inv * inv, mp.mpf(0)


def test_10_lower_bound_formulas():
    start = time.perf_counter()
    problems = []
    fns = {
        "diag": diag_synthesis_lower_bound,
        "ham": commuting_ham_lower_bound,
        "discrete": discrete_diag_lower_bound,
        "coeff": coeff_oracle_lower_bound,
    }
    rng = np.random.default_rng(1010)
    for i in range(100):
        variant = ("diag", "ham", "discrete", "coeff")[i % 4]
        mu = int(rng.integers(0, 12))
        q = BoundQuery(
            b=int(rng.integers(max(2, mu), 128)),
            gate_set_size=None if rng.random() < 0.25 else int(rng.integers(2, 4096)),
            mu=mu,
            theta_max=float(rng.uniform(1e-3, math.pi - 1e-6)),
            delta=float(rng.uniform(1e-4, 0.5)),
            eps=float(rng.uniform(1e-5, 0.33)),
            m=int(rng.integers(2, 40)),
            n=int(rng.integers(2, 512)),
            t=float(rng.uniform(1e-3, 5.0)),
            c_red=float(rng.uniform(0.0, 2.0)),
            c_compile=float(rng.uniform(0.5, 3.0)),
        )
        got = mp.mpf(fns[variant](q).constants["raw"])
        main, over, floor = _mp_parts(variant, q)
        want = main - over
        # raw is assembled from float logs and one subtraction, so judge it
        # relative to the parts; a near-cancellation is not a formula error
        scale = max(abs(main), abs(over), floor, mp.mpf(1e-12))
        if abs(got - want) > 1e-12 * scale:
            problems.append(f"query {i} ({variant}): raw value off by {float(abs(got - want)):.2e}")

    def discrete(**kw):
        base = dict(b=8, gate_set_size=24, mu=4, delta=0.25, m=10)
        base.update(kw)
        return discrete_diag_lower_bound(BoundQuery(**base)).bound

    if not discrete(mu=6) > discrete(mu=5) > discrete(mu=4):
        problems.append("discrete bound not increasing in mu")
    if not discrete(delta=0.1) > discrete(delta=0.2) > discrete(delta=0.4):
        problems.append("discrete bound not decreasing in delta")
    if not discrete(b=4) > discrete(b=8) > discrete(b=16):
        problems.append("discrete bound not decreasing in b")
    if not discrete(gate_set_size=8) > discrete(gate_set_size=64):
        problems.append("discrete bound not decreasing in gate set size")
    coeffs = [
        coeff_oracle_lower_bound(
            BoundQuery(b=48, gate_set_size=256, n=n, m=16, eps=0.05)
        ).bound
        for n in (4, 8, 16, 32, 64)
    ]
    if not all(b2 > b1 for b1, b2 in zip(coeffs, coeffs[1:])):
        problems.append("coefficient-oracle bound not increasing in n")
    _finish(10, "lower-bound formulas", 5.0, start, problems)


# -- 11: subspace Trotter error under the fermionic norm bound ------------------------

def test_11_fermionic_error_bound():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(1111)
    ts = (0.05, 0.1, 0.2)
    ratios = {1: [], 2: []}
    for i in range(15):
        n = int(rng.integers(3, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        tau = (a + a.conj().T) / 2.0
        b = np.triu(rng.uniform(0.2, 1.0, size=(n, n)), k=1)
        nu = b + b.T
        eta = int(rng.integers(2, n))  # eta = 1 leaves no pair interaction
        system = ElectronicSystem(n, eta, 1.0, tau, nu)
        h, t_mat, v_mat = jw_matrix(system)
        _, _, bound = fermionic_error_norms(tau, nu, eta)
        for p in (1, 2):
            errs = []
            for t in ts:
                if p == 1:
                    s = expm(-1j * t_mat * t) @ expm(-1j * v_mat * t)
                else:
                    s = expm(-1j * t_mat * t / 2) @ expm(-1j * v_mat * t) @ expm(
                        -1j * t_mat * t / 2
                    )
                err = subspace_distance(s, expm(-1j * h * t), eta)
                errs.append(err)
                ratios[p].append(err / bound(p, t))
            got = _slope(ts, errs)
            if abs(got - (p + 1)) > 0.25:
                problems.append(f"instance {i} p={p}: slope {got:.2f}")
    for p in (1, 2):
        c_global = max(ratios[p])
        if c_global > 1.0:
            problems.append(f"p={p}: needs C={c_global:.2f} > 1 on some instance")
    _finish(11, "fermionic error bound", 180.0, start, problems)


# -- 12: measured Coulomb norms track the closed-form scaling ------------------------

def test_12_coulomb_norm_scaling():
    start = time.perf_counter()
    problems = []
    report = norm_scaling_report()
    if [r.g for r in report.rows] != list(range(3, 10)):
        problems.append("default sweep is not g = 3..9")
    if any(r.eta != r.n // 2 for r in report.rows):
        problems.append("eta is not n // 2")
    spread = report.ratio_spread("nu")
    if spread >= 3.0:
        problems.append(f"coulomb ratio spread {spread:.2f}x")
    _finish(12, "coulomb norm scaling", 30.0, start, problems)
