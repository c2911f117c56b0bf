import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from trotterforge.cli import main
from trotterforge.costmodel import STEP_METHODS
from trotterforge.hamlib import PauliKind, build_power_law, spec_to_dict


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# -- build -----------------------------------------------------------------------

def test_build_emits_every_pair(capsys):
    rc, out = run_cli(capsys, "build", "--n", "8", "--d", "1", "--alpha", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 8 and doc["alpha"] == 2.0
    entries = doc["terms"][0]["entries"]
    assert len(entries) == 28  # all pairs of 8 sites
    assert entries[0] == [1, 2, 1.0]
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_build_output_is_atomic_and_deterministic(tmp_path, capsys, monkeypatch):
    a = tmp_path / "spec_a.json"
    b = tmp_path / "spec_b.json"
    assert main(["build", "--n", "16", "--alpha", "3", "--out", str(a)]) == 0
    assert main(["build", "--n", "16", "--alpha", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))
    umask = os.umask(0)
    os.umask(umask)
    assert a.stat().st_mode & 0o777 == 0o666 & ~umask
    # another writer's temp file under the fixed name <out>.tmp is left alone
    other = tmp_path / "spec_a.json.tmp"
    other.write_text("another writer")
    assert main(["build", "--n", "16", "--alpha", "3", "--out", str(a)]) == 0
    assert other.read_text() == "another writer"
    other.unlink()

    # a failed rename exits 2, removes its temp file and keeps the previous artifact
    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["build", "--n", "4", "--out", str(a)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {a}: rename failed")
    assert a.read_bytes() == b.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("parent", ["missing/dir", "a_file"])
def test_build_unwritable_out_exits_2(tmp_path, capsys, parent):
    (tmp_path / "a_file").write_text("not a directory")
    out = tmp_path / parent / "spec.json"
    errs = []
    for _ in range(2):
        assert main(["build", "--n", "4", "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
    # the message names --out and the OS reason, never the random temp file
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: cannot write --out {out}: ")
    assert ".tmp" not in errs[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]


def test_build_input_passthrough(tmp_path, capsys):
    path = tmp_path / "spec.json"
    main(["build", "--n", "4", "--pauli", "xx", "--signs", "alternating", "--out", str(path)])
    rc, out = run_cli(capsys, "build", "--input", str(path))
    assert rc == 0
    assert json.loads(out) == json.loads(path.read_text())


def test_build_emits_the_one_term_order_whatever_the_file_order(tmp_path, capsys):
    zz = {"sigma": "z", "sigma2": "z", "entries": [[2, 4, -0.25], [1, 2, 0.5]]}
    xy = {"sigma": "x", "sigma2": "y", "entries": [[3, 4, 0.7], [1, 4, 0.2]]}
    onsite = {"z": [0.1, 0.0, -0.3, 0.2], "x": [0.0, 0.5, 0.0, 0.0]}
    outputs = []
    for terms, kinds in (([zz, xy], "zx"), ([xy, zz], "xz")):
        doc = {"n": 4, "d": 1, "terms": terms, "onsite": {kind: onsite[kind] for kind in kinds}}
        path = tmp_path / f"{kinds}.json"
        path.write_text(json.dumps(doc))
        rc, out = run_cli(capsys, "build", "--input", str(path))
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    terms = json.loads(outputs[0])["terms"]
    assert [(t["sigma"], t["entries"]) for t in terms] == [
        ("x", [[1, 4, 0.2], [3, 4, 0.7]]),
        ("z", [[1, 2, 0.5], [2, 4, -0.25]]),
    ]


@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        '{"n": 4, "d": 1, "terms": [',
        json.dumps({"n": 4, "d": 1, "terms": [{"sigma": "z", "entries": [[1, 2, 1.0]]}]}),
    ],
    ids=["missing-file", "malformed-json", "term-without-sigma2"],
)
def test_bad_input_exits_2(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    rc = main(["build", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# -- decompose --------------------------------------------------------------------

def test_decompose_variants(capsys):
    for argv in (
        ("decompose", "--variant", "bisection", "--n", "8"),
        ("decompose", "--variant", "lowrank", "--n", "8", "--cutoff", "2"),
        ("decompose", "--variant", "boxes", "--n", "8"),
        ("decompose", "--variant", "subdivision", "--n", "8", "--m", "2"),
    ):
        rc, out = run_cli(capsys, *argv)
        assert rc == 0
        assert json.loads(out)


def test_decompose_subdivision_needs_m(capsys):
    assert main(["decompose", "--variant", "subdivision", "--n", "8"]) == 2


# -- rank profile -------------------------------------------------------------------

def test_rank_profile_csv(capsys):
    rc, out = run_cli(capsys, "rank-profile", "--n", "16", "--alpha", "1", "--tol", "1e-6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "layer,block,pauliPair,rank,residual"
    assert len(lines) > 1


@pytest.mark.parametrize("n, tol", [(8, "-1"), (8, "0"), (16, "0")])
def test_rank_profile_rejects_nonpositive_tol_with_or_without_far_blocks(capsys, n, tol):
    # n=8 at the default cutoff has no far block, so no SVD would see the tolerance
    assert main(["rank-profile", "--n", str(n), "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: tolerance must be positive")


# -- compile -------------------------------------------------------------------------

def test_compile_writes_text_and_cost_sidecar(tmp_path, capsys):
    out = tmp_path / "step.txt"
    rc = main(["compile", "--method", "sequential", "--n", "4", "--t", "0.2",
               "--p", "2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert out.exists()
    cost = json.loads((tmp_path / "step.txt.cost.json").read_text())
    assert cost["method"] == "sequential"
    assert cost["gates"] > 0
    assert not list(tmp_path.glob("*.tmp"))


def test_compile_count_only_emits_cost_json(capsys):
    rc, out = run_cli(capsys, "compile", "--method", "lowrank", "--n", "64",
                      "--count-only")
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "lowrank" and doc["gates"] > 0


def test_compile_hamming2(tmp_path, capsys):
    rc, out = run_cli(capsys, "compile", "--method", "hamming2", "--n", "4")
    assert rc == 0
    text, brace, tail = out.partition("{")
    assert text.strip()  # gate listing comes first
    doc = json.loads(brace + tail)
    assert doc["method"] == "hamming2" and doc["qubits"] == 8
    # --count-only prints the cost document alone, and --out gets no .cost.json sidecar
    rc, out = run_cli(capsys, "compile", "--method", "hamming2", "--n", "4", "--count-only")
    assert rc == 0 and out == brace + tail
    path = tmp_path / "gadget.json"
    assert main(["compile", "--method", "hamming2", "--n", "4", "--count-only", "--out", str(path)]) == 0
    assert path.read_text() == brace + tail
    assert [p.name for p in tmp_path.iterdir()] == ["gadget.json"]


def test_compile_hamming2_needs_zz_group(capsys):
    assert main(["compile", "--method", "hamming2", "--n", "4", "--pauli", "xx"]) == 2


# -- verify ----------------------------------------------------------------------------

def test_verify_commuting_spec_is_exact(capsys):
    rc, out = run_cli(capsys, "verify", "--method", "lowrank", "--n", "8",
                      "--t", "0.1", "--tol", "1e-9")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"method", "n", "t", "p", "gates", "distance"}
    assert doc["distance"] <= 1e-9
    assert doc["gates"] > 0


def test_z_only_verify_needs_neither_eigh_nor_svd(capsys, monkeypatch):
    calls = []
    eigh, svd = np.linalg.eigh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append("eigh") or eigh(h))
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append("svd") or svd(a, **kw))
    rc, out = run_cli(capsys, "verify", "--method", "sequential", "--n", "6", "--pauli", "zz")
    assert rc == 0 and json.loads(out)["distance"] < 1e-13
    assert calls == []
    rc, out = run_cli(capsys, "verify", "--method", "sequential", "--n", "6", "--pauli", "xz")
    assert rc == 0
    assert calls == ["eigh", "svd"]


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "8", "--method", method, "--cutoff", "2", "--signs", "seeded-random"]
    for method in ("sequential", "lowrank", "avgcost", "block")
] + [["error-sweep", "--n", "6", "--p", "1"], ["error-sweep", "--n", "8", "--method", "avgcost", "--d", "1"]])
def test_z_only_verify_and_error_sweep_build_no_dense_matrix(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a Z-only request built a dense matrix or factorized one")

    for target in ("trotterforge.circuit.circuit_to_unitary", "trotterforge.compilers.circuit_to_unitary",
                   "trotterforge.circuit.dense_hamiltonian"):
        monkeypatch.setattr(target, never)
    monkeypatch.setattr(np.linalg, "eigh", never)
    svd = np.linalg.svd
    # the lowrank compiler factors its real far blocks; a distance would factor a complex 2^n x 2^n matrix
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svd(a, **kw) if a.dtype == float else never())
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    if argv[0] == "verify":
        assert json.loads(out)["distance"] < 1e-13
    else:
        assert [float(row.split(",")[5]) < 1e-13 for row in out.splitlines()[1:]] == [True] * 3


def test_z_only_verify_runs_past_the_dense_wall(capsys):
    # 6 dense 2^16 x 2^16 matrices would need 384 GiB; the ZZ chain compares 2^16 vectors
    rc, out = run_cli(capsys, "verify", "--n", "16")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 16 and doc["gates"] == 717 and doc["distance"] <= 1e-12
    rc, err = exit_code_and_stderr(capsys, ["verify", "--n", "16", "--pauli", "xx"])
    assert rc == 3
    assert err == ("capacity error: checking a 16-qubit step against exact evolution (6 dense 2^16 x 2^16 "
                   "matrices) needs 384.0 GiB, more than the " + err.split("more than the ")[1])


def golden_spec(path):
    """n=8 XX (alpha 2) + alternating ZZ (alpha 1.5) chain with a sparse on-site Z field."""
    doc = spec_to_dict(build_power_law(8, 1, 2.0, (PauliKind.X, PauliKind.X)))
    zz = spec_to_dict(build_power_law(8, 1, 1.5, (PauliKind.Z, PauliKind.Z), "alternating"))
    doc["terms"] += zz["terms"]
    doc["onsite"] = {"z": [0.3, 0.0, -0.2, 0.1, 0.0, 0.25, -0.15, 0.05]}
    path.write_text(json.dumps(doc))
    return str(path)


# (method, p): sha256 of the compile output (circuit text + cost JSON), gates, verify distance
GOLDEN_STEPS = {
    ("sequential", 1): ("edd1e866ff19fe9f53c59515a72043dcdbbd8cc648691761ff6187835c7c2f52", 286, 0.5062008100510935),
    ("sequential", 2): ("141829c6f2e7636e68c1a0333f10434b285609d5ba163edc652f79202e689c3a", 571, 0.12789633513985418),
    ("sequential", 4): ("0547296e77e3bdb5265fc4598364fbe93ff7c3029ae974efdc30d14d78a2e200", 2827, 0.0025927656168860938),
    ("lowrank", 1): ("ab59778fcb3f714fd1034fdf6d1eaa7e6e61240e9aeaf1d04432d4eb7f4f5c0a", 478, 0.506200810051096),
    ("lowrank", 2): ("f55884cdc5053f5e28f6d64fb1e6ad801b5c9ce5348c1ac174dc8dc7b598f0be", 950, 0.12789633513985532),
    ("lowrank", 4): ("30395206397c4eff8ba50d1bfeb00b1f171f0389aa3fac4195c22982906d451a", 3774, 0.002592765616886214),
    ("avgcost", 1): ("41357095b150c3afbfacb23c935049f2444ef763fbd06a904ff3b3e5db7af2d8", 1302, 0.5062008100510957),
    ("avgcost", 2): ("669fd3160b3aab9d791d4c18d55468c4246ae1b164519dd92fab2a1b58e5374e", 2342, 0.12789633513985513),
    ("avgcost", 4): ("6961c95c841da70f892df05e46ab3ff8ec7c143f37d52747dad74eafdd41a4c8", 9342, 0.00259276561688633),
    ("block", 1): ("888da41e4e031f1641407ed1c04a83909726ce26cd6aa4f66a187eacea41077b", 3046, 0.5062008100510957),
    ("block", 2): ("07fedf3fb2fb8ac4780633230152635a264b654d4483618d36c643bff6a51437", 5670, 0.12789633513985513),
    ("block", 4): ("708857d0c43dfe4bcb545acc1782b23c505d3c883d86bf30e7745f497e8d2ada", 22654, 0.00259276561688633),
}


@pytest.mark.parametrize("method,p", sorted(GOLDEN_STEPS))
def test_compile_and_verify_golden(tmp_path, capsys, method, p):
    digest, gates, distance = GOLDEN_STEPS[(method, p)]
    flags = ["--input", golden_spec(tmp_path / "spec.json"), "--method", method,
             "--p", str(p), "--t", "0.2", "--cutoff", "2"]
    rc, out = run_cli(capsys, "compile", *flags)
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    rc, out = run_cli(capsys, "compile", *flags, "--count-only")
    assert rc == 0
    assert out == json.dumps({"composites": [], "gates": gates, "method": method},
                             indent=2, sort_keys=True) + "\n"
    rc, out = run_cli(capsys, "verify", *flags)
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"method": method, "n": 8, "t": 0.2, "p": p, "gates": gates,
                   "distance": pytest.approx(distance, rel=1e-9)}


def test_verify_capacity(capsys):
    # the dense check applies to a spec with an X or Y term; a Z-only chain compares 2^n vectors
    assert main(["verify", "--method", "sequential", "--n", "16", "--pauli", "xx"]) == 3


# -- error sweep -------------------------------------------------------------------------

def test_error_sweep_csv(capsys):
    rc, out = run_cli(capsys, "error-sweep", "--method", "sequential", "--n", "5",
                      "--pauli", "xz", "--p", "2", "--t-values", "0.05,0.1,0.2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "method,p,t,alpha_comm,bound,empirical,r"
    assert len(lines) == 4
    emp = [float(row.split(",")[5]) for row in lines[1:]]
    assert emp[0] < emp[2]  # error grows with t for a non-commuting spec
    assert all(int(row.split(",")[6]) >= 1 for row in lines[1:])


# captured at the parent commit from the brute-force commutator sum:
# p -> (alpha_comm, [(t, bound, empirical, r)])
ERROR_SWEEP_GOLDEN = {
    1: (17.13888888888889, [
        (0.05, 0.04284722222222223, 0.006950772384886447, 43),
        (0.1, 0.17138888888888892, 0.027872049073882185, 172),
        (0.2, 0.6855555555555557, 0.11165500406665164, 686),
    ]),
    2: (126.66975308641975, [
        (0.05, 0.015833719135802473, 0.0001491456866321167, 4),
        (0.1, 0.12666975308641978, 0.0011884996206573428, 12),
        (0.2, 1.0133580246913583, 0.009361182484190786, 32),
    ]),
}


@pytest.mark.parametrize("p", [1, 2])
def test_error_sweep_golden(capsys, p):
    rc, out = run_cli(capsys, "error-sweep", "--n", "5", "--pauli", "xz", "--p", str(p))
    assert rc == 0
    lines = out.splitlines()
    alpha, rows = ERROR_SWEEP_GOLDEN[p]
    assert lines[0] == "method,p,t,alpha_comm,bound,empirical,r"
    assert len(lines) == 1 + len(rows)
    for line, (t, bound, empirical, r) in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[:3] == ["sequential", str(p), repr(t)]
        assert float(cells[3]) == pytest.approx(alpha, rel=1e-12, abs=0.0)
        assert float(cells[4]) == pytest.approx(bound, rel=1e-12, abs=0.0)
        # the distance comes from LAPACK, so another build may move its last digits
        assert float(cells[5]) == pytest.approx(empirical, rel=1e-9, abs=0.0)
        assert int(cells[6]) == r


def test_error_sweep_admits_any_size_that_fits(capsys, monkeypatch):
    # n=11 was refused by a fixed 10-site cap; the dense matrices are stubbed where step_distances reads them
    monkeypatch.setattr("trotterforge.compilers.lowered_step_unitary", lambda step: np.eye(2))
    monkeypatch.setattr("trotterforge.compilers.exact_evolutions", lambda spec, ts: (np.eye(2) for _ in ts))
    rc, out = run_cli(capsys, "error-sweep", "--n", "11", "--pauli", "xz", "--t-values", "0.1")
    assert rc == 0
    header, row = out.splitlines()
    assert row.startswith("sequential,2,0.1,") and row.split(",")[5] == "0.0"


def test_error_sweep_diagonalizes_h_once(capsys, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    rc, out = run_cli(capsys, "error-sweep", "--n", "4", "--pauli", "xz", "--t-values", "0.05,0.1,0.2")
    assert rc == 0 and len(out.splitlines()) == 4
    assert calls == [(16, 16)]


def test_error_sweep_rejects_method_before_commutator_sum(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("commutator sum computed for an invalid request")

    monkeypatch.setattr("trotterforge.trotter.pauli_commutator_sum", must_not_run)
    assert main(["error-sweep", "--method", "lowrank", "--n", "6", "--pauli", "xz"]) == 2
    assert "power of 2" in capsys.readouterr().err


def test_error_sweep_rejects_order_before_compiling(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("step compiled for an unsupported commutator order")

    for name in ("compile_sequential_step", "compile_lowrank_step", "compile_avgcost_step"):
        monkeypatch.setattr(f"trotterforge.costmodel.{name}", must_not_run)
    # p=3 has no product formula and p=4 no brute-force commutator sum: one check rejects both
    for p in ("3", "4"):
        assert main(["error-sweep", "--n", "4", "--p", p]) == 2
        assert capsys.readouterr().err == f"error: error-sweep needs --p in (1, 2), got {p}\n"
    # the order is checked before the method's own parameters
    assert main(["error-sweep", "--method", "lowrank", "--n", "6", "--pauli", "xz", "--p", "4"]) == 2
    assert "needs --p in (1, 2)" in capsys.readouterr().err


# -- cost report --------------------------------------------------------------------------

def test_cost_report_sequential(capsys):
    rc, out = run_cli(capsys, "cost-report", "--method", "sequential",
                      "--n-sweep", "64,128,256,512")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "method,alpha,d,n,count,fitted_exponent,predicted_exponent"
    assert len(lines) == 5
    fitted = float(lines[1].split(",")[5])
    assert abs(fitted - 2.0) <= 0.1


@pytest.mark.parametrize("method", ["avgcost", "lowrank", "block"])
def test_cost_report_counts_what_compile_counts(capsys, method):
    flags = ["--method", method, "--alpha", "1.5", "--t", "1", "--eps", "1e-8", "--tol", "1e-8"]
    rc, out = run_cli(capsys, "compile", "--n", "64", "--count-only", *flags)
    assert rc == 0
    gates = json.loads(out)["gates"]
    assert gates == {"avgcost": 58556, "lowrank": 34160, "block": 115600}[method]
    rc, out = run_cli(capsys, "cost-report", "--n-sweep", "64,128,256,512", *flags)
    assert rc == 0
    assert out.splitlines()[1].split(",")[:5] == [method, "1.5", "1", "64", str(gates)]


# -- bound ------------------------------------------------------------------------------

def test_bound_diag_reference(capsys):
    rc, out = run_cli(capsys, "bound", "diag", "--mu", "2",
                      "--theta-max", "1.5707963", "--delta", "0.1",
                      "--b", "4", "--k", "100")
    assert rc == 0
    doc = json.loads(out)
    assert math.isclose(doc["bound"], 1.7211350556561358, rel_tol=1e-12)
    assert doc["vacuous"] is False


def test_bound_volume(capsys):
    rc, out = run_cli(capsys, "bound", "volume", "--mu", "1",
                      "--theta-max", repr(math.pi / 2))
    assert rc == 0
    doc = json.loads(out)
    assert math.isclose(doc["log_volume"], 2.0 * math.log(math.pi), rel_tol=1e-14)


def test_bound_ham_vacuous(capsys):
    rc, out = run_cli(capsys, "bound", "ham", "--n", "64", "--eps", "1e-3",
                      "--b", "64", "--k", "1000")
    assert rc == 0
    doc = json.loads(out)
    assert doc["vacuous"] is True and doc["bound"] == 0.0


def test_bound_validation_exits_2(capsys):
    assert main(["bound", "discrete", "--mu", "4", "--delta", "0.25", "--b", "8"]) == 2
    assert main(["bound", "diag", "--mu", "2", "--theta-max", "1.0",
                 "--delta", "2.0", "--b", "4", "--k", "10"]) == 2


# -- chem --------------------------------------------------------------------------------

def test_chem_report_and_step_count(capsys):
    rc, out = run_cli(capsys, "chem", "--g-sweep", "3", "--step-grid", "2")
    assert rc == 0
    csv_part, brace, tail = out.partition("{")
    lines = csv_part.splitlines()
    assert lines[0] == "g,n,omega,eta,tau_norm,nu_eta_norm,ratio_tau,ratio_nu"
    assert len(lines) == 2
    doc = json.loads(brace + tail)
    assert doc["r"] == 187 and doc["grid"] == 2


# -- usage and plumbing ---------------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["decompose"],
        ["bound", "nonsense", "--mu", "1"],
        ["build", "--no-such-flag"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        capsys.readouterr()


def exit_code_and_stderr(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("argv, usage", [
    ("cost-report --method sequential --m 4", "trotterforge cost-report [-h]"),
    ("verify --n 8 --method lowrank --count-only", "trotterforge verify [-h]"),
    ("bound ham --b 64 --n 64 --eps 1e-3 --alpha 2", "trotterforge bound [-h]"),
    ("build --no-such-flag", "trotterforge build [-h]"),
    ("--no-such-flag build --n 4", "trotterforge [-h]"),  # a root flag: the root's usage
])
def test_an_unrecognized_flag_prints_the_usage_of_the_parser_it_was_given_to(capsys, argv, usage):
    rc, err = exit_code_and_stderr(capsys, argv.split())
    assert rc == 64
    assert err.startswith(f"usage: {usage}")
    assert err.splitlines()[-1].startswith("usage error: unrecognized arguments: ")


@pytest.mark.parametrize("command,methods", [
    ("compile", STEP_METHODS + ("hamming2",)),
    ("verify", STEP_METHODS),
    ("error-sweep", STEP_METHODS),
    ("cost-report", STEP_METHODS),
])
def test_every_step_command_takes_the_one_list_of_step_methods(capsys, command, methods):
    rc, err = exit_code_and_stderr(capsys, [command, "--method", "bogus"])
    assert rc == 64
    assert re.findall(r"--method\s+\{([^}]*)\}", err) == [",".join(methods)]


@pytest.mark.parametrize(
    "argv",
    [
        # tracebacks before float and list flags were checked at parse time
        "compile --n 4 --t nan --method avgcost",
        "compile --n 4 --t inf --method lowrank --cutoff 1 --count-only",
        "cost-report --method avgcost --alpha 1.5 --t nan",
        "chem --g-sweep 3,4 --step-grid 2 --t nan",
        "error-sweep --n 4 --t-values abc",
        "cost-report --method sequential --n-sweep 64,abc",
        "chem --g-sweep x",
        # wrong results with exit 0
        "verify --n 4 --method lowrank --cutoff 1 --tol nan",
        "compile --n 4 --t nan --count-only",
        "chem --g-sweep 3,4 --omega nan",
        "build --n 4 --alpha inf",
        # exit 2 from the library before
        "bound ham --b 64 --k 1000 --n 64 --eps nan",
    ],
)
def test_non_finite_or_malformed_numbers_are_usage_errors(capsys, argv):
    rc, err = exit_code_and_stderr(capsys, argv.split())
    assert rc == 64
    assert err.splitlines()[-1].startswith("usage error: argument --")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2]]}]}',
         "spec field entries of (z,z) is malformed"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, "a"]]}]}',
         "spec field entries of (z,z) is malformed"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, 0.5], [1, 2, 0.7]]}]}',
         "pair (1, 2) appears twice"),
        ('{"n": "x", "d": 1}', "spec field n is malformed"),
        ('{"n": 4, "d": 1, "onsite": [1]}', "spec field onsite must be a JSON object"),
        ('{"n": 4, "d": 1, "onsite": {"z": [NaN, 0, 0, 0]}}', "on-site coefficients must be finite"),
        ('{"n": 4, "d": 1, "alpha": NaN}', "alpha must be finite"),
        ('{"n": 4, "d": 1, "identity": Infinity, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, 1.0]]}]}',
         "identity offset must be finite"),
        ('{"n": -1, "d": 1, "terms": [{"sigma": "z", "sigma2": "z"}]}', "site count must be >= 1"),
        ('{"n": 4, "d": 1, "terms": 5}', "spec field terms must be a JSON array"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": 5, "sigma2": "z"}]}', "unknown Pauli tag 5"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [1, 2, 0.5]}]}',
         "spec field entries of (z,z) is malformed: expected [j, k, value] entries, got an array of shape (3,)"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 1.5, 0.5]]}]}',
         "malformed: pair (1, 1.5) has an index that is not an integer below 2^53"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 1180591620717411303424, 0.5]]}]}',
         "malformed: pair (1, 1180591620717411303424) has an index that is not an integer below 2^53"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, 0.5], [3, 5, 0.1], [0, 1, 0.2]]}]}',
         "error: pair (3,5) outside 1 <= j < k <= 4"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 4, 0.1], [2, 3, 0.2], [2, 3, 0.3], [1, 4, 0.4]]}]}',
         "malformed: pair (2, 3) appears twice"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 1%s, 0.5]]}]}' % ("0" * 400),
         "spec field entries of (z,z) is malformed"),
        ('{"n": 1e400, "d": 1}', "spec field n is malformed"),
        # read with int() before, so 4.7 built 4 sites, true 1 site and d 1.9 a chain, all with exit 0
        ('{"n": 4.7, "d": 1}', "spec field n is malformed: expected an integer, got 4.7"),
        ('{"n": true, "d": 1}', "spec field n is malformed: expected an integer, got True"),
        ('{"n": "4", "d": 1}', "spec field n is malformed: expected an integer, got '4'"),
        ('{"n": 4, "d": 1.9}', "spec field d is malformed: expected an integer, got 1.9"),
        # read with float() before, so true was 1 and "0.5" was 0.5, all with exit 0
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[true, 2, 0.5]]}]}',
         "spec field entries of (z,z) is malformed: expected a number, got True"),
        ('{"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, "0.5"]]}]}',
         "spec field entries of (z,z) is malformed: expected a number, got '0.5'"),
        ('{"n": 4, "d": 1, "identity": "0.5"}', "spec field identity is malformed: expected a number, got '0.5'"),
        ('{"n": 4, "d": 1, "identity": false}', "spec field identity is malformed: expected a number, got False"),
        ('{"n": 4, "d": 1, "onsite": {"z": ["1", 0, 0, 0]}}', "spec field onsite.z is malformed: expected a number, got '1'"),
        ('{"n": 4, "d": 1, "onsite": {"x": [0, 0, true, 0]}}', "spec field onsite.x is malformed: expected a number, got True"),
        ('{"n": 4, "d": 1, "alpha": true}', "spec field alpha is malformed: expected a number, got True"),
        ('{"n": 4, "d": 1, "alpha": "2"}', "spec field alpha is malformed: expected a number, got '2'"),
    ],
    ids=["short-entry", "text-value", "repeated-pair", "text-n", "onsite-list", "nan-onsite",
         "nan-alpha", "inf-identity", "negative-n", "terms-number", "sigma-number", "flat-entries",
         "fractional-index", "index-2-to-70", "range-after-valid-pair", "second-occurrence",
         "index-past-float-range", "n-past-float-range", "fractional-n", "bool-n", "string-n", "fractional-d",
         "bool-index", "string-value", "string-identity", "bool-identity", "string-onsite", "bool-onsite",
         "bool-alpha", "string-alpha"],
)
@pytest.mark.parametrize("command", ["build", "verify"])
def test_malformed_spec_file_exits_2(tmp_path, capsys, doc, message, command):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    rc, err = exit_code_and_stderr(capsys, [command, "--input", str(path)])
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "verify"])
def test_oversized_spec_is_a_capacity_error(tmp_path, capsys, command):
    # a dense 10^6 x 10^6 coefficient matrix needs 7.3 TiB; it used to fail inside numpy
    path = tmp_path / "spec.json"
    path.write_text('{"n": 1000000, "d": 1, "terms": [{"sigma": "z", "sigma2": "z"}]}')
    for argv in ([command, "--input", str(path)], [command, "--n", "1000000"]):
        rc, err = exit_code_and_stderr(capsys, argv)
        assert rc == 3
        assert err.startswith("capacity error: a 1000000 x 1000000 coefficient matrix needs")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_spec_groups_are_sized_together(tmp_path, capsys, monkeypatch, fake_physical_memory):
    # one 1024 x 1024 matrix is 8 MiB and a group peaks at 2 copies past those held:
    # 20 MiB admits either group alone, but not the second beside the first
    group = {"sigma": "z", "sigma2": "z", "entries": [[1, 2, 0.5]]}
    fake_physical_memory(20 / 1024)
    sizes = []
    zeros = np.zeros

    def recording_zeros(shape, *args, **kwargs):
        sizes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    for terms, want in (([group], 0), ([dict(group, sigma="x")], 0), ([group, dict(group, sigma="x")], 3)):
        sizes.clear()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 1024, "d": 1, "terms": terms}))
        rc, err = exit_code_and_stderr(capsys, ["build", "--input", str(path)])
        assert rc == want
        assert sizes.count((1024, 1024)) == 1  # the second group is refused before it allocates
    assert err.startswith("capacity error: a 1024 x 1024 coefficient matrix needs") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "error-sweep"])
def test_dense_memory_is_checked_before_compiling(capsys, monkeypatch, fake_physical_memory, command):
    # 6 dense 2^12 x 2^12 complex matrices need 1.5 GiB; pretend there is 1 GiB
    fake_physical_memory(1)

    def never(*args, **kwargs):
        raise AssertionError("compiled before the memory check")

    monkeypatch.setattr("trotterforge.costmodel.compile_sequential_step", never)
    rc, err = exit_code_and_stderr(capsys, [command, "--n", "12", "--pauli", "xx"])
    assert rc == 3
    assert err == (
        "capacity error: checking a 12-qubit step against exact evolution"
        " (6 dense 2^12 x 2^12 matrices) needs 1.5 GiB, more than the 1.0 GiB of physical memory\n"
    )


@pytest.mark.parametrize("command", [["verify"], ["error-sweep"], ["compile", "--method", "lowrank"]])
def test_needs_past_float_range_exit_3_on_one_line(capsys, command):
    # 16 * 4^1024 bytes overflow a float; the memory check must still say so in one line
    rc, err = exit_code_and_stderr(capsys, command + ["--n", "1024"])
    assert rc == 3
    assert err.startswith("capacity error: ") and err.endswith("GiB of physical memory\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert len(err) < 200  # sizes print as 2^n, not as 309-digit numbers


@pytest.mark.parametrize("argv", [["chem", "--g-sweep", "200"], ["chem", "--g-sweep", "3", "--step-grid", "200"]])
def test_an_oversized_electron_gas_exits_3(capsys, argv):
    # 88 n^2 B at n = 8e6 modes, checked before the grid is allocated
    rc, err = exit_code_and_stderr(capsys, argv)
    assert rc == 3
    assert err.startswith("capacity error: an electron gas on a 200^3 grid needs") and err.count("\n") == 1


def test_module_entrypoint_subprocess(tmp_path):
    cmd = [sys.executable, "-m", "trotterforge.cli", "cost-report",
           "--method", "sequential", "--n-sweep", "64,128,256,512"]
    env = {"PATH": "/usr/bin:/bin"}
    if "PYTHONPATH" in os.environ:  # an uninstalled checkout imports from src/
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical rerun
    bad = subprocess.run([sys.executable, "-m", "trotterforge.cli", "verify",
                          "--n", "16", "--pauli", "xx"], capture_output=True, text=True)
    assert bad.returncode == 3
    assert "capacity" in bad.stderr


def _two_entry_spec(tmp_path, pauli, value):
    path = tmp_path / f"{pauli}_{value!r}.json"
    terms = [{"sigma": pauli[0], "sigma2": pauli[1], "entries": [[1, 2, value], [1, 3, value]]}]
    path.write_text(json.dumps({"n": 3, "d": 1, "terms": terms}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["cost-report", "--method", "block", "--t", "1e308", "--n-sweep", "64,128,256,512"],
        ["cost-report", "--method", "lowrank", "--t", "1e308", "--n-sweep", "64,128,256,512"],
        ["compile", "--n", "8", "--t", "1e308", "--method", "lowrank", "--count-only"],
        ["compile", "--n", "4", "--t", "1e308", "--method", "avgcost", "--count-only"],
        ["compile", "--n", "4", "--method", "avgcost", "--count-only", "--eps", "5e-324"],
        ["error-sweep", "--n", "4", "--pauli", "xz", "--t-values", "1e200"],
        ["chem", "--g-sweep", "3", "--step-grid", "2", "--t", "1e200"],
        ["verify", "--input", "zz"],
        ["error-sweep", "--input", "zz"],
        ["verify", "--input", "xx"],
    ],
)
def test_a_result_past_the_float_range_is_a_capacity_error(tmp_path, capsys, argv):
    if argv[-1] in ("zz", "xx"):
        # |c| sums to 2e308, past the largest float
        argv = argv[:-1] + [_two_entry_spec(tmp_path, argv[-1], 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would reach stderr
        rc, err = exit_code_and_stderr(capsys, argv)
    assert rc == 3
    assert err.startswith("capacity error: ") and err.endswith("exceeds the float range\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("pauli", ["zz", "xx"])
def test_a_coefficient_sum_inside_the_float_range_verifies(tmp_path, capsys, pauli):
    rc, out = run_cli(capsys, "verify", "--input", _two_entry_spec(tmp_path, pauli, 8e307))
    assert rc == 0
    assert math.isfinite(json.loads(out)["distance"])


@pytest.mark.parametrize(
    "argv",
    [
        # dist^alpha leaves the float range in build_power_law, but 1 / dist^alpha is subnormal or 0
        # (a traceback, then exit 3, before)
        "build --n 4 --alpha 2000",
        "verify --n 4 --alpha 2000",
        "compile --n 4 --alpha 2000 --method avgcost",
        "cost-report --method lowrank --alpha 700 --n-sweep 64,128,256,512",
    ],
)
def test_large_alpha_gives_finite_output(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv.split())
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out and not re.search(r"\b(nan|inf|infinity)\b", captured.out, re.I)


@pytest.mark.parametrize(
    "argv,vacuous",
    [
        ("bound diag --b 4 --mu 2 --theta-max 1.5 --delta 5e-324", False),
        # these two printed NaN with exit 0, then exited 3 while 1 / eps overflowed
        ("bound ham --b 64 --k 1000 --n 64 --eps 5e-324 --t 1e308", True),
        ("bound coeff --b 4 --n 64 --eps 5e-324 --t 1e308 --m 3", True),
    ],
)
def test_subnormal_accuracies_give_finite_bounds(capsys, argv, vacuous):
    rc, out = run_cli(capsys, *argv.split())
    assert rc == 0
    doc = json.loads(out)
    assert doc["vacuous"] is vacuous
    assert all(math.isfinite(v) for v in doc["constants"].values() if isinstance(v, float))
    assert doc["bound"] == (0.0 if vacuous else doc["constants"]["raw"]) and math.isfinite(doc["bound"])
