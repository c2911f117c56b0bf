import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from trotterforge.cli import main
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


def test_compile_hamming2(capsys):
    rc, out = run_cli(capsys, "compile", "--method", "hamming2", "--n", "4")
    assert rc == 0
    text, brace, tail = out.partition("{")
    assert text.strip()  # gate listing comes first
    doc = json.loads(brace + tail)
    assert doc["method"] == "hamming2" and doc["qubits"] == 8


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
    assert main(["verify", "--method", "sequential", "--n", "16"]) == 3


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


def test_error_sweep_rejects_method_before_commutator_sum(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("commutator sum computed for an invalid request")

    monkeypatch.setattr("trotterforge.cli.commutator_norm_sum", must_not_run)
    assert main(["error-sweep", "--method", "lowrank", "--n", "6", "--pauli", "xz"]) == 2
    assert "power of 2" in capsys.readouterr().err


def test_error_sweep_rejects_order_before_compiling(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("step compiled for an unsupported commutator order")

    for name in ("compile_sequential_step", "compile_lowrank_step", "compile_avgcost_step"):
        monkeypatch.setattr(f"trotterforge.cli.{name}", must_not_run)
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
                          "--n", "16"], capture_output=True, text=True)
    assert bad.returncode == 3
    assert "capacity" in bad.stderr
