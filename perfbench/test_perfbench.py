"""Tests of the benchmark's own code: span arithmetic, wrapper hygiene, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(sid, name, parent, start, end, thread=1):
    return {"id": sid, "name": name, "parent": parent, "thread": thread, "start": start, "end": end, "cpu_s": 0.0, "counters": None}


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "cli.main", None, 0.0, 10.0),
        _span(2, "hamlib.norms", 1, 1.0, 4.0),
        _span(3, "hamlib.norms", 2, 2.0, 3.0),
        _span(4, "decomp.subdivide", 1, 5.0, 6.0),
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    ix = layers.SpanIndex(spans)
    assert ix.inclusive("hamlib.norms") == pytest.approx(3.0)  # the nested call is not counted twice
    assert [s["id"] for s in ix.outermost("hamlib.norms")] == [2]


def test_self_time_with_overlapping_pool_thread_children():
    spans = [
        _span(1, "lowrank.rank_profile", None, 0.0, 10.0),
        _span(2, "lowrank.truncated_svd", 1, 1.0, 6.0, thread=2),
        _span(3, "lowrank.truncated_svd", 1, 2.0, 8.0, thread=3),
        _span(4, "lowrank.truncated_svd", 1, 9.5, 12.0, thread=2),  # clipped to the parent
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert layers.SpanIndex(spans).inclusive("lowrank.truncated_svd") == pytest.approx(5.0 + 6.0 + 2.5)


def test_recorder_parents_pool_thread_spans_to_the_waiting_span():
    recorder = tracing.Recorder()

    def leaf(x):
        time.sleep(0.01)
        return x

    wrapped_leaf = tracing.span_wrapper(recorder, "lowrank.leaf", leaf)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(wrapped_leaf, range(4)))

    root = tracing.span_wrapper(recorder, "lowrank.rank_profile", fan_out)
    assert root() == [0, 1, 2, 3]
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s[1], []).append(s)
    (root_span,) = by_name["lowrank.rank_profile"]
    leaves = by_name["lowrank.leaf"]
    assert len(leaves) == 4
    assert all(s[2] == root_span[0] for s in leaves)
    assert all(s[3] != threading.get_ident() for s in leaves)
    spans = [dict(zip(("id", "name", "parent", "thread", "start", "end", "cpu_s", "counters"), s)) for s in recorder.spans]
    selfs = layers.self_times(spans)
    covered = layers.covered_length([(s["start"], s["end"]) for s in spans if s["parent"]], root_span[4], root_span[5])
    assert selfs[root_span[0]] == pytest.approx(root_span[5] - root_span[4] - covered)
    assert covered < sum(s[5] - s[4] for s in leaves)  # two threads overlapped


def _wrapped_objects():
    return {(owner, attr): vars(owner)[attr] for owner, attr in tracing.targets()}


def test_untraced_run_leaves_every_wrapped_attribute_original():
    before = _wrapped_objects()
    assert len(before) > 30
    commands, _ = workloads.WORKLOADS["count-sweep"](workloads.DEFAULT_SEED)
    argvs = [run.cli_argv(c.argv) for c in commands]
    assert all(argv[1:3] == ["-m", "trotterforge.cli"] for argv in argvs)
    assert not any("tracing" in part for argv in argvs for part in argv)
    after = _wrapped_objects()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_install_wraps_every_local_binding_and_uninstall_restores_it():
    import trotterforge.compilers
    import trotterforge.lowrank

    before = _wrapped_objects()
    patched = tracing.install(tracing.Recorder())
    try:
        assert trotterforge.compilers.truncated_svd is not before[(trotterforge.compilers, "truncated_svd")]
        assert trotterforge.lowrank.truncated_svd is not before[(trotterforge.lowrank, "truncated_svd")]
        assert all(vars(owner)[attr] is not before[(owner, attr)] for owner, attr, _ in patched)
    finally:
        tracing.uninstall(patched)
    assert {(owner, attr) for owner, attr, _ in patched} == before.keys()
    assert all(vars(owner)[attr] is value for (owner, attr), value in before.items())


def _canned_runner(outputs):
    def fake_run_child(argv, cwd, deadline):
        key = next(c.key for c in commands if list(c.argv) == argv[3:])
        return run.ChildResult(0, 1.0, 1.0, 1024, outputs[key], "")

    commands, _ = workloads.WORKLOADS["count-sweep"](workloads.DEFAULT_SEED)
    return commands, fake_run_child


def test_checker_counts_a_changed_gate_count_as_a_failure(monkeypatch, tmp_path):
    reference = workloads.load_reference()
    commands, fake = _canned_runner(reference)
    _, inputs = workloads.WORKLOADS["count-sweep"](workloads.DEFAULT_SEED)
    monkeypatch.setattr(run, "run_child", fake)
    clean = run.run_pass(commands, inputs, workloads.DEFAULT_SEED, reference, tmp_path, 0.0, traced=False)
    assert clean.failures == []

    real = reference["cost-report/lowrank"]
    assert ",1024,271536," in real
    changed = dict(reference, **{"cost-report/lowrank": real.replace(",1024,271536,", ",1024,271537,")})
    commands, fake = _canned_runner(changed)
    monkeypatch.setattr(run, "run_child", fake)
    result = run.run_pass(commands, inputs, workloads.DEFAULT_SEED, reference, tmp_path, 0.0, traced=False)
    assert len(result.failures) == 1 and result.failures[0].startswith("cost-report/lowrank")
    assert len(result.failures) / len(commands) > 0  # fail_frac


def test_independent_checks_hold_without_a_reference():
    reference = workloads.load_reference()
    seq = next(c for c in workloads.WORKLOADS["count-sweep"](0)[0] if c.key == "cost-report/sequential")
    assert ",64,12093," in reference[seq.key]
    assert workloads.check_output(seq, reference[seq.key], workloads.Inputs({}), 7, {}) == []
    bad = reference[seq.key].replace(",64,12093,", ",64,12094,")
    assert workloads.check_output(seq, bad, workloads.Inputs({}), 7, {})


def test_reference_comparison_tolerances():
    want = "method,n,count,residual\nlowrank,64,7168,0.25\n"
    assert workloads.compare_to_reference("method,n,count,residual\nlowrank,64,7168,0.2500000000001\n", want) == []
    assert workloads.compare_to_reference("method,n,count,residual\nlowrank,64,7168,0.2500001\n", want)
    assert workloads.compare_to_reference("method,n,count,residual\nlowrank,64,7169,0.25\n", want)
    assert workloads.compare_to_reference('{"gates": 10, "distance": 1.0}', '{"distance": 1.0, "gates": 10}') == []
    assert workloads.compare_to_reference('{"gates": 11, "distance": 1.0}', '{"distance": 1.0, "gates": 10}')


def test_strang_reference_matches_the_frozen_mixed_distance():
    commands, inputs = workloads.WORKLOADS["verify-exact"](workloads.DEFAULT_SEED)
    reference = workloads.load_reference()
    for command in commands:
        if command.key.startswith("verify/mixed8/"):
            assert workloads.check_output(command, reference[command.key], inputs, workloads.DEFAULT_SEED, reference) == []


def test_seeded_inputs_depend_only_on_the_seed():
    a = workloads.chain_spec(8, [("xx", 2.0), ("zz", 1.0)], 5, alpha=None)
    b = workloads.chain_spec(8, [("xx", 2.0), ("zz", 1.0)], 5, alpha=None)
    c = workloads.chain_spec(8, [("xx", 2.0), ("zz", 1.0)], 6, alpha=None)
    assert a == b and a != c
    assert len(a["terms"][0]["entries"]) == 28
