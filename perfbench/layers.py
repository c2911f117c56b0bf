"""Per-layer metrics from the spans that ``tracing.py`` records.

A span's self time is its duration minus the part of its interval that its
child spans cover; children opened on pool threads overlap each other, so the
covered part is the union of the child intervals, clipped to the parent.
A layer's inclusive time counts only its outermost spans, so a layer call
nested in another call of the same layer is not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "hamlib.build_s": "s",
    "hamlib.build_calls": "count",
    "hamlib.block_s": "s",
    "hamlib.block_calls": "count",
    "hamlib.block_bytes_computed": "B",
    "hamlib.pairs_yielded": "count",
    "hamlib.norms_s": "s",
    "hamlib.norms_calls": "count",
    "decomp.s": "s",
    "decomp.calls": "count",
    "lowrank.svd_s": "s",
    "lowrank.svd_calls": "count",
    "lowrank.svd_unique_frac": "ratio",
    "lowrank.rank_profile_self_s": "s",
    "lowrank.cpu_s": "s",
    "compilers.count_s": "s",
    "compilers.emit_s": "s",
    "compilers.gates_declared": "count",
    "compilers.ops_emitted": "count",
    "costmodel.report_self_s": "s",
    "costmodel.block_count_self_s": "s",
    "costmodel.fit_s": "s",
    "blockenc.s": "s",
    "blockenc.calls": "count",
    "circuit.lower_s": "s",
    "circuit.ops_lowered": "count",
    "circuit.lower_bytes_computed": "B",
    "circuit.dense_h_s": "s",
    "circuit.exact_s": "s",
    "circuit.distance_s": "s",
    "trotter.comm_s": "s",
    "trotter.comm_cpu_s": "s",
    "trotter.comm_products_computed": "count",
    "cli.self_s": "s",
    "cli.cost_report_s": "s",
    "cli.rank_profile_s": "s",
    "cli.verify_s": "s",
    "cli.error_sweep_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

COMPILE_SPANS = {
    "compilers.compile_sequential_step",
    "compilers.compile_lowrank_step",
    "compilers.compile_avgcost_step",
}


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered_length(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


class SpanIndex:
    """Spans of one traced command, grouped by name, with their ancestors' names."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        names = {s["id"]: s["name"] for s in spans}
        self.ancestors: dict[int, tuple[str, ...]] = {}
        for s in sorted(spans, key=lambda s: s["id"]):  # a parent opens before its children
            self.by_name[s["name"]].append(s)
            parent = s["parent"]
            self.ancestors[s["id"]] = self.ancestors.get(parent, ()) + ((names[parent],) if parent in names else ())

    def layer(self, layer: str) -> set[str]:
        return {name for name in self.by_name if name.startswith(layer + ".")}

    def named(self, names: set[str] | str) -> list[dict]:
        names = {names} if isinstance(names, str) else names
        return [s for name in names for s in self.by_name.get(name, ())]

    def outermost(self, names: set[str] | str) -> list[dict]:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        names = {names} if isinstance(names, str) else names
        return [s for s in self.named(names) if not names.intersection(self.ancestors[s["id"]])]

    def inclusive(self, names: set[str] | str) -> float:
        return sum(s["end"] - s["start"] for s in self.outermost(names))

    def self_sum(self, names: set[str] | str) -> float:
        return sum(self.self_s[s["id"]] for s in self.named(names))


def command_metrics(trace: dict) -> dict[str, float]:
    """Layer sums for one traced command (no trace.* metrics)."""
    ix = SpanIndex(trace["spans"])
    build = {"hamlib.build_power_law", "hamlib.spec_from_json"}
    block = ix.named("hamlib.CoeffMatrix.block")
    svd = ix.named("lowrank.truncated_svd")
    compiles = [s for s in ix.outermost(COMPILE_SPANS) if s["counters"]]
    lowered = [s for s in ix.named("circuit.circuit_to_unitary") if s["counters"]]
    comm = ix.outermost("trotter.commutator_norm_sum")
    counters = trace["counters"]
    return {
        "hamlib.build_s": ix.inclusive(build),
        "hamlib.build_calls": len(ix.named(build)),
        "hamlib.block_s": ix.inclusive("hamlib.CoeffMatrix.block"),
        "hamlib.block_calls": len(block),
        "hamlib.block_bytes_computed": sum(s["counters"]["bytes"] for s in block if s["counters"]),
        "hamlib.pairs_yielded": counters.get("hamlib.CoeffMatrix.nonzero_pairs", 0)
        + counters.get("hamlib.IndexRegion.pairs", 0),
        "hamlib.norms_s": ix.inclusive("hamlib.norms"),
        "hamlib.norms_calls": len(ix.named("hamlib.norms")),
        "decomp.s": ix.inclusive(ix.layer("decomp")),
        "decomp.calls": len(ix.named(ix.layer("decomp"))),
        "lowrank.svd_s": ix.inclusive("lowrank.truncated_svd"),
        "lowrank.svd_calls": len(svd),
        "lowrank.svd_unique": len({s["counters"]["key"] for s in svd if s["counters"]}),
        "lowrank.rank_profile_self_s": ix.self_sum("lowrank.rank_profile"),
        "lowrank.cpu_s": sum(s["cpu_s"] for s in ix.outermost(ix.layer("lowrank"))),
        "compilers.count_s": sum(s["end"] - s["start"] for s in compiles if s["counters"]["count_only"]),
        "compilers.emit_s": sum(s["end"] - s["start"] for s in compiles if not s["counters"]["count_only"]),
        "compilers.gates_declared": sum(s["counters"]["gates"] for s in compiles),
        "compilers.ops_emitted": sum(s["counters"]["ops"] for s in compiles),
        "costmodel.report_self_s": ix.self_sum("costmodel.gate_count_report"),
        "costmodel.block_count_self_s": ix.self_sum("costmodel.block_step_count"),
        "costmodel.fit_s": ix.inclusive("costmodel.fit_exponent"),
        "blockenc.s": ix.inclusive(ix.layer("blockenc")),
        "blockenc.calls": len(ix.named(ix.layer("blockenc"))),
        "circuit.lower_s": ix.inclusive("circuit.circuit_to_unitary"),
        "circuit.ops_lowered": sum(s["counters"]["ops"] for s in lowered),
        "circuit.lower_bytes_computed": sum(s["counters"]["bytes"] for s in lowered),
        "circuit.dense_h_s": ix.inclusive("circuit.dense_hamiltonian"),
        "circuit.exact_s": ix.inclusive("circuit.exact_evolution"),
        "circuit.distance_s": ix.inclusive("circuit.spectral_distance"),
        "trotter.comm_s": sum(s["end"] - s["start"] for s in comm),
        "trotter.comm_cpu_s": sum(s["cpu_s"] for s in comm),
        "trotter.comm_products_computed": sum(s["counters"]["products"] for s in comm if s["counters"]),
        "cli.self_s": ix.self_sum(ix.layer("cli")),
        "cli.cost_report_s": ix.inclusive("cli._run_cost_report"),
        "cli.rank_profile_s": ix.inclusive("cli._run_rank_profile"),
        "cli.verify_s": ix.inclusive("cli._run_verify"),
        "cli.error_sweep_s": ix.inclusive("cli._run_error_sweep"),
        "self_total_s": sum(ix.self_s.values()),
    }


def pass_metrics(traces: list[dict], traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands.

    ``traced_wall_s`` and ``untraced_wall_s`` are the summed command wall times
    of this traced pass and of the untraced pass it is compared with.
    """
    totals: dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, value in command_metrics(trace).items():
            totals[name] += value
    calls = totals["lowrank.svd_calls"]
    totals["lowrank.svd_unique_frac"] = totals["lowrank.svd_unique"] / calls if calls else 0.0
    totals["trace.overhead_frac"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
    totals["trace.coverage_frac"] = totals["self_total_s"] / traced_wall_s
    return {name: totals[name] for name in PER_LAYER_UNITS}
