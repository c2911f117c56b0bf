"""Span recording around trotterforge's layer-boundary calls, kept in the benchmark.

Run as a script, this is the traced stand-in for ``python -m trotterforge.cli``:

    python perfbench/tracing.py SPANS.json <trotterforge cli arguments>

It installs the wrappers, runs ``trotterforge.cli.main`` on the arguments and,
when the command ends, writes every recorded span and counter to SPANS.json.
The untraced benchmark run never imports this module into a child, so the
program runs there exactly as users run it.

Modules bind imported names locally (``compilers`` calls its own binding
``truncated_svd``), so a wrapped function is replaced under every name that
refers to it in every loaded ``trotterforge`` module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable

import numpy as np

# The functions behind the per-layer metrics of layers.py, one entry per
# layer. Leaf helpers that run once per term, gate or box
# (sequential_term_cost, gate_cost, basis_change, ...) are left unwrapped: a
# span per call would cost more than the call itself.
SPAN_FUNCTIONS = {
    "hamlib": ("build_power_law", "spec_from_json", "norms"),
    "decomp": (
        "bisection_decompose",
        "lowrank_decompose",
        "nested_boxes",
        "subdivide",
        "boxes_for_pair",
        "cells_for_pair",
    ),
    "lowrank": ("truncated_svd", "rank_profile"),
    "compilers": ("compile_sequential_step", "compile_lowrank_step", "compile_avgcost_step"),
    "circuit": ("circuit_to_unitary", "dense_hamiltonian", "exact_evolution", "spectral_distance"),
    "trotter": ("commutator_norm_sum",),
    "costmodel": ("gate_count_report", "block_step_count", "fit_exponent"),
    "blockenc": (
        "qubitization_step_count",
        "block_select_cost",
        "block_prep_cost",
        "cell_select_cost",
        "cell_prep_cost",
    ),
    "cli": ("main", "_run_cost_report", "_run_rank_profile", "_run_verify", "_run_error_sweep"),
}
SPAN_METHODS = (("hamlib", "CoeffMatrix", "block"),)
# Generators get no span (their work interleaves with the consumer's); the
# items they yield are counted instead.
COUNTED_GENERATORS = (("hamlib", "CoeffMatrix", "nonzero_pairs"), ("hamlib", "IndexRegion", "pairs"))


class Recorder:
    """In-memory spans with one open-span stack per thread.

    A span opened on a thread with an empty stack, other than the thread that
    created the recorder, is a pool-thread span: its parent is the innermost
    span open on the creating thread, which is the one waiting on the pool.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent, thread, start, end, cpu_s, counters]
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[list] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif threading.get_ident() != self._main_thread and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span = [next(self._ids), name, parent, threading.get_ident(), time.perf_counter(), None, time.process_time(), None]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        span[6] = time.process_time() - span[6]
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")
        self.spans.append(span)

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def to_json(self) -> str:
        keys = ("id", "name", "parent", "thread", "start", "end", "cpu_s", "counters")
        return json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans], "counters": self.counters})


# -- counters attached to spans -----------------------------------------------------


def _block_counters(args, kwargs, result) -> dict:
    n = args[0].n
    return {"bytes": 2 * n * n * 8}  # the full n x n symmetric completion it builds


def _svd_key(args, kwargs) -> str:
    block = np.ascontiguousarray(args[0] if args else kwargs["block"], dtype=float)
    tol = args[1] if len(args) > 1 else kwargs["tol"]
    digest = hashlib.sha1(block.tobytes())
    digest.update(repr((block.shape, tol)).encode())
    return digest.hexdigest()


def _compile_counters(args, kwargs, result) -> dict:
    circuit = result.circuit
    return {
        "count_only": bool(kwargs.get("count_only", False)),
        "gates": int(result.gate_count),
        "ops": 0 if circuit is None else len(circuit.gates),
    }


def _lower_counters(args, kwargs, result) -> dict:
    circuit = args[0]
    dim = 1 << circuit.qubit_count
    return {"ops": len(circuit.gates), "bytes": len(circuit.gates) * dim * dim * 16}


def _commutator_counters(args, kwargs, result) -> dict:
    stages = len(args[0])
    p = args[1] if len(args) > 1 else kwargs["p"]
    # two matrix products per commutator, stages^d commutators at depth d
    return {"products": 2 * sum(stages**d for d in range(2, p + 2))}


RESULT_COUNTERS: dict[str, Callable] = {
    "hamlib.CoeffMatrix.block": _block_counters,
    "compilers.compile_sequential_step": _compile_counters,
    "compilers.compile_lowrank_step": _compile_counters,
    "compilers.compile_avgcost_step": _compile_counters,
    "circuit.circuit_to_unitary": _lower_counters,
    "trotter.commutator_norm_sum": _commutator_counters,
}


def span_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    result_counters = RESULT_COUNTERS.get(name)
    keyed = name == "lowrank.truncated_svd"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        key = _svd_key(args, kwargs) if keyed else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if keyed:
            span[7] = {"key": key}
        elif result_counters is not None:
            span[7] = result_counters(args, kwargs, result)
        return result

    return wrapped


def counting_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        items = 0
        try:
            for item in fn(*args, **kwargs):
                items += 1
                yield item
        finally:
            recorder.count(name, items)

    return wrapped


# -- installing and removing the wrappers -----------------------------------------


def _originals() -> dict[int, tuple[str, Callable]]:
    """id of every function to wrap -> (span name, function)."""
    found = {}
    for layer, names in SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"trotterforge.{layer}")
        found.update({id(fn): (f"{layer}.{name}", fn) for name in names for fn in [getattr(module, name)]})
    for layer, cls, meth in SPAN_METHODS + COUNTED_GENERATORS:
        fn = vars(getattr(importlib.import_module(f"trotterforge.{layer}"), cls))[meth]
        found[id(fn)] = (f"{layer}.{cls}.{meth}", fn)
    return found


def targets() -> list[tuple[object, str]]:
    """(owner, attribute) of every wrapped object, every local binding included."""
    originals = _originals()
    owners = [m for name, m in sorted(sys.modules.items()) if name == "trotterforge" or name.startswith("trotterforge.")]
    owners += [getattr(sys.modules[f"trotterforge.{layer}"], cls) for layer, cls, _ in SPAN_METHODS + COUNTED_GENERATORS]
    return [(owner, attr) for owner in dict.fromkeys(owners) for attr, value in vars(owner).items() if id(value) in originals]


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what ``uninstall`` needs to restore the originals."""
    counted = {f"{layer}.{cls}.{meth}" for layer, cls, meth in COUNTED_GENERATORS}
    wrappers = {
        key: (counting_wrapper if name in counted else span_wrapper)(recorder, name, fn)
        for key, (name, fn) in _originals().items()
    }
    patched = []
    for owner, attr in targets():
        original = vars(owner)[attr]
        setattr(owner, attr, wrappers[id(original)])
        patched.append((owner, attr, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import trotterforge.cli

    recorder = Recorder()
    install(recorder)
    code = 1
    try:
        code = trotterforge.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors exit 64 from inside main
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w") as fh:
            fh.write(recorder.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
