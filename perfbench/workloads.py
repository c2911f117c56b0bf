"""Workloads of the trotterforge benchmark: seeded inputs, commands and output checks.

Each workload is a fixed list of ``trotterforge`` CLI commands. Seeded
Hamiltonian specs are generated here from the benchmark seed and handed to the
program through ``--input``, so the program only ever sees the generated files.

Every command output is checked twice:

* against the output frozen in ``reference.json`` (integers exactly, floats to
  1e-9 relative), for commands whose input does not depend on the seed and,
  for seeded commands, only at ``DEFAULT_SEED``;
* by an independent check computed here, on every seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FLOAT_RTOL = 1e-9
COUNT_SWEEP = (64, 128, 256, 512, 1024)
RANK_TOL = 1e-6
VERIFY_T = 0.1  # the CLI default of --t for verify


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``argv`` follows ``python -m trotterforge.cli``."""

    key: str
    argv: tuple[str, ...]
    seeded: bool
    check: Callable[[str, "Inputs"], list[str]]


@dataclass(frozen=True)
class Inputs:
    """Spec files written for one workload, plus what the checks derive from them.

    The specs are serialized once, when the workload is built, so the timed
    set-up writes the files but does not re-serialize them.
    """

    files: dict[str, str]  # file name -> spec JSON
    strang_distance: float | None = None


# -- seeded spec generation ------------------------------------------------------


def _chain_group(n: int, alpha: float, sigma: str, signs: np.ndarray) -> dict:
    js, ks = np.triu_indices(n, 1)
    dist = (ks - js).astype(float)
    values = signs * (1.0 / dist**alpha)
    entries = list(zip((js + 1).tolist(), (ks + 1).tolist(), values.tolist()))
    return {"sigma": sigma[0], "sigma2": sigma[1], "entries": entries}


def _random_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(np.array([-1.0, 1.0]), size=n * (n - 1) // 2)


def chain_spec(n: int, groups: list[tuple[str, float]], seed: int, alpha: float | None) -> dict:
    """Spec document for a 1D chain with seeded-random signs on every pair.

    ``groups`` lists (pauli pair tag, power-law exponent); the groups draw their
    signs in order from one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    terms = [_chain_group(n, a, tag, _random_signs(rng, n)) for tag, a in groups]
    return {"n": n, "d": 1, "alpha": alpha, "terms": terms, "onsite": {}, "identity": 0.0}


def write_specs(inputs: Inputs, directory: Path) -> None:
    for name, text in inputs.files.items():
        (directory / name).write_text(text)


# -- independent reference for the mixed verify commands ---------------------------

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _group_matrix(n: int, term: dict) -> np.ndarray:
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for j, k, v in term["entries"]:
        factors = [_PAULI["i"]] * n
        factors[j - 1] = _PAULI[term["sigma"]]
        factors[k - 1] = _PAULI[term["sigma2"]]
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        h += v * op
    return h


def strang_distance(spec: dict, t: float) -> float:
    """||S(t) - e^{-itH}|| for the group-level Strang step S over the spec's groups.

    Groups are ordered by their Pauli tags, as the program orders its stages.
    """
    from scipy.linalg import expm

    n = spec["n"]
    terms = sorted(spec["terms"], key=lambda term: (term["sigma"], term["sigma2"]))
    mats = [_group_matrix(n, term) for term in terms]
    step = np.eye(1 << n, dtype=complex)
    for h in mats[:-1]:
        step = expm(-0.5j * t * h) @ step
    step = expm(-1j * t * mats[-1]) @ step
    for h in reversed(mats[:-1]):
        step = expm(-0.5j * t * h) @ step
    exact = expm(-1j * t * sum(mats))
    return float(np.linalg.norm(step - exact, 2))


# -- output parsing and checks ---------------------------------------------------


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _cells_match(got: str, want: str) -> bool:
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(g, w, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _values_match(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _values_match(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _values_match(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    if isinstance(want, int):
        return isinstance(got, int) and got == want
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def compare_to_reference(got: str, want: str) -> list[str]:
    """Integers must match exactly and floats to FLOAT_RTOL relative."""
    if want.lstrip().startswith("{"):
        try:
            doc = json.loads(got)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return [] if _values_match(doc, json.loads(want)) else ["JSON output differs from reference"]
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} output lines, reference has {len(want_lines)}"]
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        gc, wc = g.split(","), w.split(",")
        if len(gc) != len(wc) or not all(_cells_match(a, b) for a, b in zip(gc, wc)):
            return [f"line {i + 1} differs from reference: {g!r} vs {w!r}"]
    return []


def _check_cost_report(method: str) -> Callable[[str, Inputs], list[str]]:
    def check(text: str, inputs: Inputs) -> list[str]:
        rows = _csv_rows(text)
        if [int(r["n"]) for r in rows] != list(COUNT_SWEEP):
            return [f"sweep sizes {[r['n'] for r in rows]}"]
        problems = []
        for r in rows:
            n, count = int(r["n"]), int(r["count"])
            if r["method"] != method or count <= 0:
                problems.append(f"bad row {r}")
            if method == "sequential" and count != 3 * (n * (n - 1) - 1):
                problems.append(f"sequential count {count} at n={n}, expected {3 * (n * (n - 1) - 1)}")
        return problems

    return check


def _check_rank_profile(text: str, inputs: Inputs) -> list[str]:
    rows = _csv_rows(text)
    if not rows:
        return ["empty rank profile"]
    return [
        f"block {r['layer']}/{r['block']}: residual {r['residual']} > tol {RANK_TOL}"
        for r in rows
        if not (int(r["rank"]) >= 0 and float(r["residual"]) <= RANK_TOL)
    ]


def _check_verify_commuting(text: str, inputs: Inputs) -> list[str]:
    distance = json.loads(text)["distance"]
    return [] if distance <= 1e-9 else [f"commuting-spec distance {distance} > 1e-9"]


def _check_verify_mixed(text: str, inputs: Inputs) -> list[str]:
    distance = json.loads(text)["distance"]
    if abs(distance - inputs.strang_distance) <= 1e-9:
        return []
    return [f"distance {distance} differs from the Strang reference {inputs.strang_distance}"]


def _check_error_sweep(text: str, inputs: Inputs) -> list[str]:
    rows = _csv_rows(text)
    if len(rows) != 3:
        return [f"{len(rows)} error-sweep rows, expected 3"]
    return [
        f"t={r['t']}: empirical {r['empirical']} > bound {r['bound']}"
        for r in rows
        if not float(r["empirical"]) <= float(r["bound"])
    ]


# -- the workloads ---------------------------------------------------------------


def _count_sweep(seed: int) -> tuple[list[Command], Inputs]:
    sweep = ",".join(str(n) for n in COUNT_SWEEP)
    commands = [
        Command(
            f"cost-report/{method}",
            ("cost-report", "--method", method, "--alpha", alpha, "--n-sweep", sweep),
            seeded=False,
            check=_check_cost_report(method),
        )
        for method, alpha in (("sequential", "2"), ("lowrank", "2"), ("block", "2"), ("avgcost", "1.5"))
    ]
    return commands, Inputs({})


def _far_field(seed: int) -> tuple[list[Command], Inputs]:
    spec = chain_spec(1024, [("zz", 2.0)], seed, alpha=2.0)
    command = Command(
        "rank-profile/zz1024",
        ("rank-profile", "--input", "far1024.json", "--tol", repr(RANK_TOL), "--cutoff", "4"),
        seeded=True,
        check=_check_rank_profile,
    )
    return [command], Inputs({"far1024.json": json.dumps(spec)})


def _verify_exact(seed: int) -> tuple[list[Command], Inputs]:
    mixed = chain_spec(8, [("xx", 2.0), ("zz", 1.0)], seed, alpha=None)
    xz = chain_spec(7, [("xz", 2.0)], seed, alpha=2.0)
    commands = [
        Command(
            f"verify/mixed8/{method}",
            ("verify", "--input", "mixed8.json", "--method", method),
            seeded=True,
            check=_check_verify_mixed,
        )
        for method in ("sequential", "lowrank", "avgcost")
    ]
    commands.append(
        Command(
            "verify/zz10/sequential",
            ("verify", "--n", "10", "--method", "sequential"),
            seeded=False,
            check=_check_verify_commuting,
        )
    )
    commands.append(
        Command(
            "error-sweep/xz7",
            ("error-sweep", "--input", "xz7.json"),
            seeded=True,
            check=_check_error_sweep,
        )
    )
    files = {"mixed8.json": json.dumps(mixed), "xz7.json": json.dumps(xz)}
    return commands, Inputs(files, strang_distance(mixed, VERIFY_T))


WORKLOADS: dict[str, Callable[[int], tuple[list[Command], Inputs]]] = {
    "count-sweep": _count_sweep,
    "far-field": _far_field,
    "verify-exact": _verify_exact,
}


def load_reference() -> dict[str, str]:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["outputs"]


def check_output(command: Command, text: str, inputs: Inputs, seed: int, reference: dict[str, str]) -> list[str]:
    """Problems found in one command's stdout; empty when the output is correct."""
    try:
        problems = command.check(text, inputs)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return [f"unparseable output: {exc!r}"]
    want = reference.get(command.key)
    if want is not None and (not command.seeded or seed == DEFAULT_SEED):
        problems += compare_to_reference(text, want)
    return problems
