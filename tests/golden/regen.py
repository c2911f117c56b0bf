"""The CLI byte-identity corpus: the commands, how one is run and recorded, and how two records compare.

``cli.jsonl`` holds one record per command: its argv, exit code, stderr,
stdout and the files it wrote under ``--out``. A text up to ``FULL_BYTES``
long is stored in full, a longer one as its sha256 and length.
``tests/test_golden.py`` reruns every record in process and compares. Verify
distances, error-sweep floats and rank-profile residuals come from LAPACK, so
in those three commands every float compares to ``FLOAT_RTOL`` relative, and
by sign; everything else compares byte for byte. A capacity error names the
machine's physical memory, which a record holds as ``{memory}``.

Regenerate the file, and the spec files under ``specs/``, from the
repository root with::

    PYTHONPATH=src python tests/golden/regen.py

A change to any output then shows as a diff of ``cli.jsonl``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
SPECS = HERE / "specs"
FULL_BYTES = 4096
FLOAT_RTOL = 1e-9
FLOAT_COMMANDS = ("verify", "error-sweep", "rank-profile")
HUGE = "1" + "0" * 200  # an integer flag value past the float range
# a float token: a fraction or an exponent; plain integers stay in the text and compare exactly
_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+)")
_MEMORY = re.compile(r"(?<=more than the )\S+ GiB(?= of physical memory)")


# -- spec files read through --input ----------------------------------------------


def _chain_entries(n: int, alpha: float, signs) -> list[list]:
    return [[j, k, s * (1.0 / (k - j) ** alpha)] for (j, k), s in zip(_pairs(n), signs)]


def _pairs(n: int):
    return [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]


def _negative_zeros(n: int, sigmas: list[str]) -> dict:
    """A chain whose entries at odd distance past 2 are written as -0.0."""
    terms = []
    for i, sigma in enumerate(sigmas):
        entries = []
        for j, k in _pairs(n):
            value = -0.0 if (k - j) > 2 and (k - j) % 2 else (-1.0) ** (i + j) / (k - j) ** 1.5
            entries.append([j, k, value])
        terms.append({"sigma": sigma[0], "sigma2": sigma[1], "entries": entries})
    return {"n": n, "d": 1, "terms": terms}


def _far_negative_zeros(n: int) -> dict:
    """A chain whose entries past distance 2 are all written as -0.0, so every far block is -0.0."""
    entries = [[j, k, -0.0 if k - j > 2 else 1.0 / (k - j)] for j, k in _pairs(n)]
    return {"n": n, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": entries}]}


# one odd row each: its length, a value JSON writes as a string, null, a list or true, an index past 2^64
_ODD_ROWS = {
    "row2": [2, 3],
    "row4": [2, 3, 0.5, 1.0],
    "string": [2, 3, "0.5"],
    "null": [2, 3, None],
    "nested": [2, 3, [0.5]],
    "true": [2, 3, True],
    "hugeindex": [10**400, 3, 0.5],
}


def _entries_spec(row: list) -> dict:
    """A 4-site zz chain whose second entry is ``row``."""
    return {"n": 4, "d": 1, "terms": [{"sigma": "z", "sigma2": "z", "entries": [[1, 2, 1.0], row, [3, 4, 0.25]]}]}


# n and d as a fraction, a bool or a string, which are refused, and as integral floats, which are read as integers
_COUNT_FIELDS = {
    "n_fraction": {"n": 4.7, "d": 1},
    "n_true": {"n": True, "d": 1},
    "n_string": {"n": "4", "d": 1},
    "d_fraction": {"n": 4, "d": 1.9},
    "integral_floats": {"n": 4.0, "d": 1.0},
}


def spec_documents() -> dict[str, dict]:
    """Every spec file the corpus reads, by file name."""
    mixed = {
        "n": 4,
        "d": 1,
        "terms": [
            {"sigma": "z", "sigma2": "z", "entries": [[2, 4, -0.25], [1, 2, 0.5]]},
            {"sigma": "x", "sigma2": "y", "entries": [[3, 4, 0.7], [1, 4, 0.2]]},
        ],
        "onsite": {"z": [0.1, 0.0, -0.3, 0.2], "x": [0.0, 0.5, 0.0, 0.0]},
        "identity": 0.25,
    }
    return {
        "mixed4.json": mixed,
        "chain8.json": {"n": 8, "d": 1, "alpha": 2.0, "terms": [
            {"sigma": "z", "sigma2": "z", "entries": _chain_entries(8, 2.0, [1.0] * 28)}]},
        "negzero8.json": _negative_zeros(8, ["xx", "zz"]),
        "negzero16.json": _negative_zeros(16, ["zz"]),
        "negzero32.json": _negative_zeros(32, ["zz"]),
        "negzerofar16.json": _far_negative_zeros(16),
        # a chain that declares alpha = 0, so that a falsy alpha reaches avgcost's default m
        "flat16.json": {"n": 16, "d": 1, "alpha": 0.0, "terms": [
            {"sigma": "z", "sigma2": "z", "entries": _chain_entries(16, 0.0, [1.0] * 120)}]},
        "onsite8.json": {"n": 8, "d": 1, "terms": [
            {"sigma": "z", "sigma2": "z", "entries": _chain_entries(8, 1.0, [1.0, -1.0] * 14)}],
            "onsite": {"z": [0.3, -0.1, 0.0, 0.2, 0.0, 0.4, -0.5, 0.0]}},
        "malformed.json": {"n": 4, "d": 1, "terms": [{"sigma": "z", "entries": [[1, 2, 1.0]]}]},
        # entry rows that are not three numbers, each beside well-formed rows
        **{f"entries_{name}.json": _entries_spec(row) for name, row in _ODD_ROWS.items()},
        **{f"count_{name}.json": fields for name, fields in _COUNT_FIELDS.items()},
    }


def write_specs() -> None:
    SPECS.mkdir(exist_ok=True)
    for name, doc in spec_documents().items():
        (SPECS / name).write_text(json.dumps(doc) + "\n")


# -- the commands ------------------------------------------------------------------


def commands() -> list[list[str]]:
    """argv of every command; {golden} is the specs directory and {tmp} a fresh directory."""
    lines: list[str] = []
    # build at d = 1, 2, 3, every sign rule, a few Pauli pairs, spec files and --out
    lines += [
        "build --n 8",
        "build --n 8 --alpha 1.5 --pauli xx --signs alternating",
        "build --n 8 --alpha 0.5 --pauli xy --signs seeded-random --seed 3",
        "build --n 16 --alpha 3 --pauli yz",
        "build --n 16 --d 2 --alpha 1.5",
        "build --n 27 --d 3 --alpha 1",
        "build --n 64 --d 3 --alpha 2 --signs alternating",
        "build --n 64 --alpha 1.0",
        "build --n 4 --out {tmp}/spec.json",
        "build --input {golden}/mixed4.json",
        "build --input {golden}/negzero8.json",
        "build --input {golden}/negzero32.json",
        "build --input {golden}/onsite8.json",
        "build --n 8 --alpha 300",
        # several 64-row slabs of the matrix, for every sign rule and d
        "build --n 200 --alpha 1.3 --signs seeded-random --seed 7",
        "build --n 144 --d 2 --signs alternating",
        "build --n 216 --d 3 --alpha 0.8 --signs seeded-random --seed 2",
        # 1/dist^alpha is representable where dist^alpha leaves the float range
        "build --n 64 --alpha 200",
        # 1D chains with deterministic signs past one 64-row slab
        "build --n 130 --alpha 1.7 --signs alternating",
        "build --n 129 --alpha 0.6 --pauli xx",
    ]
    # decompose: every variant
    lines += [
        "decompose --n 8",
        "decompose --variant bisection --n 16",
        "decompose --variant lowrank --n 32 --cutoff 4",
        "decompose --variant lowrank --n 16 --cutoff 1",
        "decompose --variant lowrank --n 16 --cutoff 8",
        "decompose --variant boxes --n 8",
        "decompose --variant boxes --n 16",
        "decompose --variant subdivision --n 8 --m 2",
        "decompose --variant subdivision --n 16 --m 3",
        "decompose --variant subdivision --n 7 --m 3",  # uneven cuts on an odd half
        "decompose --variant subdivision --n 5 --m 5",  # unit cells
        "decompose --variant boxes --n 2",
        "decompose --variant lowrank --n 16 --cutoff 2 --out {tmp}/dec.json",
    ]
    # rank-profile: three sign rules, xz, spec files with -0.0 entries
    for extra in ("", " --signs alternating", " --signs seeded-random --seed 1", " --pauli xz --signs seeded-random"):
        lines.append(f"rank-profile --n 64 --cutoff 4 --tol 1e-6 --alpha 1.5{extra}")
    lines += [
        "rank-profile --n 32 --cutoff 2 --tol 1e-3",
        "rank-profile --n 32 --cutoff 1 --tol 1e-9 --alpha 3",
        "rank-profile --input {golden}/negzero32.json --cutoff 2",
        "rank-profile --input {golden}/negzero16.json --cutoff 1 --tol 1e-9",
        "rank-profile --input {golden}/negzero8.json --cutoff 1",
        "rank-profile --input {golden}/negzerofar16.json --cutoff 1",
        "compile --input {golden}/negzerofar16.json --method lowrank --cutoff 1",
        "verify --input {golden}/negzerofar16.json --method lowrank --cutoff 1",
        "rank-profile --n 16 --cutoff 8",
        "rank-profile --n 256 --cutoff 4 --tol 1e-9 --signs alternating",
        "rank-profile --n 256 --cutoff 4 --tol 1e-9 --signs seeded-random --seed 1",
    ]
    # compile: each method at p 1, 2, 4, the lowrank cutoffs, hamming2, count-only, --out
    for method in ("sequential", "lowrank", "avgcost"):
        for p in (1, 2, 4):
            lines.append(f"compile --n 8 --method {method} --p {p}")
        lines.append(f"compile --n 16 --method {method} --alpha 1.5 --count-only")
        lines.append(f"compile --n 64 --method {method} --alpha 1.0 --t 0.5 --count-only")
        lines.append(f"compile --input {{golden}}/negzero16.json --method {method} --count-only")
        lines.append(f"compile --input {{golden}}/onsite8.json --method {method} --t 0.3")
    for cutoff in (1, 2, 4):
        lines.append(f"compile --n 16 --method lowrank --cutoff {cutoff} --tol 1e-3 --signs seeded-random")
        lines.append(f"compile --input {{golden}}/negzero32.json --method lowrank --cutoff {cutoff} --count-only")
    lines += [
        "compile --n 16 --method avgcost --m 1 --alpha 1.5",
        "compile --n 16 --method avgcost --m 3 --signs alternating --count-only",
        # lowered avgcost steps with m > 1: uneven cuts and the block-to-site map
        "compile --n 16 --method avgcost --m 3 --alpha 1.5 --signs seeded-random --seed 3",
        "compile --n 16 --method avgcost --m 4 --pauli xx --signs alternating",
        "compile --n 8 --method sequential --pauli xz --signs alternating",
        "compile --n 300 --method sequential --count-only --p 1",
        "compile --n 300 --method sequential --count-only --p 4",
        "compile --input {golden}/mixed4.json --method sequential --p 4",
        "compile --n 8 --method hamming2",
        "compile --n 8 --method hamming2 --count-only",
        "compile --n 8 --method hamming2 --pauli xx",
        "compile --n 8 --method lowrank --cutoff 2 --out {tmp}/step.txt",
        "compile --n 8 --method avgcost --count-only --out {tmp}/cost.json",
        "compile --input {golden}/flat16.json --method avgcost --count-only",
        # alternating signs past n=16: counts, and a lowered step whose far composites reach BLAS
        "compile --n 256 --method lowrank --signs alternating --count-only",
        "compile --n 256 --method avgcost --alpha 1.5 --signs alternating --count-only",
        "compile --n 16 --method lowrank --cutoff 2 --signs alternating",
        "verify --n 16 --method lowrank --cutoff 2 --signs alternating",
    ]
    # verify: each method at p 1, 2, 4, Z-only and mixed specs, -0.0 entries
    for method in ("sequential", "lowrank", "avgcost"):
        for p in (1, 2, 4):
            lines.append(f"verify --n 8 --method {method} --p {p} --t 0.2 --cutoff 2")
        lines.append(f"verify --input {{golden}}/negzero8.json --method {method} --cutoff 1")
        lines.append(f"verify --input {{golden}}/negzero16.json --method {method} --cutoff 2")
    for cutoff in (1, 2, 4):
        lines.append(f"verify --n 8 --method lowrank --cutoff {cutoff} --tol 1e-3 --signs seeded-random")
    lines += [
        "verify --n 5 --pauli xz --method sequential --signs alternating",
        "verify --n 8 --pauli xx --method lowrank --cutoff 1 --p 1",
        "verify --n 4 --pauli xz --method lowrank --cutoff 1",
        "verify --input {golden}/mixed4.json --method sequential",
        "verify --input {golden}/onsite8.json --method avgcost --t 0.5",
        "verify --input {golden}/chain8.json --method lowrank --cutoff 2",
        "verify --n 8 --method avgcost --m 3 --signs seeded-random",
    ]
    # lowered lowrank and avgcost steps on random signs, at every order
    for method in ("lowrank --cutoff 2", "avgcost"):
        for p in (1, 2, 4):
            lines.append(f"compile --n 8 --method {method} --p {p} --signs seeded-random")
            lines.append(f"verify --n 8 --method {method} --p {p} --signs seeded-random")
    # error-sweep
    for method in ("sequential", "lowrank", "avgcost"):
        lines.append(f"error-sweep --n 4 --pauli xx --method {method} --cutoff 1 --p 1")
        lines.append(f"error-sweep --n 8 --method {method} --cutoff 2 --p 2")
    lines += [
        "error-sweep --n 5 --pauli xz --method sequential --p 2",
        "error-sweep --n 4 --pauli yy --method sequential --p 1 --t-values 0.1,1.0",
        "error-sweep --input {golden}/mixed4.json --method sequential --p 2",
        "error-sweep --input {golden}/negzero8.json --method sequential --p 1",
        "error-sweep --n 4 --pauli xz --method avgcost --m 1",
        "error-sweep --n 4 --p 4",
    ]
    # block: a lowered step and its count, its distance on Z-only and XX+ZZ specs, and its error sweep
    lines += [
        "compile --method block --n 8",
        "compile --method block --n 8 --count-only",
        "compile --method block --n 8 --p 1",
        "compile --method block --n 8 --p 4",
        "verify --method block --n 8 --p 4",
        "verify --method block --n 8",
        "verify --method block --n 16",
        "verify --method block --input {golden}/negzero8.json",
        "error-sweep --method block --n 8",
    ]
    # cost-report: every method at small n
    for method in ("sequential", "block", "avgcost", "lowrank"):
        lines.append(f"cost-report --method {method} --alpha 1.5 --t 0.1 --n-sweep 16,32,64,128")
        lines.append(f"cost-report --method {method} --alpha 2.5 --n-sweep 8,16,32,64 --p 1")
        lines.append(f"cost-report --method {method} --alpha 1.0 --eps 1e-6 --n-sweep 16,32,64,128")
    lines += [
        "cost-report --method lowrank --alpha 1.5 --tol 1e-2 --cutoff 2 --n-sweep 16,32,64,128",
        "cost-report --method sequential --d 2 --n-sweep 16,64,256,1024",
        "cost-report --method sequential --p 4 --n-sweep 64,128,256,512",
        "cost-report --method block --n-sweep 16,32",
        "cost-report --method avgcost --alpha 0.5 --t 1 --n-sweep 16,32,64,128",
        "cost-report --method block --alpha 1.5 --t 0.1 --n-sweep 128,256,512,1024",
        # block at p = 4, a tight eps, both ends of alpha, and on a 2D lattice (exit 2)
        "cost-report --method block --p 4 --n-sweep 16,32,64,128",
        "cost-report --method block --eps 1e-8 --t 0.1 --n-sweep 16,32,64,128",
        "cost-report --method block --alpha 0.5 --n-sweep 16,32,64,128",
        "cost-report --method block --alpha 3 --n-sweep 16,32,64,128",
        "cost-report --method block --d 2 --n-sweep 16,32,64,128",
    ]
    # the benchmark's count sweep, verbatim
    for method, alpha in (("sequential", "2"), ("lowrank", "2"), ("block", "2"), ("avgcost", "1.5")):
        lines.append(f"cost-report --method {method} --alpha {alpha} --n-sweep 64,128,256,512,1024")
    # lowrank ranks on larger far blocks, at a tight and a loose tolerance
    for alpha in ("0.5", "1.5"):
        for tol in ("1e-6", "1e-2"):
            lines.append(f"cost-report --method lowrank --alpha {alpha} --tol {tol} --n-sweep 256,512,1024,2048")
    lines.append("cost-report --method avgcost --alpha 1.0 --n-sweep 256,512,1024,2048")
    # avgcost at m = 1, where each cell is a whole cross block, at the higher orders
    for p in (2, 4):
        lines.append(f"cost-report --method avgcost --alpha 1.9 --t 0.1 --n-sweep 64,128,256,512,1024 --p {p}")
    # bound: every variant, vacuous and validation cases
    lines += [
        "bound volume --mu 1 --theta-max 1.5707963",
        "bound volume --mu 4 --theta-max 0.1",
        "bound diag --b 4 --k 100 --mu 2 --theta-max 1.5707963 --delta 0.1",
        "bound diag --b 4 --mu 2 --theta-max 1.5707963 --delta 0.1",
        "bound ham --b 64 --k 1000 --n 64 --eps 1e-3",
        "bound ham --b 2 --k 10 --n 4 --eps 0.5",
        "bound ham --b 64 --n 64 --eps 1e-3",
        "bound discrete --b 8 --k 100 --mu 3 --delta 0.01",
        "bound coeff --b 4 --n 64 --eps 1e-3 --m 3",
        "bound coeff --b 4 --k 20 --n 64 --eps 1e-3 --m 3",
        "bound volume --mu 1",
        "bound diag --b 4 --k 100 --mu 2 --theta-max 1.5707963",
        # accuracies near the float floor: ln x - ln accuracy where x / accuracy overflows
        "bound diag --b 4 --mu 2 --theta-max 1.5 --delta 1e-308",
        "bound ham --b 64 --n 64 --eps 1e-307",
        "bound diag --b 4 --mu 2 --theta-max 1.5 --delta 5e-324",
        # integers past the float range: a finite log-space value where one exists, else exit 3
        f"bound diag --b {HUGE} --mu 2 --theta-max 1.5 --delta 0.1",
        f"bound ham --b {HUGE} --n 64 --eps 1e-3",
        f"bound ham --b 64 --n {HUGE} --eps 1e-3",
        f"bound coeff --b 4 --n {HUGE} --eps 1e-3 --m 3",
        # inputs that force a vacuous bound never read the raw one, which prints as null past the float range
        f"bound ham --n {HUGE} --eps 1e-3 --t 1e-4",
        f"bound coeff --b 4 --n {HUGE} --eps 0.2 --m 3",  # inside 2^-m <= eps <= 1/2: exit 3
        "bound discrete --b 3000 --mu 2000 --delta 0.2 --m 3",
        "bound volume --mu 2000 --theta-max 1.5",
        "bound volume --mu 2000 --theta-max 0.5",  # 2^mu times a log of exactly 0
        "bound diag --b 3000 --mu 2000 --theta-max 1.5 --delta 0.1",
        "bound discrete --b 3000 --mu 2000 --delta 0.01 --m 3",
    ]
    # chem
    lines += [
        "chem --g-sweep 3,4",
        "chem --g-sweep 3,4 --step-grid 2 --t 1 --eps 0.01 --p 2",
        "chem --g-sweep 3 --omega 8 --eta 2",
    ]
    # exit 2, 3 and 64
    lines += [
        "build --n 1",
        "build --n 4 --alpha -1",
        "build --n 5 --d 2",
        "build --n 4 --signs bogus",
        "build --n 4 --pauli q",
        "build --n 4 --signs seeded-random --seed -1",
        "build --input {golden}/malformed.json",
        *[f"build --input {{golden}}/entries_{name}.json" for name in _ODD_ROWS],
        *[f"build --input {{golden}}/count_{name}.json" for name in _COUNT_FIELDS],
        "build --input {tmp}/missing.json",
        "decompose --variant subdivision --n 8",
        "decompose --variant lowrank --n 16 --cutoff 3",
        "decompose --variant bisection --n 6",
        "rank-profile --n 8 --cutoff 1 --tol 0",
        "compile --n 6 --method lowrank",
        "compile --n 8 --method avgcost --m 9",
        "verify --method block --n 12",
        "compile --method block --n 32",  # the top cross block's 2^32-entry phase table
        "error-sweep --method block --pauli xz",
        "verify --n 4 --p 3",
        "cost-report --method lowrank --n-sweep 16,32",
        "compile --n 8 --t 1e308 --method lowrank --count-only",
        "compile --n 4 --method avgcost --count-only --eps 5e-324",
        "cost-report --method block --t 1e308 --n-sweep 64,128,256,512",
        "chem --g-sweep 3 --step-grid 2 --t 1e200",
        "error-sweep --n 4 --pauli xz --t-values 1e200",
        # exit 0: where dist^alpha leaves the float range, 1 / dist^alpha is subnormal or 0
        "build --n 4 --alpha 2000",
        "verify --n 4 --alpha 2000",
        "compile --n 4 --alpha 2000 --method avgcost",
        "cost-report --method lowrank --alpha 700 --n-sweep 64,128,256,512",
        # exit 0 with a finite, vacuous bound: ln(1 / eps) is ln 1 - ln eps where 1 / eps overflows
        "bound ham --b 64 --k 1000 --n 64 --eps 5e-324 --t 1e308",
        "bound coeff --b 4 --n 64 --eps 5e-324 --t 1e308 --m 3",
        "compile --n 4 --t nan",
        "build --n 4 --alpha inf",
        "cost-report --method sequential --n-sweep 64,abc",
        "decompose",
        "frobnicate",
        "bound nonsense --mu 1",
        # abbreviated flags are unrecognized, never read as --method or --n-sweep
        "cost-report --m 4",
        "cost-report --method sequential --m 4",
        "cost-report --method sequential --n 64,128,256,512",
    ]
    # the README examples
    lines += [
        "build --n 8 --alpha 2.0 --out {tmp}/spec.json",
        "compile --input {golden}/chain8.json --method sequential --t 0.1 --p 2",
        "decompose --variant lowrank --n 32 --cutoff 4",
        "rank-profile --n 64 --cutoff 4 --tol 1e-6",
        "compile --n 64 --method lowrank --count-only",
        "verify --n 8 --method lowrank --t 0.1 --cutoff 2",
        "error-sweep --n 5 --pauli xz --method sequential --p 2",
        "cost-report --method sequential --alpha 2.0",
        "bound ham --b 64 --k 1000 --n 64 --eps 1e-3",
        "chem",
    ]
    return [line.split() for line in lines]


# -- running and recording ---------------------------------------------------------


def _text_record(text: str) -> dict:
    data = text.encode()
    if len(data) <= FULL_BYTES:
        return {"text": text}
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@contextlib.contextmanager
def _usage_width():
    """argparse wraps its usage lines at $COLUMNS, or at the terminal's width: fix it at 80."""
    before = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        if before is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = before


def run(argv: list[str], tmp: Path) -> dict:
    """Run one command through ``cli.main`` and record what it printed and wrote."""
    from trotterforge.cli import main

    def fill(text: str) -> str:
        return text.replace("{golden}", str(SPECS)).replace("{tmp}", str(tmp))

    def unfill(text: str) -> str:
        return _MEMORY.sub("{memory}", text.replace(str(SPECS), "{golden}").replace(str(tmp), "{tmp}"))

    out, err = io.StringIO(), io.StringIO()
    with _usage_width(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([fill(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "exit": code, "stderr": unfill(err.getvalue()), "stdout": _text_record(out.getvalue())}
    files = {p.name: _text_record(p.read_text()) for p in sorted(tmp.iterdir()) if p.is_file()}
    if files:
        record["files"] = files
    if caught:
        record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return record


def _same_text(want: str, got: str, tolerant: bool) -> bool:
    if not tolerant:
        return want == got
    if _FLOAT.split(want) != _FLOAT.split(got):
        return False
    pairs = [(float(a), float(b)) for a, b in zip(_FLOAT.findall(want), _FLOAT.findall(got))]
    # the sign is compared too, so that -0.0 and 0.0 differ
    return all(math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0) and math.copysign(1, a) == math.copysign(1, b)
               for a, b in pairs)


def _same(want: dict, got: dict, tolerant: bool) -> bool:
    if "text" in want and "text" in got:
        return _same_text(want["text"], got["text"], tolerant)
    return want == got


def mismatches(want: dict, got: dict) -> list[str]:
    """The fields in which a rerun ``got`` differs from the recorded ``want``."""
    tolerant = want["argv"][0] in FLOAT_COMMANDS
    bad = [key for key in ("argv", "exit", "stderr", "warnings") if want.get(key) != got.get(key)]
    if not _same(want["stdout"], got["stdout"], tolerant):
        bad.append("stdout")
    files_want, files_got = want.get("files", {}), got.get("files", {})
    if files_want.keys() != files_got.keys():
        bad.append("files")
    else:
        bad += [f"files/{name}" for name in files_want if not _same(files_want[name], files_got[name], tolerant)]
    return bad


def load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def main() -> None:
    write_specs()
    records = []
    for argv in commands():
        with tempfile.TemporaryDirectory() as tmp:
            record = run(argv, Path(tmp))
        if record["argv"][0] in FLOAT_COMMANDS and "text" not in record["stdout"]:
            sys.exit(f"{' '.join(argv)}: its floats compare with a tolerance, so its output must stay under {FULL_BYTES} bytes")
        records.append(record)
    CORPUS.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    print(f"wrote {len(records)} records to {CORPUS}")


if __name__ == "__main__":
    main()
