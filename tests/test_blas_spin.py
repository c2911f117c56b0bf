"""Importing trotterforge shortens OpenBLAS's idle spin and changes nothing else: no thread count, no float."""

import json
import os
import subprocess
import sys

import pytest

import trotterforge
from trotterforge.hamlib import PauliKind, build_power_law, spec_to_dict

VAR = "OPENBLAS_THREAD_TIMEOUT"
SHOW = f"import os; print(os.environ.get({VAR!r}))"


def run(argv: list[str], **env: str) -> str:
    """stdout of ``argv`` in a fresh process whose environment has ``VAR`` only if ``env`` gives it."""
    full = {k: v for k, v in os.environ.items() if k != VAR}
    full.update(env)
    return subprocess.run(argv, capture_output=True, text=True, env=full, check=True).stdout


@pytest.mark.parametrize(
    "code, env, want",
    [
        # unset: the package's value, which a child process inherits
        (f"import trotterforge, subprocess, sys; {SHOW}; subprocess.run([sys.executable, '-c', {SHOW!r}])", {},
         f"{trotterforge._OPENBLAS_THREAD_TIMEOUT}\n" * 2),
        (f"import trotterforge; {SHOW}", {VAR: "7"}, "7\n"),  # the user's value wins
        (f"import numpy, trotterforge; {SHOW}", {}, "None\n"),  # too late to matter, so left unset
    ],
    ids=["unset", "user-value", "numpy-first"],
)
def test_import_sets_the_spin_timeout_only_where_unset_and_before_numpy(code, env, want):
    assert run([sys.executable, "-c", code], **env) == want


def test_spin_timeout_moves_no_float(tmp_path):
    """Thread count decides how BLAS splits its sums; the spin timeout must not, so the bytes are equal."""
    doc = spec_to_dict(build_power_law(8, 1, 2.0, (PauliKind.X, PauliKind.X), "seeded-random", seed=1))
    doc["terms"] += spec_to_dict(build_power_law(8, 1, 1.5, (PauliKind.Z, PauliKind.Z), "seeded-random", seed=2))["terms"]
    spec = tmp_path / "mixed8.json"
    spec.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "trotterforge.cli", "verify", "--input", str(spec), "--method", "sequential"]
    package_default = run(argv)
    assert json.loads(package_default)["distance"] > 0
    assert run(argv, **{VAR: "28"}) == package_default  # OpenBLAS's own default
