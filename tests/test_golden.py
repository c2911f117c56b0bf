"""Every command of the checked-in CLI corpus prints and writes what it recorded (see tests/golden/regen.py)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDS = golden.load()


def test_corpus_lists_the_commands_regen_runs():
    assert [r["argv"] for r in RECORDS] == golden.commands()


@pytest.mark.parametrize("want", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_is_unchanged(tmp_path, want):
    got = golden.run(want["argv"], tmp_path)
    assert golden.mismatches(want, got) == [], got
