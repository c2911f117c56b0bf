"""The README's examples run as shown: every CLI line exits 0 and prints what the README prints."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

from trotterforge.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def blocks(lang):
    return [body for tag, body in FENCE.findall(README) if tag == lang]


def readme_commands():
    """argv of every `trotterforge ...` line in the sh blocks, trailing comments stripped."""
    for body in blocks("sh"):
        for line in body.splitlines():
            if line.startswith("trotterforge "):
                yield shlex.split(line, comments=True)[1:]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv in readme_commands():
        assert main(argv) == 0, argv
        key = f"bound {argv[1]}" if argv[0] == "bound" else argv[0]
        outputs[key] = capsys.readouterr().out
    assert {"build", "compile", "verify", "error-sweep", "cost-report", "bound diag", "chem"} <= set(outputs)

    verify_shown, bound_shown = (json.loads(body) for body in blocks("json"))
    verify = json.loads(outputs["verify"])
    assert verify.pop("distance") <= 1e-12
    assert verify == {k: v for k, v in verify_shown.items() if k != "distance"}
    assert verify["gates"] == 216

    (csv_shown,) = blocks("")
    shown = [line for line in csv_shown.splitlines() if line != "..."]
    assert shown[1].startswith("sequential,2.0,1,64,12093,")
    assert outputs["cost-report"].splitlines()[: len(shown)] == shown

    assert json.loads(outputs["bound diag"]) == bound_shown


def test_readme_library_quick_start(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    gates, distance = capsys.readouterr().out.splitlines()
    assert gates == "216"
    assert float(distance) <= 1e-12


def test_readme_states_the_golden_corpus_size():
    spec = importlib.util.spec_from_file_location("golden_regen", ROOT / "tests" / "golden" / "regen.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    (stated,) = re.findall(r"records the output of (\d+) CLI commands", README)
    assert int(stated) == len(golden.load())
