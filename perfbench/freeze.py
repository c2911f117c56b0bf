"""Freeze the output of every benchmark command at the default seed into reference.json.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted: from then on the benchmark
counts any output that differs from the frozen one as a failure. Each output
must pass the workload's independent checks before it is frozen.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    outputs = {}
    deadline = time.monotonic() + 3600.0
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        commands, inputs = build(workloads.DEFAULT_SEED)
        work = Path(tempfile.mkdtemp(prefix=f"freeze-{name}-", dir=run.WORK_ROOT))
        try:
            workloads.write_specs(inputs, work)
            for command in commands:
                child = run.run_child(run.cli_argv(command.argv), work, deadline)
                problems = [] if child.code == 0 else [f"exit {child.code}: {child.stderr}"]
                problems = problems or workloads.check_output(command, child.stdout, inputs, workloads.DEFAULT_SEED, {})
                if problems:
                    print(f"{command.key}: {problems}", file=sys.stderr)
                    return 1
                outputs[command.key] = child.stdout
                print(f"{command.key}: {child.wall_s:.2f} s", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    doc = {"default_seed": workloads.DEFAULT_SEED, "outputs": outputs}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
