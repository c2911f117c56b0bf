"""A CLI process loads only what its subcommand runs, and the package's exports resolve on first use."""

import subprocess
import sys

import pytest

import trotterforge

# runs trotterforge.cli.main on its arguments in a fresh process, then prints the exit code and
# every loaded module that is numpy or part of trotterforge
PROBE = """
import contextlib, io, sys
import trotterforge.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = trotterforge.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m == "numpy" or m.startswith("trotterforge")))
"""


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    """(exit code, loaded modules) of ``trotterforge.cli.main(argv)`` in a fresh process."""
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, check=True).stdout
    code, *modules = out.split()
    return int(code), set(modules)


@pytest.mark.parametrize("code", ["import trotterforge", "import trotterforge.cli"])
def test_import_loads_no_numpy(code):
    probe = f"{code}; import sys; print('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout == "False\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--help"], 0),
        (["verify", "--n", "nan"], 64),
        (["bound", "volume", "--mu", "20", "--theta-max", "0.5"], 0),
        (["bound", "diag", "--b", "4", "--k", "100", "--mu", "2", "--theta-max", "1.5707963", "--delta", "0.1"], 0),
        (["bound", "ham", "--b", "64", "--k", "1000", "--n", "64", "--eps", "1e-3"], 0),
        (["bound", "discrete", "--b", "3000", "--mu", "2000", "--delta", "0.01", "--m", "3"], 0),
        (["bound", "coeff", "--b", "4", "--n", "64", "--eps", "1e-3", "--m", "3"], 0),
    ],
    ids=["help", "usage-error", "volume", "diag", "ham", "discrete", "coeff"],
)
def test_parser_and_bound_load_no_numpy(argv, want):
    code, modules = loaded_by(*argv)
    assert code == want and "numpy" not in modules


def test_cost_report_loads_neither_chem_nor_bounds():
    code, modules = loaded_by("cost-report", "--method", "avgcost", "--alpha", "1.5", "--n-sweep", "16,32,64,128")
    assert code == 0 and "trotterforge.costmodel" in modules
    assert not modules & {"trotterforge.chem", "trotterforge.bounds", "trotterforge.trotter"}


def test_verify_loads_neither_chem_nor_bounds():
    code, modules = loaded_by("verify", "--n", "4", "--method", "sequential")
    assert code == 0 and "trotterforge.circuit" in modules
    assert not modules & {"trotterforge.chem", "trotterforge.bounds", "trotterforge.trotter"}


def test_rank_profile_loads_only_the_spec_decomposition_and_svd_modules():
    code, modules = loaded_by("rank-profile", "--n", "16")
    assert code == 0
    assert modules == {"numpy", "trotterforge", "trotterforge.cli", "trotterforge.errors", "trotterforge.hamlib",
                       "trotterforge.decomp", "trotterforge.lowrank"}


@pytest.mark.parametrize("name", trotterforge.__all__)
def test_each_export_is_its_defining_module_binding(name):
    value = getattr(trotterforge, name)
    assert value.__module__.startswith("trotterforge.") and vars(sys.modules[value.__module__])[name] is value


def test_exports_are_the_57_names_and_dir_lists_them():
    assert len(trotterforge.__all__) == 57 and trotterforge.__all__ == sorted(set(trotterforge.__all__))
    assert set(trotterforge.__all__) <= set(dir(trotterforge))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from trotterforge import *", namespace)
    assert all(namespace[name] is getattr(trotterforge, name) for name in trotterforge.__all__)


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'trotterforge' has no attribute 'compile_fast_step'"):
        trotterforge.compile_fast_step  # noqa: B018


def test_step_methods_has_one_home():
    import trotterforge.costmodel

    assert trotterforge.costmodel.STEP_METHODS is trotterforge.STEP_METHODS
