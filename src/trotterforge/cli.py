"""Command-line surface: build, decompose, profile, compile, verify, report.

Exit codes: 0 success, 2 validation/domain error, 3 capacity error (the request
would not fit in physical memory), 64 usage error (a non-finite or malformed
number included). Identical flags produce byte-identical artifacts; files are
written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .bounds import (
    BoundQuery,
    coeff_oracle_lower_bound,
    commuting_ham_lower_bound,
    diag_synthesis_lower_bound,
    discrete_diag_lower_bound,
    volume_diag,
)
from .chem import (
    build_uniform_electron_gas,
    chem_step_count,
    norm_scaling_report,
    system_to_json,
)
from .circuit import circuit_text
from .compilers import (
    SUPPORTED_ORDERS,
    check_distance_capacity,
    compile_hamming2_reduction,
    step_cost_json,
    step_distances,
)
from .costmodel import compile_method, gate_count_report
from .decomp import (
    bisection_decompose,
    boxes_to_json,
    cells_to_json,
    decomposition_to_json,
    lowrank_decompose,
    nested_boxes,
    subdivide,
)
from .errors import CapacityError, ValidationError
from .hamlib import PauliKind, build_power_law, pauli_table, spec_from_json, spec_to_json
from .lowrank import rank_profile
from .trotter import (
    PAULI_COMMUTATOR_ORDERS,
    TrotterErrorReport,
    error_bound,
    error_report_csv,
    pauli_commutator_sum,
    steps_for,
)


# orders that both the product formula and the closed-form commutator sum support
SWEEP_ORDERS = tuple(q for q in SUPPORTED_ORDERS if q in PAULI_COMMUTATOR_ORDERS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        sys.stderr.write(f"usage error: {message}\n")
        sys.exit(64)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    target = Path(out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f"{target.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates 0600; give the artifact the mode a plain open() would
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(fh.fileno(), 0o666 & ~mask)
            fh.write(text)
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            # strerror leaves out the file name, which for the temp file is random
            raise ValidationError(f"cannot write --out {out}: {exc.strerror or exc}") from None
        raise


def _pauli_pair(tag: str) -> tuple[PauliKind, PauliKind]:
    if len(tag) != 2:
        raise ValidationError(f"pauli pair tag must be two letters, got {tag!r}")
    return PauliKind.from_tag(tag[0]), PauliKind.from_tag(tag[1])


def _finite(text: str) -> float:
    """argparse type: a finite float, so that nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    """argparse type: comma-separated finite floats; empty items are skipped."""
    return [_finite(x) for x in text.split(",") if x.strip()]


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="spec JSON path (overrides the build flags)")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=_finite, default=2.0)
    p.add_argument("--pauli", default="zz")
    p.add_argument("--signs", default="all-positive")
    p.add_argument("--seed", type=int, default=0)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read --input {path}: {exc}") from None


def _load_spec(args):
    if args.input:
        # no local holds the text, so the parser frees it before it converts the entries
        return spec_from_json(_read_input(args.input))
    return build_power_law(args.n, args.d, args.alpha, _pauli_pair(args.pauli), args.signs, args.seed)


def _add_method_flags(p: argparse.ArgumentParser, methods: tuple[str, ...]) -> None:
    p.add_argument("--method", choices=methods, default=methods[0])
    p.add_argument("--t", type=_finite, default=0.1)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tol", type=_finite, default=1e-9)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=_finite, default=1e-3)


def _compiled_step(spec, args, t, count_only=False):
    return compile_method(
        args.method, spec, t, args.p, args.eps, tol=args.tol, cutoff_size=args.cutoff, m=args.m, count_only=count_only
    )


# -- subcommand bodies ----------------------------------------------------------


def _run_build(args) -> None:
    _emit(spec_to_json(_load_spec(args)), args.out)


def _run_decompose(args) -> None:
    if args.variant == "bisection":
        text = decomposition_to_json(bisection_decompose(args.n))
    elif args.variant == "lowrank":
        text = decomposition_to_json(lowrank_decompose(args.n, args.cutoff))
    elif args.variant == "boxes":
        text = boxes_to_json(nested_boxes(args.n))
    else:
        if args.m is None:
            raise ValidationError("subdivision needs --m")
        text = cells_to_json(subdivide(args.n, args.m))
    _emit(text, args.out)


def _run_rank_profile(args) -> None:
    spec = _load_spec(args)
    profile = rank_profile(spec, lowrank_decompose(spec.n, args.cutoff), args.tol)
    _emit(profile.to_csv(), args.out)


def _run_compile(args) -> None:
    spec = _load_spec(args)
    if args.method == "hamming2":
        mat = spec.two_local.get((PauliKind.Z, PauliKind.Z))
        if mat is None:
            raise ValidationError("the gadget needs a ZZ coefficient group")
        circuit = compile_hamming2_reduction(mat)
        cost = json.dumps(
            {"method": "hamming2", "gates": circuit.cost(), "qubits": circuit.qubit_count},
            indent=2,
            sort_keys=True,
        )
    else:
        step = _compiled_step(spec, args, args.t, args.count_only)
        circuit, cost = step.circuit, step_cost_json(step)
    if args.count_only:
        # no gate list to print; the cost document goes to the primary path
        _emit(cost, args.out)
        return
    _emit(circuit_text(circuit), args.out)
    _emit(cost, f"{args.out}.cost.json" if args.out else None)


def _run_verify(args) -> None:
    spec = _load_spec(args)
    check_distance_capacity(spec)
    step = _compiled_step(spec, args, args.t)
    (distance,) = step_distances(spec, [step])
    doc = {
        "method": args.method,
        "n": spec.n,
        "t": args.t,
        "p": args.p,
        "gates": step.gate_count,
        "distance": distance,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)


def _run_error_sweep(args) -> None:
    spec = _load_spec(args)
    check_distance_capacity(spec)
    if args.p not in SWEEP_ORDERS:
        raise ValidationError(f"error-sweep needs --p in {SWEEP_ORDERS}, got {args.p}")
    steps = [_compiled_step(spec, args, t) for t in args.t_values]
    # an invalid order, method or spec exits before the commutator sum
    table = pauli_table(spec)
    alpha = pauli_commutator_sum(table.x, table.z, table.coeff, args.p)
    reports = [
        TrotterErrorReport(
            method=args.method,
            p=args.p,
            t=step.t,
            alpha_comm=alpha,
            bound=error_bound(alpha, step.t, args.p),
            empirical=empirical,
            r=steps_for(alpha, step.t, args.eps, args.p),
        )
        for step, empirical in zip(steps, step_distances(spec, steps))
    ]
    _emit(error_report_csv(reports), args.out)


def _run_cost_report(args) -> None:
    report = gate_count_report(
        args.method,
        args.alpha,
        args.d,
        args.t,
        args.eps,
        args.n_sweep,
        p=args.p,
        tol=args.tol,
        cutoff_size=args.cutoff,
    )
    _emit(report.to_csv(), args.out)


def _run_bound(args) -> None:
    if args.variant == "volume":
        if args.mu is None or args.theta_max is None:
            raise ValidationError("volume needs --mu and --theta-max")
        _emit(
            json.dumps(
                {"log_volume": volume_diag(args.mu, args.theta_max)}, indent=2, sort_keys=True
            ),
            args.out,
        )
        return
    query = BoundQuery(
        b=args.b,
        gate_set_size=args.k,
        mu=args.mu,
        theta_max=args.theta_max,
        delta=args.delta,
        eps=args.eps,
        m=args.m,
        n=args.n,
        t=args.t,
        c_red=args.c_red,
        c_compile=args.c_compile,
    )
    fn = {
        "diag": diag_synthesis_lower_bound,
        "ham": commuting_ham_lower_bound,
        "discrete": discrete_diag_lower_bound,
        "coeff": coeff_oracle_lower_bound,
    }[args.variant]
    _emit(fn(query).to_json(), args.out)


def _run_chem(args) -> None:
    report = norm_scaling_report(args.g_sweep, omega=args.omega, eta=args.eta)
    _emit(report.to_csv(), args.out)
    if args.step_grid is not None:
        omega = args.omega if args.omega is not None else float(args.step_grid**3)
        system = build_uniform_electron_gas(args.step_grid, omega, eta=args.eta)
        doc = json.loads(system_to_json(system))
        doc.update(
            {
                "t": args.t,
                "eps": args.eps,
                "p": args.p,
                "constant": args.constant,
                "r": chem_step_count(system, args.t, args.eps, args.p, args.constant),
            }
        )
        _emit(json.dumps(doc, indent=2, sort_keys=True), None)


# -- parser wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trotterforge", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = subs.add_parser("build", help="emit a Hamiltonian spec as JSON")
    _add_spec_flags(p)
    p.add_argument("--out")
    p.set_defaults(run=_run_build)

    p = subs.add_parser("decompose", help="emit a pair decomposition as JSON")
    p.add_argument("--variant", choices=("bisection", "lowrank", "boxes", "subdivision"), default="bisection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.set_defaults(run=_run_decompose)

    p = subs.add_parser("rank-profile", help="far-field truncation ranks as CSV")
    _add_spec_flags(p)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--tol", type=_finite, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(run=_run_rank_profile)

    p = subs.add_parser("compile", help="compile one step to circuit text + cost JSON")
    _add_spec_flags(p)
    _add_method_flags(p, ("sequential", "lowrank", "avgcost", "hamming2"))
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_run_compile)

    p = subs.add_parser("verify", help="compare a compiled step against exact evolution")
    _add_spec_flags(p)
    _add_method_flags(p, ("sequential", "lowrank", "avgcost"))
    p.add_argument("--out")
    p.set_defaults(run=_run_verify)

    p = subs.add_parser("error-sweep", help="order-scaling CSV over a t sweep")
    _add_spec_flags(p)
    _add_method_flags(p, ("sequential", "lowrank", "avgcost"))
    p.add_argument("--t-values", type=_float_list, default="0.05,0.1,0.2")
    p.add_argument("--out")
    p.set_defaults(run=_run_error_sweep)

    p = subs.add_parser("cost-report", help="gate-count scaling CSV over an n sweep")
    p.add_argument("--method", choices=("sequential", "block", "avgcost", "lowrank"), required=True)
    p.add_argument("--alpha", type=_finite, default=2.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--eps", type=_finite, default=1e-3)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tol", type=_finite)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--n-sweep", type=_int_list, default="64,128,256,512,1024")
    p.add_argument("--out")
    p.set_defaults(run=_run_cost_report)

    p = subs.add_parser("bound", help="lower-bound calculators; JSON output")
    p.add_argument("variant", choices=("volume", "diag", "ham", "discrete", "coeff"))
    p.add_argument("--mu", type=int)
    p.add_argument("--theta-max", type=_finite)
    p.add_argument("--delta", type=_finite)
    p.add_argument("--eps", type=_finite)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--k", type=int, help="gate set size; omit for arbitrary 2-qubit gates")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--c-red", type=_finite, default=1.0)
    p.add_argument("--c-compile", type=_finite, default=1.0)
    p.add_argument("--out")
    p.set_defaults(run=_run_bound)

    p = subs.add_parser("chem", help="electron-gas norm scalings CSV + step report")
    p.add_argument("--g-sweep", type=_int_list, default="3,4,5,6,7,8,9")
    p.add_argument("--omega", type=_finite)
    p.add_argument("--eta", type=int)
    p.add_argument("--step-grid", type=int)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--eps", type=_finite, default=0.01)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--constant", type=_finite, default=1.0)
    p.add_argument("--out")
    p.set_defaults(run=_run_chem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
