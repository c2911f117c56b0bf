"""Command-line surface: build, decompose, profile, compile, verify, report.

Exit codes: 0 success, 2 validation/domain error, 3 capacity error,
64 usage error. Identical flags produce byte-identical artifacts; files
are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
from .circuit import (
    CAPACITY_QUBITS,
    circuit_text,
    exact_evolution,
    pauli_term_matrix,
    spectral_distance,
)
from .compilers import (
    SUPPORTED_ORDERS,
    compile_avgcost_step,
    compile_hamming2_reduction,
    compile_lowrank_step,
    compile_sequential_step,
    lowered_step_unitary,
    sequential_terms,
    step_cost_json,
    step_to_text,
)
from .costmodel import balanced_subdivision, gate_count_report
from .decomp import (
    boxgrid_to_json,
    decomposition_to_json,
    bisection_decompose,
    lowrank_decompose,
    nested_boxes,
    subdivide,
    subdivision_to_json,
)
from .errors import CapacityError, ValidationError
from .hamlib import PauliKind, build_power_law, spec_from_json, spec_to_json
from .lowrank import rank_profile
from .trotter import (
    COMMUTATOR_DIM_CAP,
    COMMUTATOR_ORDER_CAP,
    TrotterErrorReport,
    commutator_norm_sum,
    error_report_csv,
    steps_for,
)


# orders that both the product formula and the brute-force commutator sum support
SWEEP_ORDERS = tuple(q for q in SUPPORTED_ORDERS if q <= COMMUTATOR_ORDER_CAP)


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


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="spec JSON path (overrides the build flags)")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--pauli", default="zz")
    p.add_argument("--signs", default="all-positive")
    p.add_argument("--seed", type=int, default=0)


def _load_spec(args):
    if args.input:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read --input {args.input}: {exc}") from None
        return spec_from_json(text)
    return build_power_law(args.n, args.d, args.alpha, _pauli_pair(args.pauli), args.signs, args.seed)


def _add_method_flags(p: argparse.ArgumentParser, methods: tuple[str, ...]) -> None:
    p.add_argument("--method", choices=methods, default=methods[0])
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float, default=1e-3)


def _compiled_step(method, spec, args, count_only):
    if method == "sequential":
        return compile_sequential_step(spec, args.t, args.p, count_only=count_only)
    if method == "lowrank":
        return compile_lowrank_step(
            spec, args.t, args.tol, args.cutoff, args.p, count_only=count_only, eps=args.eps
        )
    m = args.m if args.m is not None else balanced_subdivision(spec.n, spec.alpha or 1.0, args.t)
    return compile_avgcost_step(spec, args.t, m, args.p, count_only=count_only, eps=args.eps)


def _stage_matrices(spec):
    sites = COMMUTATOR_DIM_CAP.bit_length() - 1
    if spec.n > sites:
        raise CapacityError(f"commutator sums are capped at {sites} sites, got {spec.n}")
    return [coeff * pauli_term_matrix(string, spec.n) for string, coeff in sequential_terms(spec)]


# -- subcommand bodies ----------------------------------------------------------


def _run_build(args) -> None:
    _emit(spec_to_json(_load_spec(args)), args.out)


def _run_decompose(args) -> None:
    if args.variant == "bisection":
        text = decomposition_to_json(bisection_decompose(args.n))
    elif args.variant == "lowrank":
        text = decomposition_to_json(lowrank_decompose(args.n, args.cutoff))
    elif args.variant == "boxes":
        text = boxgrid_to_json(nested_boxes(args.n))
    else:
        if args.m is None:
            raise ValidationError("subdivision needs --m")
        text = subdivision_to_json(subdivide(args.n, args.m))
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
        _emit(circuit_text(circuit), args.out)
        sidecar = json.dumps(
            {"method": "hamming2", "gates": circuit.cost(), "qubits": circuit.qubit_count},
            indent=2,
            sort_keys=True,
        )
        _emit(sidecar, f"{args.out}.cost.json" if args.out else None)
        return
    step = _compiled_step(args.method, spec, args, args.count_only)
    if args.count_only:
        # no gate list to print; the cost document goes to the primary path
        _emit(step_cost_json(step), args.out)
        return
    _emit(step_to_text(step), args.out)
    _emit(step_cost_json(step), f"{args.out}.cost.json" if args.out else None)


def _run_verify(args) -> None:
    spec = _load_spec(args)
    if spec.n > CAPACITY_QUBITS:
        raise CapacityError(f"verification is capped at {CAPACITY_QUBITS} qubits, got {spec.n}")
    step = _compiled_step(args.method, spec, args, False)
    distance = spectral_distance(lowered_step_unitary(step), exact_evolution(spec, args.t))
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
    if spec.n > CAPACITY_QUBITS:
        raise CapacityError(f"verification is capped at {CAPACITY_QUBITS} qubits, got {spec.n}")
    if args.p not in SWEEP_ORDERS:
        raise ValidationError(f"error-sweep needs --p in {SWEEP_ORDERS}, got {args.p}")
    steps = []
    for t in _float_list(args.t_values):
        args.t = t
        steps.append(_compiled_step(args.method, spec, args, False))
    # an invalid order, method or spec exits before the costly sum
    alpha = commutator_norm_sum(_stage_matrices(spec), args.p)
    reports = []
    for step in steps:
        t = step.t
        empirical = spectral_distance(lowered_step_unitary(step), exact_evolution(spec, t))
        reports.append(
            TrotterErrorReport(
                method=args.method,
                p=args.p,
                t=t,
                alpha_comm=alpha,
                bound=alpha * t ** (args.p + 1),
                empirical=empirical,
                r=steps_for(alpha, t, args.eps, args.p),
            )
        )
    _emit(error_report_csv(reports), args.out)


def _run_cost_report(args) -> None:
    report = gate_count_report(
        args.method,
        args.alpha,
        args.d,
        args.t,
        args.eps,
        _int_list(args.n_sweep),
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
    report = norm_scaling_report(_int_list(args.g_sweep), omega=args.omega, eta=args.eta)
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
    p.add_argument("--tol", type=float, default=1e-6)
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
    p.add_argument("--t-values", default="0.05,0.1,0.2")
    p.add_argument("--out")
    p.set_defaults(run=_run_error_sweep)

    p = subs.add_parser("cost-report", help="gate-count scaling CSV over an n sweep")
    p.add_argument("--method", choices=("sequential", "block", "avgcost", "lowrank"), required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tol", type=float)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--n-sweep", default="64,128,256,512,1024")
    p.add_argument("--out")
    p.set_defaults(run=_run_cost_report)

    p = subs.add_parser("bound", help="lower-bound calculators; JSON output")
    p.add_argument("variant", choices=("volume", "diag", "ham", "discrete", "coeff"))
    p.add_argument("--mu", type=int)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--k", type=int, help="gate set size; omit for arbitrary 2-qubit gates")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--c-red", type=float, default=1.0)
    p.add_argument("--c-compile", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(run=_run_bound)

    p = subs.add_parser("chem", help="electron-gas norm scalings CSV + step report")
    p.add_argument("--g-sweep", default="3,4,5,6,7,8,9")
    p.add_argument("--omega", type=float)
    p.add_argument("--eta", type=int)
    p.add_argument("--step-grid", type=int)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--constant", type=float, default=1.0)
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
