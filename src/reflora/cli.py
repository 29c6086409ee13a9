"""Command-line front end.

Subcommands wrap the harness operations. Every flag can also come from a
flat key=value config file (flags win), all randomness flows from a single
--seed, and every output file starts with comment lines recording the tool
version, the canonical command, the fully resolved config, the numeric
environment (numpy, BLAS, CPU count, thread variables) and the seed, so
any output can be regenerated from its own header and its timing columns
read against the machine that produced them.
"""

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__, harness, optim, props, refactor
from .errors import RefloraError
from .problems import Problem


class UsageError(Exception):
    """Bad flag or flag combination; maps to exit code 2."""


LINREG_SIGMA_A = float(np.sqrt(10.0))
LINREG_SIGMA_B = float(np.sqrt(0.1))


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _str_list(text: str) -> list[str]:
    return [v for v in text.split(",") if v != ""]


# flag tables per subcommand: (name, type, default, help)
_RUN_FLAGS = [
    ("seed", int, 0, "base seed for all random streams"),
    ("eta", float, 0.01, "learning rate"),
    ("method", str, "reflora", "lora | reflora | reflora-s | scaledgd"),
    ("optimizer", str, "gd", "gd | adam | adamw"),
    ("mode", str, "balanced", "balanced | theorem-exact | identity"),
    ("root", str, "plus", "root choice in theorem-exact modes"),
    ("lipschitz", float, None,
     "gradient-Lipschitz constant for theorem-exact modes "
     "(defaults to the problem's exact constant)"),
    ("warmup", int, 1, "plain-GD warmup steps while factors are degenerate"),
    ("steps", int, 2000, "iterations"),
    ("log-every", int, 1, "record every k-th step"),
    ("weight-decay", float, 0.0, "adamw decoupled weight decay"),
    ("alpha", float, None,
     "adapter scale: increment enters as (alpha/rank) A B^T; "
     "unset means factor 1"),
    ("format", str, "csv", "output format (csv)"),
    ("out", str, "-", "output CSV path, or - for stdout"),
]

_MF_FLAGS = [
    ("m", int, 128, "target rows"),
    ("n", int, 100, "target columns"),
    ("rank", int, 8, "factor rank"),
    ("sigma-a", float, 1.0, "stddev of the A init"),
    ("sigma-b", float, 0.0, "stddev of the B init (0 = zero init)"),
]

_FLAGS = {
    "mf": _MF_FLAGS + _RUN_FLAGS,
    "linreg": [
        ("m", int, 2, "output dimension"),
        ("n", int, 2, "input dimension"),
        ("k", int, 2, "sample count"),
        ("rank", int, 1, "factor rank"),
        ("sigma-a", float, LINREG_SIGMA_A, "stddev of the A init"),
        ("sigma-b", float, LINREG_SIGMA_B, "stddev of the B init"),
    ] + _RUN_FLAGS,
    "bound-scan": [
        ("m", int, 2, "output dimension"),
        ("n", int, 2, "input dimension"),
        ("k", int, 2, "sample count"),
        ("rank", int, 1, "factor rank"),
        ("seed", int, 0, "base seed"),
        ("sigma-a", float, LINREG_SIGMA_A, "stddev of the A init"),
        ("sigma-b", float, LINREG_SIGMA_B, "stddev of the B init"),
        ("eta-min", float, -0.5, "grid start"),
        ("eta-max", float, 0.5, "grid end"),
        ("points", int, 201, "grid points (exact zeros are dropped)"),
        ("root", str, "plus", "root choice for the optimal scaling"),
        ("format", str, "csv", "output format (csv)"),
        ("out", str, "-", "output CSV path, or - for stdout"),
    ],
    "compare": [("problem", str, "mf", "mf | linreg")] + _MF_FLAGS + [
        ("k", int, 2, "sample count (linreg only)"),
        ("methods", str, "lora,reflora,scaledgd", "comma-separated methods"),
        ("etas", str, "0.01", "comma-separated learning rates"),
    ] + [flag for flag in _RUN_FLAGS if flag[0] not in ("eta", "method")],
    "overhead": [
        ("dims", str, "2048", "comma-separated square dimensions"),
        ("ranks", str, "8,32", "comma-separated ranks"),
        ("repeats", int, 10, "timed repetitions per point (>= 10)"),
        ("seed", int, 0, "probe seed"),
        ("format", str, "csv", "output format (csv)"),
        ("out", str, "-", "output CSV path, or - for stdout"),
    ],
    "props-report": [
        ("trials", int, 100, "sample count per invariant"),
        ("seed", int, 0, "sampling seed"),
        ("out", str, "-", "report path, or - for stdout"),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflora",
        description="Low-rank adapter refactoring benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", type=str, default=None,
                         help="flat key = value config file; flags override")
        for flag, ftype, default, help_text in flags:
            sub.add_argument(f"--{flag}", type=ftype, default=default,
                             help=help_text)
        if name == "props-report":
            sub.add_argument("--inject-fault", action="store_true",
                             help=argparse.SUPPRESS)
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"--config: {path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    return values


def _explicit_flags(argv: Sequence[str]) -> set:
    given = set()
    for token in argv:
        if token.startswith("--"):
            given.add(token[2:].split("=", 1)[0])
    return given


def _apply_config(args: argparse.Namespace, command: str,
                  argv: Sequence[str]) -> None:
    if not args.config:
        return
    types = {flag: ftype for flag, ftype, _, _ in _FLAGS[command]}
    explicit = _explicit_flags(argv)
    for key, raw in _load_config(args.config).items():
        if key not in types:
            raise UsageError(f"--config: unknown key {key!r} for {command}")
        if key in explicit:
            continue
        try:
            setattr(args, key.replace("-", "_"), types[key](raw))
        except ValueError as exc:
            raise UsageError(f"--config: bad value for {key!r}: {exc}") from exc


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolved_config(args: argparse.Namespace, command: str) -> list[tuple[str, str]]:
    pairs = []
    for flag, _, _, _ in _FLAGS[command]:
        value = getattr(args, flag.replace("-", "_"))
        if value is None:
            continue
        pairs.append((flag, _fmt_value(value)))
    return pairs


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_name() -> str:
    """BLAS name and version from numpy's build config, or "unknown"
    (numpy before 1.26 has no dict form of show_config)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _environment_line() -> str:
    """The numeric environment timing columns depend on."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in THREAD_VARS)
    return (f"numpy: {np.__version__}, blas: {_blas_name()}, "
            f"cpus: {os.cpu_count()}, threads: {threads}")


def _header_lines(args: argparse.Namespace, command: str) -> list[str]:
    pairs = _resolved_config(args, command)
    cmd = f"reflora {command} " + " ".join(f"--{k} {v}" for k, v in pairs)
    lines = [f"reflora {__version__}", f"command: {cmd}",
             "config: " + " ".join(f"{k}={v}" for k, v in pairs),
             _environment_line()]
    if hasattr(args, "seed"):
        lines.append(f"seed: {args.seed}")
    return lines


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _build_mode(args, problem_lipschitz: Optional[float]) -> refactor.RefactorMode:
    mode = args.mode
    root = args.root
    if root not in (refactor.ROOT_PLUS, refactor.ROOT_MINUS):
        raise UsageError(f"--root: expected plus or minus, got {root!r}")
    if mode not in ("balanced", "theorem-exact", "identity"):
        raise UsageError(f"--mode: unknown mode {mode!r}")
    if mode == "theorem-exact":
        lip = args.lipschitz if args.lipschitz is not None else problem_lipschitz
        if lip is None or lip <= 0:
            raise UsageError("--lipschitz: theorem-exact mode needs a positive "
                             "Lipschitz constant")
        return refactor.theorem_exact_mode(lip, root)
    if mode == "identity":
        return refactor.identity_mode()
    return refactor.balanced_mode()


def _check_format(args) -> None:
    if getattr(args, "format", "csv") != "csv":
        raise UsageError(f"--format: only csv is supported, got {args.format!r}")


def _check_run_flags(args, methods: Sequence[str], method_flag: str) -> None:
    """The flags `mf`, `linreg` and `compare` share, and their methods."""
    _check_format(args)
    for method in methods:
        if method not in optim.METHODS:
            raise UsageError(f"--{method_flag}: unknown method {method!r}")
    if args.optimizer not in optim.OPTIMIZERS:
        raise UsageError(f"--optimizer: unknown optimizer {args.optimizer!r}")
    if optim.METHOD_SCALEDGD in methods and args.optimizer != optim.GD:
        raise UsageError("--optimizer: scaledgd is a plain-GD baseline")
    if optim.METHOD_REFLORA_S in methods and args.mode == "identity":
        raise UsageError("--mode: identity makes reflora-s a no-op; "
                         "use --method lora instead")
    if args.rank < 1:
        raise UsageError("--rank: need at least 1")
    if args.warmup < 0:
        raise UsageError("--warmup: must be >= 0")
    if args.steps < 1:
        raise UsageError("--steps: need at least one iteration")
    if args.log_every < 1:
        raise UsageError("--log-every: must be >= 1")


def _build_problem(problem_kind: str, args) -> Problem:
    """The one instance a run or compare command trains on."""
    spec = harness.RunSpec(problem=problem_kind, m=args.m, n=args.n,
                           k=getattr(args, "k", 0), r=args.rank,
                           seed=args.seed, eta=1.0)
    return harness.build_problem(spec)


def _cmd_run(args, command: str) -> int:
    _check_run_flags(args, [args.method], "method")
    if args.eta == 0 and args.mode == "theorem-exact":
        raise UsageError("--eta: eta = 0 is the jump discontinuity of the "
                         "optimal refactoring; the bound minimizer is "
                         "undefined there")
    if args.eta <= 0:
        raise UsageError("--eta: optimizers need a positive learning rate "
                         "(bound-scan supports negative grids)")
    problem_kind = "mf" if command == "mf" else "linreg"
    problem = _build_problem(problem_kind, args)
    mode = _build_mode(args, problem.lipschitz)
    spec = harness.RunSpec(
        problem=problem_kind, m=args.m, n=args.n,
        k=getattr(args, "k", 0), r=args.rank, seed=args.seed, eta=args.eta,
        method=args.method, optimizer=args.optimizer, refactor_mode=mode,
        warmup_steps=args.warmup, iterations=args.steps,
        log_every=args.log_every, sigma_a=args.sigma_a, sigma_b=args.sigma_b,
        weight_decay=args.weight_decay, alpha=args.alpha)
    result = harness.run(spec, problem)
    out, close = _open_out(args.out)
    try:
        harness.write_trace_csv(out, result.records,
                                _header_lines(args, command))
    finally:
        if close:
            out.close()
    return 0


def _cmd_bound_scan(args) -> int:
    _check_format(args)
    if args.points < 2:
        raise UsageError("--points: need at least two grid points")
    if args.eta_min >= args.eta_max:
        raise UsageError("--eta-min: must be below --eta-max")
    if args.root not in (refactor.ROOT_PLUS, refactor.ROOT_MINUS):
        raise UsageError(f"--root: expected plus or minus, got {args.root!r}")
    spec = harness.BoundScanSpec(
        m=args.m, n=args.n, k=args.k, r=args.rank, seed=args.seed,
        eta_min=args.eta_min, eta_max=args.eta_max, points=args.points,
        sigma_a=args.sigma_a, sigma_b=args.sigma_b, root=args.root)
    rows = harness.bound_scan(spec)
    out, close = _open_out(args.out)
    try:
        harness.write_bound_scan_csv(out, rows, _header_lines(args, "bound-scan"))
    finally:
        if close:
            out.close()
    return 0


def _cmd_compare(args) -> int:
    if args.problem not in ("mf", "linreg"):
        raise UsageError(f"--problem: unknown problem {args.problem!r}")
    methods = _str_list(args.methods)
    etas = _float_list(args.etas)
    if not methods or not etas:
        raise UsageError("--methods/--etas: need at least one of each")
    _check_run_flags(args, methods, "methods")
    if any(eta <= 0 for eta in etas):
        raise UsageError("--etas: learning rates must be positive")
    problem = _build_problem(args.problem, args)
    mode = _build_mode(args, problem.lipschitz)
    specs = []
    for method in methods:
        for eta in etas:
            specs.append(harness.RunSpec(
                problem=args.problem, m=args.m, n=args.n, k=args.k,
                r=args.rank, seed=args.seed, eta=eta, method=method,
                optimizer=args.optimizer, refactor_mode=mode,
                warmup_steps=args.warmup, iterations=args.steps,
                log_every=args.log_every, sigma_a=args.sigma_a,
                sigma_b=args.sigma_b, weight_decay=args.weight_decay,
                alpha=args.alpha, label=f"{method}-eta{eta:g}"))
    table = harness.compare(specs, problem=problem)
    out, close = _open_out(args.out)
    try:
        harness.write_compare_csv(out, table, _header_lines(args, "compare"))
    finally:
        if close:
            out.close()
    return 0


def _cmd_overhead(args) -> int:
    _check_format(args)
    dims = _int_list(args.dims)
    ranks = _int_list(args.ranks)
    if not dims or not ranks:
        raise UsageError("--dims/--ranks: need at least one of each")
    if args.repeats < 10:
        raise UsageError("--repeats: need at least 10 for a stable median")
    rows = harness.overhead_probe(dims, ranks, args.repeats, args.seed)
    out, close = _open_out(args.out)
    try:
        harness.write_overhead_csv(out, rows, _header_lines(args, "overhead"))
    finally:
        if close:
            out.close()
    return 0


def _cmd_props_report(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials: must be >= 1")
    if getattr(args, "inject_fault", False):
        with props.inject_refactor_fault():
            results = props.run_all(args.seed, args.trials)
    else:
        results = props.run_all(args.seed, args.trials)
    out, close = _open_out(args.out)
    try:
        for line in _header_lines(args, "props-report"):
            out.write(f"# {line}\n")
        width = max(len(r.name) for r in results)
        out.write(f"{'invariant':<{width}}  {'residual':>12}  "
                  f"{'tolerance':>12}  status\n")
        failures = 0
        for r in results:
            status = "pass" if r.passed else "FAIL"
            failures += 0 if r.passed else 1
            out.write(f"{r.name:<{width}}  {r.residual:>12.3e}  "
                      f"{r.tolerance:>12.3e}  {status}\n")
        out.write(f"{len(results) - failures}/{len(results)} invariants pass\n")
    finally:
        if close:
            out.close()
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, args.command, argv)
        if args.command in ("mf", "linreg"):
            return _cmd_run(args, args.command)
        if args.command == "bound-scan":
            return _cmd_bound_scan(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "overhead":
            return _cmd_overhead(args)
        return _cmd_props_report(args)
    except UsageError as exc:
        print(f"reflora: error: {exc}", file=sys.stderr)
        return 2
    except (RefloraError, ValueError, OSError) as exc:
        print(f"reflora: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
