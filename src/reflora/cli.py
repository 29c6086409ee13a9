"""Command-line front end.

Subcommands wrap the harness operations. One table, `_FLAGS`, gives each
flag its type, default, help and own check: an out-of-range, non-finite or
unknown value is exit 2 naming the flag, found before any instance is
built, and a runtime library error is exit 1. A flat key=value config file
supplies the flags' defaults, so a given flag wins. All randomness flows
from a single --seed, and every output file starts with comment lines
recording the tool version, the canonical command, the fully resolved
config, the numeric environment and the seed, so any output can be
regenerated from its own header and its timing columns read against the
machine that produced them.
"""

import argparse
import contextlib
import dataclasses
import math
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


class _Listed(list):
    """A comma-separated flag's items; prints as the text the user gave."""

    def __str__(self) -> str:
        return self.text


def _list_of(item):
    """argparse type for a comma-separated list (empty items are dropped)."""
    def parse(text: str) -> _Listed:
        items = _Listed(item(v) for v in text.split(",") if v != "")
        items.text = text
        return items
    parse.__name__ = f"{item.__name__} list"
    return parse


# a flag's own check: (predicate, what it requires); list flags apply it
# to every item
def _at_least(low: int):
    return (lambda v: v >= low), f"an integer >= {low}"


def _one_of(choices: Sequence[str]):
    return (lambda v: v in choices), "one of " + ", ".join(choices)


_FINITE = (math.isfinite, "a finite number")
_LEARNING_RATE = (lambda v: 0 < v < math.inf, "a finite positive learning "
                  "rate (eta = 0 is the bound minimizer's jump discontinuity)")
_METHOD = _one_of(tuple(optim.METHODS))
_ROOT = _one_of(refactor.ROOTS)

# flag tables per subcommand: (name, type, default, help, check or None);
# a choice flag's help is its check's requirement
_OUT_FLAG = ("out", str, "-", "output path, or - for stdout", None)

_RUN_FLAGS = [
    ("seed", int, 0, "base seed for all random streams", _at_least(0)),
    ("eta", float, 0.01, "learning rate", _LEARNING_RATE),
    ("method", str, "reflora", None, _METHOD),
    ("optimizer", str, "gd", None, _one_of(optim.OPTIMIZERS)),
    ("mode", str, "balanced", None, _one_of(refactor.MODES)),
    ("root", str, "plus", "root choice in theorem-exact modes", _ROOT),
    ("lipschitz", float, None,
     "gradient-Lipschitz constant for theorem-exact modes "
     "(defaults to the problem's exact constant)", None),
    ("warmup", int, 1, "plain-GD warmup steps while factors are degenerate",
     _at_least(0)),
    ("steps", int, 2000, "iterations", _at_least(1)),
    ("log-every", int, 1, "record every k-th step", _at_least(1)),
    ("weight-decay", float, 0.0, "adamw decoupled weight decay", _FINITE),
    ("alpha", float, None,
     "adapter scale: increment enters as (alpha/rank) A B^T; "
     "unset means factor 1", _FINITE),
    _OUT_FLAG,
]

_MF_FLAGS = [
    ("m", int, 128, "target rows", _at_least(1)),
    ("n", int, 100, "target columns", _at_least(1)),
    ("rank", int, 8, "factor rank", _at_least(1)),
    ("sigma-a", float, 1.0, "stddev of the A init", _FINITE),
    ("sigma-b", float, 0.0, "stddev of the B init (0 = zero init)", _FINITE),
]

_LINREG_FLAGS = [
    ("m", int, 2, "output dimension", _at_least(1)),
    ("n", int, 2, "input dimension", _at_least(1)),
    ("k", int, 2, "sample count", _at_least(1)),
    ("rank", int, 1, "factor rank", _at_least(1)),
    ("sigma-a", float, LINREG_SIGMA_A, "stddev of the A init", _FINITE),
    ("sigma-b", float, LINREG_SIGMA_B, "stddev of the B init", _FINITE),
]

_FLAGS = {
    "mf": _MF_FLAGS + _RUN_FLAGS,
    "linreg": _LINREG_FLAGS + _RUN_FLAGS,
    "bound-scan": _LINREG_FLAGS + [
        ("seed", int, 0, "base seed", _at_least(0)),
        ("eta-min", float, -0.5, "grid start", _FINITE),
        ("eta-max", float, 0.5, "grid end", _FINITE),
        ("points", int, 201, "grid points (exact zeros are dropped)",
         _at_least(2)),
        ("root", str, "plus", "root choice for the optimal scaling", _ROOT),
        _OUT_FLAG,
    ],
    "compare": [("problem", str, "mf", None,
                 _one_of(("mf", "linreg")))] + _MF_FLAGS + [
        # k >= 1 is a cross-flag rule here, since mf ignores k
        ("k", int, 2, "sample count (linreg only)", None),
        ("methods", _list_of(str), "lora,reflora,scaledgd",
         "comma-separated methods", _METHOD),
        ("etas", _list_of(float), "0.01", "comma-separated learning rates",
         _LEARNING_RATE),
    ] + [flag for flag in _RUN_FLAGS if flag[0] not in ("eta", "method")],
    "overhead": [
        ("dims", _list_of(int), "2048", "comma-separated square dimensions",
         _at_least(1)),
        ("ranks", _list_of(int), "8,32", "comma-separated ranks",
         _at_least(1)),
        ("repeats", int, 10, "timed repetitions per point (>= 10)",
         _at_least(10)),
        ("seed", int, 0, "probe seed", _at_least(0)),
        _OUT_FLAG,
    ],
    "props-report": [
        ("trials", int, 100, "sample count per invariant", _at_least(1)),
        ("seed", int, 0, "sampling seed", _at_least(0)),
        _OUT_FLAG,
    ],
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers, by command name."""
    parser = argparse.ArgumentParser(
        prog="reflora",
        description="Low-rank adapter refactoring benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, flags in _FLAGS.items():
        sub = commands[name] = subs.add_parser(name)
        sub.add_argument("--config", type=str, default=None,
                         help="flat key = value config file; flags override")
        for flag, ftype, default, help_text, check in flags:
            sub.add_argument(f"--{flag}", type=ftype, default=default,
                             help=help_text or check[1])
    return parser, commands


def _load_config(path: str, command: str) -> dict[str, str]:
    """The file's values by dest; each key must be one of the command's flags."""
    flags = {flag for flag, *_ in _FLAGS[command]}
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
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in flags:
                    raise UsageError(
                        f"--config: unknown key {key!r} for {command}")
                values[key.replace("-", "_")] = value
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    return values


def _check_flags(args: argparse.Namespace) -> None:
    """Each flag's own check from the table, then the rules that relate
    flags; all run before any instance is built."""
    for flag, _, _, _, check in _FLAGS[args.command]:
        value = getattr(args, flag.replace("-", "_"))
        if check is None or value is None:
            continue
        ok, requirement = check
        items = value if isinstance(value, list) else [value]
        if not items or not all(map(ok, items)):
            raise UsageError(f"--{flag}: expected {requirement}, got {value!r}")
    if hasattr(args, "mode"):
        methods = getattr(args, "methods", [getattr(args, "method", None)])
        if optim.METHOD_SCALEDGD in methods and args.optimizer != optim.GD:
            raise UsageError("--optimizer: scaledgd is a plain-GD baseline")
        if optim.METHOD_REFLORA_S in methods and \
                args.mode == refactor.IDENTITY:
            raise UsageError("--mode: identity makes reflora-s a no-op; "
                             "use --method lora instead")
        if args.mode == refactor.THEOREM_EXACT and \
                args.lipschitz is not None and not 0 < args.lipschitz < math.inf:
            raise UsageError("--lipschitz: theorem-exact mode needs a finite "
                             "positive Lipschitz constant")
    if hasattr(args, "rank") and args.rank > min(args.m, args.n):
        raise UsageError(f"--rank: {args.rank} exceeds min(m, n) = "
                         f"{min(args.m, args.n)}")
    if getattr(args, "problem", None) == "linreg" and args.k < 1:
        raise UsageError("--k: need at least 1")
    if hasattr(args, "eta_min") and args.eta_min >= args.eta_max:
        raise UsageError("--eta-min: must be below --eta-max")
    if hasattr(args, "ranks") and max(args.ranks) > min(args.dims):
        raise UsageError(f"--ranks: rank {max(args.ranks)} exceeds the "
                         f"smallest of --dims, {min(args.dims)}")


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolved_config(args: argparse.Namespace) -> list[tuple[str, str]]:
    pairs = []
    for flag, *_ in _FLAGS[args.command]:
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


def _header_lines(args: argparse.Namespace) -> list[str]:
    pairs = _resolved_config(args)
    cmd = f"reflora {args.command} " + " ".join(f"--{k} {v}" for k, v in pairs)
    return [f"reflora {__version__}", f"command: {cmd}",
            "config: " + " ".join(f"{k}={v}" for k, v in pairs),
            _environment_line(), f"seed: {args.seed}"]


@contextlib.contextmanager
def _open_out(path: str):
    """The output stream: the current sys.stdout for -, else the file."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as out:
            yield out


def _run_specs(args, problem_kind: str, methods: Sequence[str],
               etas: Sequence[float]) -> tuple[Problem, list[harness.RunSpec]]:
    """The one instance a run or compare command trains on, and one spec
    per (method, eta) on it."""
    k = getattr(args, "k", 0)
    problem = harness.build_problem(
        (problem_kind, args.m, args.n, k, args.rank, args.seed))
    lip = None
    if args.mode == refactor.THEOREM_EXACT:
        lip = args.lipschitz if args.lipschitz is not None else problem.lipschitz
    mode = refactor.RefactorMode(args.mode, lipschitz=lip, root=args.root)
    specs = [harness.RunSpec(
        problem=problem_kind, m=args.m, n=args.n, k=k, r=args.rank,
        seed=args.seed, eta=eta, method=method, optimizer=args.optimizer,
        refactor_mode=mode, warmup_steps=args.warmup, iterations=args.steps,
        log_every=args.log_every, sigma_a=args.sigma_a, sigma_b=args.sigma_b,
        weight_decay=args.weight_decay, alpha=args.alpha)
        for method in methods for eta in etas]
    return problem, specs


def _write_csv(args, columns: Sequence[str], rows) -> None:
    with _open_out(args.out) as out:
        harness.write_csv(out, columns, rows, _header_lines(args))


def _cmd_run(args) -> int:
    problem, (spec,) = _run_specs(args, args.command, [args.method], [args.eta])
    records = harness.run(spec, problem).records
    _write_csv(args, harness.TRACE_COLUMNS,
               harness.cells(records, harness.TRACE_COLUMNS))
    return 0


def _cmd_bound_scan(args) -> int:
    spec = harness.BoundScanSpec(
        m=args.m, n=args.n, k=args.k, r=args.rank, seed=args.seed,
        eta_min=args.eta_min, eta_max=args.eta_max, points=args.points,
        sigma_a=args.sigma_a, sigma_b=args.sigma_b, root=args.root)
    columns = ("eta", "mode", "true_loss", "upper_bound")
    _write_csv(args, columns, harness.cells(harness.bound_scan(spec), columns))
    return 0


def _cmd_compare(args) -> int:
    problem, specs = _run_specs(args, args.problem, args.methods, args.etas)
    table = harness.compare(specs, problem=problem)
    _write_csv(args, table.columns, table.rows)
    return 0


def _cmd_overhead(args) -> int:
    columns = [f.name for f in dataclasses.fields(harness.OverheadRow)]
    rows = harness.overhead_probe(args.dims, args.ranks, args.repeats,
                                  args.seed)
    _write_csv(args, columns, harness.cells(rows, columns))
    return 0


def _cmd_props_report(args) -> int:
    results = props.run_all(args.seed, args.trials)
    failures = sum(not r.passed for r in results)
    with _open_out(args.out) as out:
        for line in _header_lines(args):
            out.write(f"# {line}\n")
        width = max(len(r.name) for r in results)
        out.write(f"{'invariant':<{width}}  {'residual':>12}  "
                  f"{'tolerance':>12}  status\n")
        for r in results:
            status = "pass" if r.passed else "FAIL"
            out.write(f"{r.name:<{width}}  {r.residual:>12.3e}  "
                      f"{r.tolerance:>12.3e}  {status}\n")
        out.write(f"{len(results) - failures}/{len(results)} invariants pass\n")
    return 0 if failures == 0 else 1


_COMMANDS = {"mf": _cmd_run, "linreg": _cmd_run,
             "bound-scan": _cmd_bound_scan, "compare": _cmd_compare,
             "overhead": _cmd_overhead, "props-report": _cmd_props_report}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults: argparse types
            # them, and a flag given in any spelling it accepts wins
            commands[args.command].set_defaults(
                **_load_config(args.config, args.command))
            args = parser.parse_args(argv)
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: exit 2 on a bad flag, 0 on --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"reflora: error: {exc}", file=sys.stderr)
        return 2
    except (RefloraError, ValueError, OSError) as exc:
        print(f"reflora: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
