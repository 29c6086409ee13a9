"""Seeded experiment runner.

Produces per-iteration trace records, the learning-rate bound scan on the
regression problem (where every constant of the quadratic upper bound is
computable in closed form), aligned multi-run comparisons, and per-step
timing probes. Divergence is data, not an error: a run whose loss blows up
keeps logging so the curve can be plotted.
"""

import math
import time
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence, TextIO

import numpy as np

from . import optim, problems, refactor, rng
from .errors import RefloraError
from .linalg import Array, spectral_norm
from .optim import GradientPair, OptimizerState, StepConfig
from .problems import Problem
from .refactor import LowRankFactors, RefactorMode

DIVERGENCE_FACTOR = 1e6

# default init scales of the linreg runs and the bound scan
LINREG_SIGMA_A = float(np.sqrt(10.0))
LINREG_SIGMA_B = float(np.sqrt(0.1))

# entries of the stacked residual in one block of the bound scan's loss
SCAN_BLOCK_ENTRIES = 2 ** 18


@dataclass(frozen=True, kw_only=True)
class RunSpec(StepConfig):
    """Everything needed to reproduce one optimization run: the step rule
    (the StepConfig fields), the instance, the init and the loop."""

    problem: str                  # "mf" or "linreg"
    m: int
    n: int
    r: int
    seed: int
    iterations: int = 2000
    log_every: int = 1
    k: int = 0                    # linreg sample count
    sigma_a: float = 1.0
    sigma_b: float = 0.0
    alpha: Optional[float] = None  # adapter scale: W = (alpha/r) A B^T

    def __post_init__(self):
        super().__post_init__()
        if self.problem not in ("mf", "linreg"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.iterations < 1 or self.log_every < 1:
            raise ValueError("iterations and log_every must be >= 1")
        if self.problem == "linreg" and self.k < 1:
            raise ValueError("linreg needs k >= 1")

    @property
    def instance(self) -> tuple:
        """The problem instance's key: (problem, m, n, k, r, seed)."""
        return (self.problem, self.m, self.n, self.k, self.r, self.seed)


@dataclass(frozen=True)
class TraceRecord:
    """One trace row; its fields, in order, are the trace CSV columns."""

    step: int
    loss: float
    norm_a: float
    norm_b: float
    grad_norm_a: float
    grad_norm_b: float
    balance_gap: float
    step_time_ns: int


TRACE_COLUMNS = {f.name: f.type for f in fields(TraceRecord)}  # name: type


@dataclass
class RunResult:
    spec: RunSpec
    records: list[TraceRecord]
    diverged: bool
    diverged_step: Optional[int]
    final_factors: LowRankFactors

    @property
    def initial_loss(self) -> float:
        return self.records[0].loss

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss


def build_problem(instance: tuple) -> Problem:
    """The problem instance with key (problem, m, n, k, r, seed)."""
    kind, m, n, k, r, seed = instance
    if kind == "mf":
        problem, _ = problems.make_mf(m, n, r, seed)
    else:
        problem, _ = problems.make_linreg(m, n, k, seed)
    return problem


def balance_gap(f: LowRankFactors) -> float:
    """Relative Gram mismatch ||A^T A - B^T B||_F / ||A^T A||_F of the pair."""
    ga = refactor.gram(f.a)
    gb = refactor.gram(f.b)
    denom = _norm(ga)
    if denom == 0.0:
        return 0.0
    return _norm(ga - gb) / denom


def _norm(x: Array) -> float:
    """||x||_F by np.linalg.norm(x)'s own formula, without its dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _all_finite(gp: GradientPair, loss: float) -> bool:
    # the factors need no check: every product the loss takes of them turns
    # an inf entry into +-inf or nan, so a non-finite factor makes the loss
    # non-finite and this check latches on it first
    return bool(math.isfinite(loss)
                and np.isfinite(gp.g_a).all() and np.isfinite(gp.g_b).all())


def run(spec: RunSpec, problem: Optional[Problem] = None) -> RunResult:
    """Execute a run and return its trace.

    Logs the state at step 0, every log_every-th step, and the final step.
    The diverged flag latches once the loss exceeds 1e6 times the initial
    loss or stops being finite; stepping continues so the divergent curve
    is still recorded; a step that then fails with a `RefloraError` or
    LAPACK's `LinAlgError` becomes a raw GD step, and any other error
    propagates. `problem`, if given, must be the instance `spec`
    describes (as `compare` shares one); otherwise it is built here. Each
    step makes one `value_and_grad` call: the loss after step t and the
    gradient for step t + 1 are taken at the same factors.
    """
    if problem is None:
        problem = build_problem(spec.instance)
    scale = 1.0 if spec.alpha is None else spec.alpha / spec.r
    f = problems.init_factors(spec.m, spec.n, spec.r, spec.seed,
                              spec.sigma_a, spec.sigma_b)
    state: Optional[OptimizerState] = None

    records: list[TraceRecord] = []
    diverged = False
    diverged_step: Optional[int] = None
    last_step_ns = 0

    def snapshot(t: int, loss: float, gp: GradientPair) -> TraceRecord:
        return TraceRecord(
            step=t,
            loss=loss,
            norm_a=_norm(f.a),
            norm_b=_norm(f.b),
            grad_norm_a=_norm(gp.g_a),
            grad_norm_b=_norm(gp.g_b),
            balance_gap=balance_gap(f),
            step_time_ns=last_step_ns,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        loss, gp = problem.value_and_grad(f, scale)
        initial_loss = loss
        unchecked = False
        for t in range(spec.iterations):
            if t % spec.log_every == 0:
                records.append(snapshot(t, loss, gp))
            t0 = time.perf_counter_ns()
            unchecked = unchecked or not _all_finite(gp, loss)
            if not unchecked:
                try:
                    f, state = optim.reflora_step(f, gp, spec, state, t)
                except (RefloraError, np.linalg.LinAlgError):
                    if not diverged:
                        raise
                    unchecked = True
            if unchecked:
                # past representable divergence: keep the trace alive with
                # raw GD arithmetic, which propagates inf/nan harmlessly
                f = LowRankFactors.unchecked(f.a - spec.eta * gp.g_a,
                                             f.b - spec.eta * gp.g_b)
            last_step_ns = time.perf_counter_ns() - t0
            loss, gp = problem.value_and_grad(f, scale)
            if not diverged and (not np.isfinite(loss)
                                 or loss > DIVERGENCE_FACTOR * initial_loss):
                diverged = True
                diverged_step = t + 1
        records.append(snapshot(spec.iterations, loss, gp))

    return RunResult(spec=spec, records=records, diverged=diverged,
                     diverged_step=diverged_step, final_factors=f)


# ---------------------------------------------------------------------------
# bound scan

@dataclass(frozen=True)
class BoundScanSpec:
    """Learning-rate scan of the true loss vs. the quadratic upper bound.

    Restricted to the regression problem, whose Lipschitz constant and all
    bound constants are exact. The grid never contains eta = 0 (jump
    discontinuity); any exact zero produced by the grid spacing is dropped.
    """

    m: int = 2
    n: int = 2
    k: int = 2
    r: int = 1
    seed: int = 0
    eta_min: float = -0.5
    eta_max: float = 0.5
    points: int = 201
    sigma_a: float = LINREG_SIGMA_A
    sigma_b: float = LINREG_SIGMA_B
    root: str = refactor.ROOT_PLUS

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.eta_min >= self.eta_max:
            raise ValueError("eta_min must be below eta_max")


@dataclass(frozen=True)
class BoundScan:
    """The bound scan as columns, one list per CSV column, in order."""

    eta: list[float]
    mode: list[str]
    true_loss: list[float]
    upper_bound: list[float]
    remainder: list[float]  # exact value of the cubic term omitted from the bound


BOUND_SCAN_COLUMNS = {f.name: f.type.__args__[0] for f in fields(BoundScan)}


def eta_grid(spec: BoundScanSpec) -> Array:
    grid = np.linspace(spec.eta_min, spec.eta_max, spec.points)
    return grid[grid != 0.0]


def bound_scan(spec: BoundScanSpec) -> BoundScan:
    """One refactored step per (eta, mode), with the exact loss and bound.

    Rows come per eta, `identity` (S = I) then `theorem-exact` (the bound
    minimizer). With G the dense gradient at the current point and
    R = G B A^T G, the bound's S-independent constants are, in closed form
    for the quadratic loss,

        const(eta) = c0 + c2 eta^2 + c4 eta^4,
        c0 = loss_now - ||G||_F^2 / L + (m + n - 1) ||G||_2^2 / (2 L),
        c2 = <G, R>,  c4 = (L / 2) ||R||_F^2.

    The emitted upper bound is the truncated bound plus const(eta); the
    exact cubic term it drops, -L eta^3 <A S A^T G + G B S^{-1} B^T, R>, is
    reported per row so bound-vs-loss checks can add it back.

    Each mode's S is gamma(eta) S0 on a fixed S0: S0 = I with gamma = 1,
    or the balanced S with `refactor._bound_scaling`'s gamma, one scalar
    call per eta. So every per-row quantity is scalar arithmetic on terms
    computed once per mode:

        g(gamma S0) = gamma tr(A^T A S0) + tr(B^T B S0^{-1}) / gamma,
        remainder   = -L eta^3 (gamma rho_a + rho_b / gamma),
                      rho_a = <A S0 A^T G, R>,  rho_b = <G B S0^{-1} B^T, R>,
        A' = A - (eta / gamma) P_a,  P_a = G B S0^{-1},
        B' = B - eta gamma P_b,      P_b = G^T A S0.

    The exact loss 0.5 ||Y - A' (B'^T X)||_F^2 is evaluated for a block of
    etas at once, with blocks sized so each stacked m x k residual holds
    about SCAN_BLOCK_ENTRIES entries; no m x n product is stacked. The
    kernel runs once, and the count of decompositions does not depend on
    the grid. `refactor.g_objective` and `upper_bound_eval` remain the
    per-point reference.
    """
    problem, inst = problems.make_linreg(spec.m, spec.n, spec.k, spec.seed)
    f = problems.init_factors(spec.m, spec.n, spec.r, spec.seed,
                              spec.sigma_a, spec.sigma_b)
    lip = problem.lipschitz
    w0 = f.product()
    loss_now = problem.loss(w0)
    g = problem.grad(w0)
    g_spec = spectral_norm(g)
    g_fro2 = float(np.sum(g * g))
    r_term = g @ f.b @ (f.a.T @ g)
    # one kernel run serves every eta: the pair does not change
    kernel = refactor.balance(f)
    mode = RefactorMode(refactor.THEOREM_EXACT, lip, spec.root)

    etas = eta_grid(spec)
    # summed in the order of the per-point evaluation
    const = (loss_now
             + etas ** 2 * float(np.sum(g * r_term))
             + 0.5 * lip * etas ** 4 * float(np.sum(r_term * r_term))
             - g_fro2 / lip
             + (spec.m + spec.n - 1) * g_spec ** 2 / (2.0 * lip))
    gb, ga = g @ f.b, g.T @ f.a
    rb, ra = r_term @ f.b, r_term.T @ f.a
    # two rows per eta, identity then theorem-exact: mode i fills rows i::2
    eta, rows = etas.tolist(), 2 * len(etas)
    scan = BoundScan([None] * rows, ["identity", "theorem-exact"] * len(eta),
                     [None] * rows, [None] * rows, [None] * rows)
    scan.eta[0::2] = scan.eta[1::2] = eta
    for i, (gamma, s, s_inv) in enumerate((
            (np.ones_like(etas), np.eye(spec.r), np.eye(spec.r)),
            (np.array([refactor._bound_scaling(kernel.c_tilde, e, mode)[0]
                       for e in eta]), kernel.s, kernel.s_inv))):
        t_a, t_b = refactor._g_terms(f, s)
        quad = gamma * t_a + t_b / gamma - 1.0 / (lip * etas)
        bound = 0.5 * lip * etas * etas * g_spec ** 2 * quad * quad + const
        p_a, p_b = gb @ s_inv, ga @ s
        # rho_a = <P_b, R^T A> and rho_b = <P_a, R B>: no m x n product
        rho_a, rho_b = float(np.sum(p_b * ra)), float(np.sum(p_a * rb))
        remainder = -lip * etas ** 3 * (gamma * rho_a + rho_b / gamma)
        true_loss = _stacked_loss(inst, f, etas / gamma, p_a,
                                  etas * gamma, p_b)
        scan.true_loss[i::2] = true_loss.tolist()
        scan.upper_bound[i::2] = bound.tolist()
        scan.remainder[i::2] = remainder.tolist()
    return scan


def _stacked_loss(inst: problems.LinRegInstance, f: LowRankFactors,
                  wa: Array, p_a: Array, wb: Array, p_b: Array) -> Array:
    """0.5 ||Y - A_i (B_i^T X)||_F^2 for each A_i = A - wa[i] P_a and
    B_i = B - wb[i] P_b, in blocks of SCAN_BLOCK_ENTRIES residual entries."""
    x, y = inst.x, inst.y
    per_block = max(1, SCAN_BLOCK_ENTRIES // y.size)
    out = np.empty(len(wa))
    for lo in range(0, len(wa), per_block):
        sl = slice(lo, lo + per_block)
        a = f.a - wa[sl, None, None] * p_a
        bt_x = (f.b - wb[sl, None, None] * p_b).transpose(0, 2, 1) @ x
        e = y - a @ bt_x
        out[sl] = 0.5 * np.sum(e * e, axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# comparison

@dataclass
class CompareTable:
    columns: dict[str, type]  # `step`, then each member's trace columns
    data: list[list]          # one list per column, one entry per logged step


def _run_label(spec: RunSpec, index: int, seen: set) -> str:
    label = f"{spec.method}-eta{spec.eta:g}"
    if label in seen:
        label = f"{label}#{index}"
    seen.add(label)
    return label


def compare(specs: Sequence[RunSpec],
            problem: Optional[Problem] = None) -> CompareTable:
    """Run several specs on the same problem instance, side by side.

    All specs must share the problem kind, dimensions, and seed, and the
    iteration count and logging interval, so every member logs the same
    steps and row i holds each member's i-th record. The instance,
    `problem` if given (it must be the one the specs describe), is built
    at most once and shared, read-only, by every member. Members
    run one after another, and each is deterministic.
    """
    if not specs:
        raise ValueError("compare needs at least one spec")
    if len({(s.instance, s.iterations, s.log_every) for s in specs}) > 1:
        raise ValueError("compare specs must share the problem instance "
                         "(kind, dims, seed), iterations and log_every")
    if problem is None:
        problem = build_problem(specs[0].instance)
    results = [run(s, problem) for s in specs]

    seen: set = set()
    labels = [_run_label(s, i, seen) for i, s in enumerate(specs)]
    members = [c for c in TRACE_COLUMNS if c != "step"]
    columns = {"step": TRACE_COLUMNS["step"]}
    data = columns_of(results[0].records, ["step"])
    for label, res in zip(labels, results):
        columns.update((f"{label}.{c}", TRACE_COLUMNS[c]) for c in members)
        data += columns_of(res.records, members)
    return CompareTable(columns=columns, data=data)


# ---------------------------------------------------------------------------
# timing probe

@dataclass(frozen=True)
class OverheadRow:
    m: int
    n: int
    r: int
    method: str
    median_step_ns: float
    ratio_vs_lora: float
    refactor_phase_ns: float


def _median_time_ns(fn, f: LowRankFactors, repeats: int) -> float:
    """Median time of fn(f) over `repeats` calls."""
    fn(f)  # warm pass: CPU caches, allocator
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(f)
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times))


def overhead_probe(dims: Sequence[int], ranks: Sequence[int],
                   repeats: int = 10, seed: int = 0) -> list[OverheadRow]:
    """Median per-step wall time by method on synthetic square problems.

    Gradient pairs are synthetic, so only stepper arithmetic is timed and
    no m x n matrix is ever formed. The refactor-phase column times the
    method's `optim.METHODS` entry under the stepper's own config: the
    preconditioner a step computes (S and S^-1 for the full method, the
    scalar s, the Gram inverses for ScaledGD; for `lora` the entry's
    constant return, a fraction of a microsecond). Every timed call of a
    refactoring method runs the kernel (ScaledGD: its R-factor stage) once.
    """
    if repeats < 10:
        raise ValueError("repeats must be at least 10")
    gen = rng.stream(seed, rng.STREAM_PROBE)
    rows: list[OverheadRow] = []
    for d in dims:
        for r in ranks:
            f = LowRankFactors(gen.standard_normal((d, r)),
                               gen.standard_normal((d, r)))
            gp = GradientPair(gen.standard_normal((d, r)),
                              gen.standard_normal((d, r)))
            cfgs = {name: StepConfig(eta=1e-3, method=name)
                    for name in optim.METHODS}
            medians = {name: _median_time_ns(
                lambda p: optim.reflora_step(p, gp, cfg), f, repeats)
                for name, cfg in cfgs.items()}
            base = medians[optim.METHOD_LORA]
            for name, cfg in cfgs.items():
                phase = _median_time_ns(lambda p: optim.METHODS[name](p, cfg),
                                        f, repeats)
                rows.append(OverheadRow(
                    m=d, n=d, r=r, method=name,
                    median_step_ns=medians[name],
                    ratio_vs_lora=medians[name] / base if base else float("nan"),
                    refactor_phase_ns=phase,
                ))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

# a cell's text by its column type: ints exactly, strings as they are,
# floats to 17 significant digits, which round-trip exactly
CELL_FORMATS = {int: "%d", str: "%s", float: "%.17g"}


def columns_of(rows: Sequence, names: Iterable[str]) -> list[list]:
    """Each named attribute of the rows, as one list per name."""
    return [[getattr(row, name) for row in rows] for name in names]


def write_csv(out: TextIO, columns: Mapping[str, type],
              data: Sequence[Sequence], header_lines: Sequence[str] = ()) -> None:
    """`# `-prefixed header lines, the column row, then one line per row:
    `columns` maps name to cell type, `data` has one sequence per column.
    Each row goes through one template of the columns' `CELL_FORMATS`;
    a name count unlike the column count, or a ragged column, is a
    ValueError, raised before anything is written."""
    if len(data) != len(columns):
        raise ValueError(f"{len(data)} data columns for {len(columns)} names")
    row = ",".join(CELL_FORMATS[kind] for kind in columns.values()) + "\n"
    body = "".join([row % cells for cells in zip(*data, strict=True)])
    out.write("".join(f"# {line}\n" for line in header_lines)
              + ",".join(columns) + "\n")
    out.write(body)
