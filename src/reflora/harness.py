"""Seeded experiment runner.

Produces per-iteration trace records, the learning-rate bound scan on the
regression problem (where every constant of the quadratic upper bound is
computable in closed form), aligned multi-run comparisons, and per-step
timing probes. Divergence is data, not an error: a run whose loss blows up
keeps logging so the curve can be plotted.
"""

import time
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from . import optim, problems, refactor, rng
from .errors import RefloraError
from .linalg import Array, spectral_norm
from .optim import GradientPair, OptimizerState, StepConfig
from .problems import Problem
from .refactor import LowRankFactors, RefactorMode

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one optimization run."""

    problem: str                  # "mf" or "linreg"
    m: int
    n: int
    r: int
    seed: int
    eta: float
    method: str = optim.METHOD_LORA
    optimizer: str = optim.GD
    refactor_mode: RefactorMode = RefactorMode()
    warmup_steps: int = 1
    iterations: int = 2000
    log_every: int = 1
    k: int = 0                    # linreg sample count
    sigma_a: float = 1.0
    sigma_b: float = 0.0
    weight_decay: float = 0.0
    alpha: Optional[float] = None  # adapter scale: W = (alpha/r) A B^T

    def __post_init__(self):
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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


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
    denom = float(np.linalg.norm(ga))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(ga - gb) / denom)


def _all_finite(gp: GradientPair, loss: float) -> bool:
    # the factors need no check: until `run` latches to unchecked stepping
    # they come from the validating constructor (init_factors or a stepper)
    return bool(np.isfinite(loss)
                and np.all(np.isfinite(gp.g_a)) and np.all(np.isfinite(gp.g_b)))


def run(spec: RunSpec, problem: Optional[Problem] = None) -> RunResult:
    """Execute a run and return its trace.

    Logs the state at step 0, every log_every-th step, and the final step.
    The diverged flag latches once the loss exceeds 1e6 times the initial
    loss or stops being finite; stepping continues so the divergent curve
    is still recorded. `problem`, if given, must be the instance `spec`
    describes (as `compare` shares one); otherwise it is built here. Each
    step makes one `value_and_grad` call: the loss after step t and the
    gradient for step t + 1 are taken at the same factors.
    """
    if problem is None:
        problem = build_problem(spec.instance)
    scale = 1.0 if spec.alpha is None else spec.alpha / spec.r
    f = problems.init_factors(spec.m, spec.n, spec.r, spec.seed,
                              spec.sigma_a, spec.sigma_b)
    cfg = StepConfig(eta=spec.eta, method=spec.method, optimizer=spec.optimizer,
                     refactor_mode=spec.refactor_mode,
                     warmup_steps=spec.warmup_steps)
    state: Optional[OptimizerState] = None
    if spec.optimizer in (optim.ADAM, optim.ADAMW):
        state = OptimizerState.zeros(spec.m, spec.n, spec.r,
                                     weight_decay=spec.weight_decay)

    records: list[TraceRecord] = []
    diverged = False
    diverged_step: Optional[int] = None
    last_step_ns = 0

    def snapshot(t: int, loss: float, gp: GradientPair) -> TraceRecord:
        return TraceRecord(
            step=t,
            loss=loss,
            norm_a=float(np.linalg.norm(f.a)),
            norm_b=float(np.linalg.norm(f.b)),
            grad_norm_a=float(np.linalg.norm(gp.g_a)),
            grad_norm_b=float(np.linalg.norm(gp.g_b)),
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
                    f, state = optim.reflora_step(f, gp, cfg, state, t)
                except (RefloraError, ValueError, np.linalg.LinAlgError):
                    if not diverged:
                        raise
                    unchecked = True
            if unchecked:
                # past representable divergence: keep the trace alive with
                # raw GD arithmetic, which propagates inf/nan harmlessly
                f = LowRankFactors.unchecked(f.a - cfg.eta * gp.g_a,
                                             f.b - cfg.eta * gp.g_b)
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
    sigma_a: float = np.sqrt(10.0)
    sigma_b: float = np.sqrt(0.1)
    root: str = refactor.ROOT_PLUS

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.eta_min >= self.eta_max:
            raise ValueError("eta_min must be below eta_max")


@dataclass(frozen=True)
class BoundScanRow:
    eta: float
    mode: str
    true_loss: float
    upper_bound: float
    remainder: float  # exact value of the cubic term omitted from the bound


def eta_grid(spec: BoundScanSpec) -> Array:
    grid = np.linspace(spec.eta_min, spec.eta_max, spec.points)
    return grid[grid != 0.0]


def bound_scan(spec: BoundScanSpec) -> list[BoundScanRow]:
    """One refactored step per (eta, mode), with the exact loss and bound.

    The bound's S-independent constants are evaluated in closed form for
    the quadratic loss: with G the dense gradient at the current point and
    R = G B A^T G,

        const(eta) = loss_now + eta^2 <G, R> + (L eta^4 / 2) ||R||_F^2
                     - ||G||_F^2 / L + (m + n - 1) ||G||_2^2 / (2 L).

    The emitted upper bound is the truncated bound plus const(eta); the
    exact cubic term -L eta^3 <A S A^T G + G B S^{-1} B^T, R>, dropped by
    the truncation, is reported per row so bound-vs-loss checks can add it
    back.
    """
    problem, _ = problems.make_linreg(spec.m, spec.n, spec.k, spec.seed)
    f = problems.init_factors(spec.m, spec.n, spec.r, spec.seed,
                              spec.sigma_a, spec.sigma_b)
    lip = problem.lipschitz
    w0 = problem.full_weight(f)
    loss_now = problem.loss(w0)
    g = problem.grad(w0)
    g_spec = spectral_norm(g)
    g_fro2 = float(np.sum(g * g))
    r_term = g @ f.b @ (f.a.T @ g)
    # one kernel run serves every eta: the pair does not change
    kernel = refactor.balance(f)
    mode = RefactorMode(refactor.THEOREM_EXACT, lip, spec.root)

    rows: list[BoundScanRow] = []
    for eta in eta_grid(spec):
        const = (loss_now
                 + eta ** 2 * float(np.sum(g * r_term))
                 + 0.5 * lip * eta ** 4 * float(np.sum(r_term * r_term))
                 - g_fro2 / lip
                 + (spec.m + spec.n - 1) * g_spec ** 2 / (2.0 * lip))
        for mode_name in ("identity", "theorem-exact"):
            if mode_name == "identity":
                s = s_inv = np.eye(spec.r)
            else:
                res = refactor.optimal_s(kernel, float(eta), mode)
                s, s_inv = res.s_matrix, res.s_inverse
            # preconditioned step, then the exact loss at the new factors
            a_new = f.a - eta * (g @ f.b) @ s_inv
            b_new = f.b - eta * (g.T @ f.a) @ s
            true_loss = problem.loss(a_new @ b_new.T)
            bound = refactor.upper_bound_eval(f, s, float(eta), lip, g_spec,
                                              const)
            m_term = f.a @ s @ (f.a.T @ g) + g @ f.b @ s_inv @ f.b.T
            remainder = -lip * eta ** 3 * float(np.sum(m_term * r_term))
            rows.append(BoundScanRow(eta=float(eta), mode=mode_name,
                                     true_loss=true_loss, upper_bound=bound,
                                     remainder=remainder))
    return rows


# ---------------------------------------------------------------------------
# comparison

@dataclass
class CompareTable:
    columns: list[str]
    rows: list[list]


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
    member_columns = [c for c in TRACE_COLUMNS if c != "step"]
    columns = ["step"] + [f"{label}.{c}" for label in labels
                          for c in member_columns]

    rows = [[recs[0].step] + [getattr(rec, c) for rec in recs
                               for c in member_columns]
            for recs in zip(*(res.records for res in results))]
    return CompareTable(columns=columns, rows=rows)


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
    no m x n matrix is ever formed. The refactor-phase column isolates the
    per-step scale computation (the balanced matrix for the full method,
    the norm ratio for the scalar one, the refactor kernel that yields the
    Gram inverses for ScaledGD). Every timed call of a refactoring
    method runs the kernel once, as a step does.
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
            eta = 1e-3
            steppers = {
                name: lambda p, cfg=StepConfig(eta=eta, method=name):
                    optim.reflora_step(p, gp, cfg)
                for name in optim.METHODS
            }
            phases = {
                optim.METHOD_LORA: None,
                optim.METHOD_REFLORA: refactor.geometric_mean_s,
                optim.METHOD_REFLORA_S: lambda p: refactor.optimal_scalar(
                    p, eta, RefactorMode()),
                optim.METHOD_SCALEDGD: refactor.balance,
            }
            medians = {name: _median_time_ns(fn, f, repeats)
                       for name, fn in steppers.items()}
            base = medians[optim.METHOD_LORA]
            for name in optim.METHODS:
                phase_fn = phases[name]
                phase = (_median_time_ns(phase_fn, f, repeats)
                         if phase_fn else 0.0)
                rows.append(OverheadRow(
                    m=d, n=d, r=r, method=name,
                    median_step_ns=medians[name],
                    ratio_vs_lora=medians[name] / base if base else float("nan"),
                    refactor_phase_ns=phase,
                ))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def cells(records: Iterable, columns: Sequence[str]) -> Iterable[list]:
    """Each record's `columns` values, read by attribute name."""
    return ([getattr(rec, c) for c in columns] for rec in records)


def write_csv(out: TextIO, columns: Sequence[str], rows: Iterable[Sequence],
              header_lines: Sequence[str] = ()) -> None:
    """`# `-prefixed header lines, the column row, then one line per row."""
    for line in header_lines:
        out.write(f"# {line}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")
