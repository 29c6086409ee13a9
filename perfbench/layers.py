"""Which reflora functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. The traced run wraps every public
module-level function of each layer, the methods of `Problem` and its
subclasses, `LowRankFactors.is_full_rank` and `LowRankFactors.unchecked`
(the raw-GD fallback after divergence), and counts calls of
`numpy.linalg.svd`, `eigh` and `eigvalsh` without timing them.

Counts are per round (one pass over the workload's operations), so they
repeat exactly from run to run; times are per round or per call.
"""

import importlib
import inspect
import statistics
from collections import Counter, defaultdict

import numpy as np

from tracer import Span, Tracer, self_times

LAYERS = ("cli", "harness", "optim", "refactor", "linalg", "problems")

MEMBERS = (("lora", "gd"), ("reflora", "gd"), ("reflora-s", "gd"),
           ("scaledgd", "gd"), ("lora", "adam"), ("reflora", "adam"),
           ("reflora-s", "adam"))
METHODS = ("lora", "reflora", "reflora-s", "scaledgd")

STEPPERS = frozenset({"optim.lora_gd_step", "optim.reflora_step",
                      "optim.reflora_s_step", "optim.scaledgd_step"})
BUILDS = frozenset({"problems.make_mf", "problems.make_linreg"})
LOSS_NAMES = frozenset({"loss", "loss_at_factors"})
GRAD_NAMES = frozenset({"grad", "grad_pair"})
LAPACK = (("svd", np.linalg, "svd"), ("eigh", np.linalg, "eigh"),
          ("eigh", np.linalg, "eigvalsh"))


def _run_label(spec, *args, **kwargs) -> tuple[str, str]:
    return spec.method, spec.optimizer


def instrument() -> Tracer:
    """A tracer with every layer of the imported reflora package wrapped.

    The caller must call `restore()` on it (or use it as a context manager).
    """
    tracer = Tracer(annotators={"harness.run": _run_label})
    modules = [importlib.import_module(f"reflora.{layer}") for layer in LAYERS]
    try:
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    tracer.wrap(module, attr, f"{layer}.{attr}")
        problems = importlib.import_module("reflora.problems")
        for cls in (problems.Problem, *problems.Problem.__subclasses__()):
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    tracer.wrap(cls, attr, f"problems.{cls.__name__}.{attr}")
        factors = importlib.import_module("reflora.refactor").LowRankFactors
        tracer.wrap(factors, "is_full_rank", "refactor.LowRankFactors.is_full_rank")
        tracer.wrap(factors, "unchecked", "refactor.LowRankFactors.unchecked")
        for kind, owner, attr in LAPACK:
            tracer.count(owner, attr, kind)
        tracer.share([importlib.import_module("reflora"), *modules])
    except BaseException:
        tracer.restore()
        raise
    return tracer


def targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, original object) for everything `instrument` patches."""
    with instrument() as tracer:
        return tracer.patched()


def unrestored(snapshot: list[tuple[object, str, object]]) -> list[str]:
    """Names whose current object is not the one in `snapshot`."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in snapshot
            if vars(owner).get(attr) is not original]


# ---------------------------------------------------------------------------
# metrics

def _us_p50(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0


def _ancestor_maps(spans: list[Span], labels: dict) -> tuple[dict, dict, dict]:
    """Per span id: outermost stepper, enclosing balance_gap, run label.

    Spans are sorted by id and a parent always opens before its children,
    so each parent's entry exists before its children are visited.
    """
    stepper, gap, run = {}, {}, {}
    for s in spans:
        up = stepper.get(s.parent)
        stepper[s.sid] = s.sid if up is None and s.name in STEPPERS else up
        up = gap.get(s.parent)
        gap[s.sid] = s.sid if up is None and s.name == "harness.balance_gap" else up
        run[s.sid] = labels.get(s.sid) or run.get(s.parent)
    return stepper, gap, run


def _per_span_counts(events, owner: dict) -> dict[int, Counter]:
    counts: dict[int, Counter] = defaultdict(Counter)
    for kind, sid in events:
        target = owner.get(sid)
        if target is not None:
            counts[target][kind] += 1
    return counts


def span_metrics(spans: list[Span], events: list[tuple[str, int]],
                 labels: dict) -> dict[str, float]:
    """Per-layer metrics computed from the spans of one traced round."""
    self_ns = self_times(spans)
    by_id = {s.sid: s for s in spans}
    stepper, gap, run = _ancestor_maps(spans, labels)

    def dur(s: Span) -> int:
        return s.end - s.start

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def layer_self_s(layer: str) -> float:
        return sum(self_ns[s.sid] for s in spans
                   if s.name.split(".", 1)[0] == layer) / 1e9

    def outermost(layer: str, family: frozenset) -> list[Span]:
        def member(s):
            return (s is not None and s.name.startswith(layer + ".")
                    and s.name.rsplit(".", 1)[1] in family)
        return [s for s in spans if member(s) and not member(by_id.get(s.parent))]

    m: dict[str, float] = {}
    builds = [s for s in spans if s.name in BUILDS]
    m["problems.build.calls"] = len(builds)
    m["problems.build.s"] = sum(map(dur, builds)) / 1e9
    losses = outermost("problems", LOSS_NAMES)
    m["problems.loss.calls"] = len(losses)
    m["problems.loss.us.p50"] = _us_p50([dur(s) for s in losses])
    m["problems.grad.us.p50"] = _us_p50(
        [dur(s) for s in outermost("problems", GRAD_NAMES)])
    m["problems.self_s"] = layer_self_s("problems")

    steppers = [s for s in spans if stepper[s.sid] == s.sid]
    n_steps = len(steppers)
    for fn in ("optimal_s", "c_tilde", "optimal_scalar"):
        m[f"refactor.{fn}.us.p50"] = _us_p50([dur(s) for s in named(f"refactor.{fn}")])
    m["refactor.self_s"] = layer_self_s("refactor")
    for fn, name in (("geometric_mean_s", "refactor.geometric_mean_s"),
                     ("is_full_rank", "refactor.LowRankFactors.is_full_rank")):
        m[f"refactor.{fn}.calls_per_step"] = (
            len(named(name)) / n_steps if n_steps else 0.0)

    m["linalg.self_s"] = layer_self_s("linalg")
    m["linalg.nuclear_norm.us.p50"] = _us_p50(
        [dur(s) for s in named("linalg.nuclear_norm")])
    step_counts = _per_span_counts(events, stepper)
    per_member: dict[tuple, dict[str, list[int]]] = defaultdict(
        lambda: {"svd": [], "eigh": []})
    for s in steppers:
        if run[s.sid] is not None:
            for kind in ("svd", "eigh"):
                per_member[run[s.sid]][kind].append(step_counts[s.sid][kind])
    for method, opt in MEMBERS:
        for kind in ("svd", "eigh"):
            values = per_member.get((method, opt), {}).get(kind, [])
            m[f"linalg.{kind}_per_step.{method}.{opt}"] = (
                float(statistics.median(values)) if values else 0.0)
    gap_counts = _per_span_counts(events, gap)
    per_method: dict[str, list[int]] = defaultdict(list)
    for s in named("harness.balance_gap"):
        if run[s.sid] is not None:
            per_method[run[s.sid][0]].append(gap_counts[s.sid]["svd"])
    for method in METHODS:
        values = per_method.get(method, [])
        m[f"linalg.svd_per_snapshot.{method}"] = (
            float(statistics.median(values)) if values else 0.0)

    m["optim.self_s"] = layer_self_s("optim")
    warmup = [s for s in named("optim.lora_gd_step")
              if stepper[s.sid] != s.sid
              or (run[s.sid] is not None and run[s.sid][0] != "lora")]
    m["optim.fallback.calls"] = (
        len(warmup) + len(named("refactor.LowRankFactors.unchecked")))

    gaps = named("harness.balance_gap")
    m["harness.balance_gap.calls"] = len(gaps)
    m["harness.balance_gap.us.p50"] = _us_p50([dur(s) for s in gaps])
    m["harness.run.self_s"] = sum(self_ns[s.sid] for s in named("harness.run")
                                  ) / 1e9
    m["harness.write_csv.s"] = sum(
        dur(s) for s in spans
        if s.name.startswith("harness.write_") and s.name.endswith("_csv")
    ) / 1e9
    compares = named("harness.compare")
    compare_ids = {s.sid for s in compares}
    member_runs = [s for s in named("harness.run") if s.parent in compare_ids]
    compare_ns = sum(map(dur, compares))
    m["harness.compare.overlap"] = (
        sum(map(dur, member_runs)) / compare_ns if compare_ns else 0.0)
    m["cli.self_s"] = layer_self_s("cli")
    return m
