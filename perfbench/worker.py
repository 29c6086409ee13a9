"""One round of a workload in a fresh process.

    python3 perfbench/worker.py <src dir> <workload> <seed> <trace 0|1> <spans csv>

Runs each of the workload's operations once through `reflora.cli.main`,
one after another, and checks each output. Prints one JSON line: per
operation its wall and CPU seconds and its `workloads.Outcome`, plus the
process's peak RSS. With trace 1 every layer is wrapped during the round,
restored after it, and the line also carries the per-layer metrics; spans
and counter events go to the spans CSV.
"""

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc

import layers
import workloads
from probe_setup import first_instance


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def operation(cli, op: workloads.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = None
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up per call, so a traced round reaches the wrapper
            code = cli.main(list(op.argv))
    except Exception:
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    outcome = workloads.check(op, code, out.getvalue())
    if outcome.errors:
        outcome.errors += err.getvalue().strip().splitlines()[-1:]
    return {"wall_s": wall, "cpu_s": cpu, **dataclasses.asdict(outcome)}


def loss_alloc_peak_mb(workload: workloads.Workload) -> float:
    """tracemalloc peak inside one loss_at_factors on the first instance."""
    problem, f = first_instance(*workload.instance, workload.cli_seed)
    tracemalloc.start()
    try:
        problem.loss_at_factors(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def write_spans(path: str, tracer) -> None:
    with open(path, "w") as out:
        out.write("sid,parent,name,thread,start_ns,end_ns\n")
        for s in tracer.spans():
            out.write(f"{s.sid},{s.parent},{s.name},{s.thread},{s.start},{s.end}\n")
        for kind, sid in tracer.events:
            out.write(f"-1,{sid},count.{kind},0,0,0\n")


def main(argv: list[str]) -> int:
    src, name, seed, trace, spans_path = argv
    sys.path.insert(0, src)
    from reflora import cli

    workload = workloads.build(name, int(seed))
    if trace != "1":
        ops = [operation(cli, op) for op in workload.ops]
        result = {"ops": ops}
    else:
        pristine = layers.targets()
        tracer = layers.instrument()
        try:
            ops = [operation(cli, op) for op in workload.ops]
        finally:
            tracer.restore()
        result = {"ops": ops,
                  "unrestored": layers.unrestored(pristine),
                  "layers": layers.span_metrics(tracer.spans(), tracer.events,
                                                tracer.labels)}
        result["layers"]["problems.loss.alloc_peak_mb"] = loss_alloc_peak_mb(workload)
        write_spans(spans_path, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
