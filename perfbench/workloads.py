"""The benchmark's workloads and the correctness checks on their outputs.

A workload is a fixed list of `reflora` CLI operations whose arguments
derive from the benchmark seed. One round runs every operation once. The
benchmark repeats rounds, and with the same seed each operation's CSV body
must be byte-identical from round to round, apart from the `step_time_ns`
columns: `check` returns a digest of that body for the comparison.
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TOL = 1e-6    # a converging member must reach TOL x its initial loss

MF_SMALL_STEPS = 750
MF_LARGE_STEPS = 90
BOUND_SCAN_POINTS = 2001


@dataclass(frozen=True)
class Member:
    """One optimization trace inside an operation's CSV."""

    prefix: str       # column prefix: "" for `mf`, "<label>." for `compare`
    method: str
    optimizer: str
    converges: bool   # must reach TOL x its initial loss within the run

    @property
    def key(self) -> str:
        return f"{self.method}.{self.optimizer}"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str                     # "trace" or "bound-scan"
    rows: int = 0                 # expected CSV data rows
    members: tuple[Member, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # first problem instance, as (kind, m, n, k, r, sigma_a, sigma_b)
    instance: tuple
    cli_seed: int


def cli_seed(workload: str, seed: int) -> int:
    """The seed the program receives, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _mf_small(seed: int) -> tuple[Op, ...]:
    members = (("lora", "gd"), ("reflora", "gd"), ("reflora-s", "gd"),
               ("scaledgd", "gd"), ("lora", "adam"), ("reflora", "adam"),
               ("reflora-s", "adam"))
    # Steps to TOL: scaledgd/gd 600-630 over 300 seeds, reflora-s/adam up to
    # 270 over 200, reflora/gd and reflora-s/gd under 110. lora/gd has a heavy
    # tail (median 440, 4 of 300 seeds above 750, up to 1180); lora/adam
    # (458-685) and reflora/adam (690-1039) come near or past the end too.
    # Those three are not checked.
    slow = {("lora", "gd"), ("lora", "adam"), ("reflora", "adam")}
    return tuple(
        Op(argv=("mf", "--method", method, "--optimizer", opt,
                 "--m", "128", "--n", "100", "--rank", "8", "--eta", "0.01",
                 "--sigma-b", "0", "--log-every", "1",
                 "--steps", str(MF_SMALL_STEPS), "--seed", str(seed)),
           kind="trace", rows=MF_SMALL_STEPS + 1,
           members=(Member("", method, opt, (method, opt) not in slow),))
        for method, opt in members)


def _mf_large(seed: int) -> tuple[Op, ...]:
    methods = ("lora", "reflora", "reflora-s", "scaledgd")
    # reflora reaches TOL at step 59-61 on 79 of 80 seeds and at 65 on one;
    # reflora-s needs 77-124 on 20 seeds
    converging = {"reflora"}
    return (Op(argv=("compare", "--methods", ",".join(methods),
                     "--etas", "0.002", "--m", "1024", "--n", "1024",
                     "--rank", "8", "--sigma-b", "0", "--log-every", "1",
                     "--steps", str(MF_LARGE_STEPS), "--seed", str(seed)),
               kind="trace", rows=MF_LARGE_STEPS + 1,
               members=tuple(Member(f"{m}-eta0.002.", m, "gd", m in converging)
                             for m in methods)),)


def _bound_scan(seed: int) -> tuple[Op, ...]:
    grid = np.linspace(-0.5, 0.5, BOUND_SCAN_POINTS)
    return (Op(argv=("bound-scan", "--points", str(BOUND_SCAN_POINTS),
                     "--seed", str(seed)),
               kind="bound-scan", rows=2 * int(np.count_nonzero(grid))),)


# name -> (operations, first instance); why each exists is in BENCHMARK.json
WORKLOADS = {
    "mf-small": (_mf_small, ("mf", 128, 100, 0, 8, 1.0, 0.0)),
    "mf-large": (_mf_large, ("mf", 1024, 1024, 0, 8, 1.0, 0.0)),
    "bound-scan": (_bound_scan,
                   ("linreg", 2, 2, 2, 1, math.sqrt(10.0), math.sqrt(0.1))),
}


def build(name: str, seed: int) -> Workload:
    make_ops, instance = WORKLOADS[name]
    s = cli_seed(name, seed)
    return Workload(name=name, ops=make_ops(s), instance=instance, cli_seed=s)


# ---------------------------------------------------------------------------
# output checks

def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def body_without_timing(text: str) -> str:
    """CSV body with comment lines and `step_time_ns` columns removed."""
    header, rows = _table(text)
    keep = [i for i, col in enumerate(header)
            if col.rsplit(".", 1)[-1] != "step_time_ns"]
    return "\n".join(",".join(row[i] for i in keep if i < len(row))
                     for row in [header] + rows)


@dataclass
class Outcome:
    """What one operation's output showed."""

    errors: list[str] = field(default_factory=list)
    # sha256 of the CSV body without comments and step_time_ns columns
    body: str = ""
    # "method.optimizer" -> first step reaching TOL x initial loss, or
    # steps + 1 when it never does within the run
    steps_to_tol: dict = field(default_factory=dict)
    # "method.optimizer" -> per-step wall times in ns from the CSV
    step_ns: dict = field(default_factory=dict)
    csv_bytes: int = 0


def _finite(cells: list[str]) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def check(op: Op, code: Optional[int], stdout: str) -> Outcome:
    """Check one operation's exit code and output."""
    out = Outcome()
    if code != 0:
        out.errors.append(f"exit code {code}")
        return out

    out.csv_bytes = len(stdout.encode())
    header, rows = _table(stdout)
    if len(rows) != op.rows:
        out.errors.append(f"{len(rows)} rows, expected {op.rows}")
    if not rows or not all(len(row) == len(header) for row in rows):
        out.errors.append("empty or ragged CSV")
        return out
    if op.kind == "bound-scan":
        if {row[1] for row in rows if len(row) > 1} != {"identity", "theorem-exact"}:
            out.errors.append("bound-scan modes are not identity + theorem-exact")
        if not all(_finite([row[0], row[2], row[3]]) for row in rows):
            out.errors.append("non-finite bound-scan value")
    else:
        if not all(_finite(row) for row in rows):
            out.errors.append("non-finite trace value")
        col = {name: i for i, name in enumerate(header)}
        for member in op.members:
            key = member.key
            loss_col = col.get(member.prefix + "loss")
            time_col = col.get(member.prefix + "step_time_ns")
            if loss_col is None or time_col is None:
                out.errors.append(f"missing columns for {key}")
                continue
            losses = [float(row[loss_col]) for row in rows]
            hit = next((int(row[0]) for row, loss in zip(rows, losses)
                        if loss <= TOL * losses[0]), op.rows)
            out.steps_to_tol[key] = hit
            if member.converges and hit >= op.rows:
                out.errors.append(f"{key} did not reach {TOL:g} x its "
                                  "initial loss")
            # row t records the time of step t - 1; row 0 has none
            out.step_ns[key] = [int(row[time_col]) for row in rows[1:]]
    out.body = hashlib.sha256(body_without_timing(stdout).encode()).hexdigest()
    return out
