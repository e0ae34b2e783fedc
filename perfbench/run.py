"""Benchmark of the latinmagic CLI.

    python3 perfbench/run.py --workload interactive|census|oracle \
        --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/latinmagic`.  With --trace 0 the
workload's calls run as `python -m latinmagic` child processes, one at a time
(a closed loop with one client), in whole blocks until at least --seconds
have passed; the run reports the end-to-end metrics from their CPU times,
each scaled by the speed of their core at that moment, as a probe on the
same core measures it (see measure).  With --trace 1 a fixed
number of the same blocks is replayed in this process through
`latinmagic.cli.run`, once plain and once with spans, and the run reports the
per-layer metrics.  Every output passes the gate in gate.py either way.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.  The
lines before it name each metric with its unit and hold the run record.
Spans and a full result file go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gate import canonical
from probe import children_cpu_seconds, read_samples
from reference import GOLDENS
from spans import Tracer, instrument
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21
# Times are scaled to a core on which `python -c pass` takes this much CPU.
REFERENCE_START_S = 0.08
SPEED_WINDOW_S = 1.0  # probe timings this close to a timing set its speed factor
NEAREST = 3  # fewest probe timings a speed factor rests on
PROBE_LEAD_S = 1.0  # the probe runs this long before the first timing
OP_TIMEOUT_S = 150
STAGES = (
    "construct.family_figure",
    "construct.diagonal_constraints",
    "construct.build_square",
    "model.evaluate",
    "verify.verify_magic",
    "enumeration.canonicalize",
    "cli.parse_square",
    "cli.render",
)
COMMANDS = ("gen", "verify", "constraints", "families", "enumerate", "oracle")


def git_sha() -> str:
    """HEAD's commit from the .git directory, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def write_goldens() -> dict[str, str]:
    """The paper's squares as grid files for `verify PATH`; name -> path."""
    paths = {}
    for name, cells in GOLDENS.items():
        path = OUT / f"golden_{name}.txt"
        path.write_text("\n".join(" ".join(map(str, row)) for row in cells) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 500):
        terms = (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        )
        for term in terms:
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return fraction


def beta_cdf(a: float, b: float, x: float) -> float:
    """P(X <= x) for X ~ Beta(a, b): the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all the sorted samples.

    The weights are those a Beta(q(n+1), (1-q)(n+1)) variable gives to each
    n-th of [0, 1].  A single sorted sample can sit where one kind of call
    ends and the next begins (in `census`, the median falls where the calls
    that are mostly interpreter start end), and then swings from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def gated(op, code: int, out: str, err: str, failures: list[str]) -> int:
    """Squares the op produced by the gate's count, or 0 with the failure recorded."""
    try:
        return op.check(code, out, err)
    except Exception as exc:  # output of any shape counts as a failure, never stops the run
        failures.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        return 0


# --- untraced: child processes, end-to-end metrics ---------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def child_seconds(args: list[str], env) -> float:
    """CPU time of `python ARGS` in a fresh interpreter."""
    before = children_cpu_seconds()
    subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, check=True, capture_output=True, timeout=OP_TIMEOUT_S
    )
    return children_cpu_seconds() - before


def adjusted(samples: list[tuple[float, float]], timing: tuple[float, float, float]) -> float:
    """A timing's CPU seconds, scaled to a core on which a bare start takes REFERENCE_START_S.

    A timing is (begin, end, CPU seconds).  The factor comes from the median
    of the probe's timings made from SPEED_WINDOW_S before it began to as
    long after it ended; should the probe have fallen behind, its NEAREST
    timings closest in time stand in.
    """
    begin, end, seconds = timing

    def distance(sample):
        return max(begin - sample[0], sample[0] - end, 0.0)

    near = [sample[1] for sample in samples if distance(sample) <= SPEED_WINDOW_S]
    if len(near) < NEAREST:
        near = [cpu for _, cpu in sorted(samples, key=distance)[:NEAREST]]
    return seconds * REFERENCE_START_S / statistics.median(near)


@contextlib.contextmanager
def speed_probe(path: Path, env):
    """Run probe.py on this process's core; yields a function that reads its timings so far."""
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(path)], env=env, cwd=ROOT)
    try:
        time.sleep(PROBE_LEAD_S)
        yield lambda: read_samples(path)
    finally:
        proc.terminate()
        proc.wait()


def run_child(op, env) -> tuple[float, int, str, str]:
    """One CLI call as a child process: (CPU seconds, exit code, stdout, stderr)."""
    before = children_cpu_seconds()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "latinmagic", *op.argv],
            input=op.stdin.encode("utf-8"), env=env, cwd=ROOT,
            capture_output=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return children_cpu_seconds() - before, -1, "", f"timed out after {OP_TIMEOUT_S} s"
    elapsed = children_cpu_seconds() - before
    return elapsed, proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace")


def timings(setup: list[float], durations: list[float], squares: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": percentile(durations, 0.5) * 1e3,
        "op_p90_ms": percentile(durations, 0.9) * 1e3,
        "squares_per_s": squares / sum(durations),
    }


def measure(workload: str, seed: int, seconds: float, goldens) -> tuple[dict, dict]:
    """Child-process run: speed-adjusted end-to-end metrics, unadjusted ones in the detail.

    Each import and call is timed by its CPU time, user plus system, which
    for this single-threaded program on an idle machine is its wall time.
    A shared host slows a core by a third and more, for seconds to hours at a
    time, as neighbours load it.  So this process and its children keep to
    one core, a probe times bare interpreter starts on that core all through
    the run, and each timing is scaled to the probe's reference speed (see
    adjusted).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    child_seconds(["-c", "import latinmagic.cli"], env)  # compiles bytecode on a fresh checkout
    blocks, _ = WORKLOADS[workload]
    imports: list[tuple[float, float, float]] = []  # (begin, end, CPU seconds) of each import
    timed: list[tuple[float, float, float]] = []  # (begin, end, CPU seconds) of each call
    failures: list[str] = []
    squares = 0
    with speed_probe(OUT / f"probe-{workload}-seed{seed}.tsv", env) as probe_samples:
        for _ in range(SETUP_REPEATS):
            begin = time.monotonic()
            elapsed = child_seconds(["-c", "import latinmagic.cli"], env)
            imports.append((begin, time.monotonic(), elapsed))
        start = time.monotonic()
        for block in blocks(seed, goldens):
            for op in block:
                begin = time.monotonic()
                elapsed, code, out, err = run_child(op, env)
                timed.append((begin, time.monotonic(), elapsed))
                squares += gated(op, code, out, err, failures)
            if time.monotonic() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # before the probe ends
        time.sleep(PROBE_LEAD_S)
        samples = probe_samples()
    durations = [elapsed for _, _, elapsed in timed]
    setup_raw = [elapsed for _, _, elapsed in imports]
    detail = {
        "attempted": len(timed),
        "failures": failures,
        "squares": squares,
        "unadjusted": timings(setup_raw, durations, squares),
        "op_timings": timed,
        "setup_timings": imports,
    }
    calls = [adjusted(samples, timing) for timing in timed]
    setup = [adjusted(samples, timing) for timing in imports]
    return {**timings(setup, calls, squares), "peak_rss_mb": peak_rss_mb}, detail


# --- traced: in-process replay, per-layer metrics -------------------------------------

def call_in_process(op, cli, tracer: Tracer | None = None) -> tuple[int, int, str, str]:
    """One op through cli.run in this process: (ns inside cli.run, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.begin("cli.run." + op.argv[0]) if tracer else None
            start = time.perf_counter_ns()
            try:
                code = cli.run(list(op.argv))
            except Exception:
                code = -1
                traceback.print_exc()
            finally:
                elapsed = time.perf_counter_ns() - start
                if tracer:
                    tracer.end(span)
    finally:
        sys.stdin = saved_stdin
    return elapsed, code, out.getvalue(), err.getvalue()


def layer_metrics(tracer: Tracer, traced_ns: int, plain_ns: int) -> dict:
    stats = tracer.stats()

    def get(name):
        return stats.get(name, (0, 0, 0, 0))

    values = {}
    for name in STAGES:
        calls, _, self_ns, _ = get(name)
        values[name + ".us"] = self_ns / calls / 1e3 if calls else 0.0
        values[name + ".calls"] = calls
    for verdict in ("magic", "semimagic", "notmagic"):
        values["verify.verdict." + verdict] = tracer.counts["verify.verdict." + verdict]
    _, oracle_ns, _, _ = get("enumeration.oracle_search")
    _, found = tracer.oracle_result
    values["enumeration.oracle_search.s"] = oracle_ns / 1e9
    values["enumeration.oracle_search.found"] = len(found)
    values["enumeration.oracle.classes"] = len({canonical(square.cells) for square in found})
    _, _, solve_ns, _ = get("construct.solve_assignments")
    values["construct.solve_assignments.s"] = solve_ns / 1e9
    values["construct.solve_assignments.yielded"] = tracer.counts["construct.solve_assignments.yielded"]
    firsts = tracer.first_yield_ns
    values["construct.solve_assignments.first_us"] = statistics.median(firsts) / 1e3 if firsts else 0.0
    for command in COMMANDS:
        calls, total_ns, _, _ = get("cli.run." + command)
        values[f"cli.run.{command}.ms"] = total_ns / calls / 1e6 if calls else 0.0
    _, census_ns, _, covered_ns = get("enumeration.census")
    values["enumeration.census.s"] = census_ns / 1e9
    values["enumeration.census.covered_ratio"] = covered_ns / census_ns if census_ns else 0.0
    values["trace.overhead_ratio"] = traced_ns / plain_ns - 1
    return values


def trace(workload: str, seed: int, goldens) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    from latinmagic import cli

    blocks, count = WORKLOADS[workload]
    ops = [op for block in itertools.islice(blocks(seed, goldens), count) for op in block]
    tracer = Tracer()
    busy_ns = {False: 0, True: 0}
    failures = []
    # Each op runs once plain and once traced, alternating which goes first,
    # so that drift in machine load falls on both sides of the overhead ratio.
    for k, op in enumerate(ops):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            with instrument(tracer) if traced else contextlib.nullcontext():
                elapsed, code, out, err = call_in_process(op, cli, tracer if traced else None)
            busy_ns[traced] += elapsed
            gated(op, code, out, err, failures)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
    detail = {"attempted": 2 * len(ops), "failures": failures, "spans": len(tracer.starts)}
    traced_ns, plain_ns = busy_ns[True], busy_ns[False]
    return layer_metrics(tracer, traced_ns, plain_ns), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latinmagic" / "cli.py").is_file():
        print(f"error: no latinmagic sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    goldens = write_goldens()
    record = run_record(args)
    if args.trace:
        values, detail = trace(args.workload, args.seed, goldens)
    else:
        values, detail = measure(args.workload, args.seed, args.seconds, goldens)
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = detail["attempted"], len(detail["failures"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, **detail}, indent=1), encoding="utf-8"
    )
    for failure in detail["failures"]:
        print("gate failure:", failure, file=sys.stderr)
    print("run", json.dumps(record, ensure_ascii=False))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in detail.get("unadjusted", {}).items():
        print(f"{name} unadjusted = {value:.6g} {metrics[name]['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed the gate)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
