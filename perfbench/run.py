"""Benchmark of the maxmin-auction command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload is a fixed sequence of operations
drawn from the seed (see ``workloads.py``); an operation is one cold
``python -m maxmin_auction ...`` process with ``PYTHONPATH=src``, run one at a
time.  Every output is checked against the benchmark's own reference.

``--trace 0`` measures the end-to-end metrics with nothing traced: it times
``import maxmin_auction`` in fresh interpreters, then runs the sequence in
passes: at least two, and more while they fit in ``--seconds`` seconds.
``--trace 1`` runs one untraced pass and two traced passes, in which each
operation runs under ``trace_child.py``, and reports the per-module metrics,
the tracing overhead and the accuracy reached.  The two traced passes must
agree exactly on every work count.

The metric names and units are read from ``BENCHMARK.json``.  The last line
of stdout is one JSON object with keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it describe the host, every operation and
every metric.  ``correct`` is false when an operation exited 0 with an output
that fails its check, when two runs of one command print different stdout,
or when the traced passes disagree on a count.  Operations that fail in the
open (nonzero exit, traceback) are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from trace_child import TRACED

ROOT = Path(__file__).resolve().parent.parent
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0  # every run must be over well within 180 s
IMPORT_CODE = "import time; t = time.perf_counter(); import maxmin_auction; print(time.perf_counter() - t)"


@dataclass
class OpResult:
    op: workloads.Operation
    phase: str  # "pass-1", "pass-2", ..., "traced-1", "traced-2"
    wall_s: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str
    spans: str | None = None
    reasons: list[str] = field(default_factory=list)
    verdict: workloads.Verdict | None = None
    exited_ok_but_wrong: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


class Runner:
    """Runs operations one at a time under a deadline shared by the whole run."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.start = time.perf_counter()
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MAXMIN_SEED")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, op: workloads.Operation, phase: str, traced: bool = False) -> OpResult:
        self.count += 1
        spans = None
        if traced:
            spans = str(self.work / f"spans-{self.count}.json")
            cmd = [sys.executable, str(TRACE_CHILD), spans, str(self.count), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "maxmin_auction", *op.argv]
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS, not a running total.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        result = OpResult(op, phase, wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr, spans)
        classify(result)
        return result

    def import_time(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            env=self.env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_DEADLINE_S - self.elapsed()),
            check=True,
        )
        return float(proc.stdout.strip())


def classify(r: OpResult) -> None:
    """Fill in why the operation failed, if it did."""
    if r.exit_code != 0:
        r.reasons.append(f"exit {r.exit_code}")
    if "Traceback (most recent call last)" in r.stderr:
        r.reasons.append("traceback: " + r.stderr.strip().splitlines()[-1])
    try:
        out = workloads.parse_output(r.stdout)
    except ValueError:
        r.reasons.append("stdout is not a JSON object")
        return
    try:
        r.verdict = workloads.check_output(r.op, out)
    except (KeyError, TypeError, IndexError) as exc:
        r.reasons.append(f"output lacks {exc}")
        return
    r.reasons += r.verdict.reasons
    if r.op.out_rows is not None:
        r.reasons += workloads.check_out_csv(workloads.flag(r.op.argv, "--out"), r.op.out_rows)
    r.exited_ok_but_wrong = r.exit_code == 0 and bool(r.reasons)


def check_reproducible(results: list[OpResult]) -> bool:
    """Runs of the same command must print byte-identical stdout."""
    by_argv: dict[tuple, list[OpResult]] = {}
    for r in results:
        by_argv.setdefault(tuple(r.op.argv), []).append(r)
    same = True
    for group in by_argv.values():
        if len({r.stdout for r in group}) > 1:
            same = False
            for r in group:
                r.reasons.append("stdout differs between runs of this command")
    return same


def host_block() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
    }


def median(xs: list[float]) -> float | None:
    return statistics.median(xs) if xs else None


def succeeded_walls(results: list[OpResult]) -> list[float]:
    return [r.wall_s for r in results if not r.failed]


def accuracy(results: list[OpResult]) -> dict[str, float | None]:
    """Largest gap of each kind over the outputs that passed their checks."""
    out: dict[str, float | None] = {}
    for key in ("ub_gap", "adv_gap", "mc_rel_se"):
        vals = [getattr(r.verdict, key) for r in results if not r.failed and getattr(r.verdict, key) is not None]
        out[key] = max(vals) if vals else None
    return out


def aggregate_spans(results: list[OpResult]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time, errors and summed work counts."""
    agg: dict[str, dict[str, float]] = {}
    for r in results:
        try:
            with open(r.spans) as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            continue  # the child died before writing; the operation already failed
        child_s = [0.0] * len(spans)
        for span_id, parent, _op, _name, t0, t1, _err, _counts in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for span_id, _parent, _op, name, t0, t1, err, counts in spans:
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child_s[span_id]
            a["errors"] += err
            for k, v in counts.items():
                a[k] = a.get(k, 0) + v
    return agg


def counts_of(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every statistic but the self time: these must repeat exactly."""
    return {f"{n}.{k}": v for n, stats in agg.items() for k, v in stats.items() if k != "self_s"}


def print_ops(results: list[OpResult]) -> None:
    for r in results:
        status = "ok" if not r.failed else "FAILED (" + "; ".join(r.reasons) + ")"
        print(
            f"op {r.phase:<9} {r.op.label:<24} exit {r.exit_code}  {r.wall_s:8.3f} s  {r.rss_mb:7.1f} MB  "
            f"{status}\n    {' '.join(r.op.argv)}"
        )


def run_untraced(wl: workloads.Workload, runner: Runner, seconds: int) -> tuple[list[OpResult], dict]:
    setup: list[float] = []
    measure_start = time.perf_counter()
    passes: list[list[OpResult]] = []
    last = 0.0
    # At least two passes: every command runs twice, so its stdout can be
    # compared, and each gets a fastest time; more passes while the next one
    # should still end within the budget.
    while len(passes) < MIN_PASSES or time.perf_counter() - measure_start + last <= seconds:
        setup.append(runner.import_time())  # one per pass, spread over the run
        phase = f"pass-{len(passes) + 1}"
        passes.append([runner.run(op, phase) for op in wl.ops])
        last = sum(r.wall_s for r in passes[-1])
    results = [r for p in passes for r in p]
    reproducible = check_reproducible(results)
    # Each operation's time is its fastest pass: on a shared machine the CPU
    # speed drifts by tens of percent over seconds, and drift only adds time.
    fastest = [min(p[i].wall_s for p in passes) for i in range(len(wl.ops))]
    ok = [all(not p[i].failed for p in passes) for i in range(len(wl.ops))]
    walls = [w for w, good in zip(fastest, ok) if good]
    failed = sum(r.failed for r in results)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} imports"),
        "op_p50_s": (median(walls), f"median of {len(walls)} succeeded operations, each the fastest of {len(passes)} passes"),
        "run_s": (sum(fastest), f"{len(wl.ops)} operations, each the fastest of {len(passes)} passes"),
        "peak_rss_mb": (max(r.rss_mb for r in results), f"largest of {len(results)} children"),
        "ok_share": (sum(ok) / len(ok), f"{sum(ok)} of {len(ok)} operations succeeded in every pass"),
        "failed_share": (failed / len(results), f"{failed} of {len(results)} operations"),
    }
    for key, val in accuracy(results).items():
        values[key] = (val, "largest over checked outputs")
    return results, {"values": values, "reproducible": reproducible}


def run_traced(wl: workloads.Workload, runner: Runner) -> tuple[list[OpResult], dict]:
    plain = [runner.run(op, "pass-1") for op in wl.ops]
    traced = [[runner.run(op, f"traced-{i}", traced=True) for op in wl.ops] for i in (1, 2)]
    results = plain + traced[0] + traced[1]
    reproducible = check_reproducible(results)
    aggs = [aggregate_spans(t) for t in traced]
    counts = [counts_of(a) for a in aggs]
    count_diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
    plain_walls = succeeded_walls(plain)
    traced_walls = succeeded_walls(traced[0] + traced[1])
    values: dict[str, tuple] = {}
    for name in set(aggs[0]) | set(aggs[1]):
        for stat in set(aggs[0].get(name, {})) | set(aggs[1].get(name, {})):
            if stat == "self_s":
                v = statistics.mean(a.get(name, {}).get("self_s", 0.0) for a in aggs)
                values[f"{name}.self_s"] = (v, "mean over 2 traced passes")
            else:
                values[f"{name}.{stat}"] = (aggs[0].get(name, {}).get(stat, 0), "traced pass 1")
    failed = sum(r.failed for r in results)
    p50_plain = median(plain_walls)
    p50_traced = median(traced_walls)
    values["trace.op_p50_s"] = (p50_traced, f"median of {len(traced_walls)} traced operations")
    overhead = None if p50_plain is None or p50_traced is None else p50_traced - p50_plain
    values["trace.overhead_s"] = (overhead, f"minus untraced median of {len(plain_walls)}")
    values["trace.spans"] = (sum(a["calls"] for a in aggs[0].values()), "traced pass 1")
    values["ops.failed_share"] = (failed / len(results), f"{failed} of {len(results)} operations")
    for key, val in accuracy(plain).items():
        values[f"accuracy.{key}"] = (val, "largest over checked outputs")
    return results, {"values": values, "reproducible": reproducible, "count_mismatch": count_diff}


def metric_value(name: str, values: dict) -> float:
    """A listed metric's value.  A traced function that never ran reads 0, and
    so does an accuracy gap of a kind the workload prints no output for."""
    if name in values and values[name][0] is not None:
        return values[name][0]
    span = name.rsplit(".", 1)[0]
    traced_names = {f"{m}.{f}" for m, fs in TRACED.items() for f in fs} | {"import"}
    if (span in traced_names and name not in values) or name.startswith("accuracy."):
        return 0
    raise SystemExit(f"metric {name} has no value: no operation succeeded, or BENCHMARK.json lists an unknown metric")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "maxmin_auction" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'maxmin_auction'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    host = host_block()
    print("host " + json.dumps(host))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        wl = workloads.build(args.workload, args.seed, work)
        for path, text in wl.files.items():
            Path(path).write_text(text)
        print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(wl.ops)} operations")
        runner = Runner(work)
        if args.trace:
            results, info = run_traced(wl, runner)
        else:
            results, info = run_untraced(wl, runner, args.seconds)
    print_ops(results)

    values = info["values"]
    for name, (val, note) in sorted(values.items()):
        shown = "n/a" if val is None else f"{val:.6g}"
        print(f"metric {name} = {shown} ({note})")
    wrong = [r for r in results if r.exited_ok_but_wrong]
    correct = not wrong and info["reproducible"] and not info.get("count_mismatch")
    if info.get("count_mismatch"):
        print("count mismatch between traced passes: " + ", ".join(info["count_mismatch"]))
    failed = sum(r.failed for r in results)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "argv": [op.argv for op in wl.ops],
        "ops": [
            {"label": r.op.label, "phase": r.phase, "wall_s": r.wall_s, "exit": r.exit_code, "rss_mb": r.rss_mb, "failed": r.reasons}
            for r in results
        ],
        "metrics": {k: {"value": v, "note": n} for k, (v, n) in values.items()},
    }
    print("report " + json.dumps(report))
    metrics = {m["name"]: {"value": metric_value(m["name"], values), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
