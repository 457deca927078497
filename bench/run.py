"""Benchmark for cographmean: exhaustive sweeps and subset scans, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh ``python3 -m cographmean.cli`` process on the
source tree next to this directory (``src/``); nothing is installed.
Operations run closed-loop with one client: each starts after the previous
one exits. Running each of a workload's operations once is a pass. After
the first pass, the rest of ``--seconds`` is planned as more passes and
extra runs of the short operations, made interleaved (see ``run_timed``).
Each operation's timing is its mean over its runs, and the pass-level
metrics are built from those means.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
passes, then the same operations through ``bench/tracer.py``, checks that
each traced stdout is byte-identical to the untraced one, and prints the
per-layer metrics. Every output is checked by ``gate.py``; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (environment, every operation, spans) go to
``.bench_out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
SETUP_OP = workloads.Op(argv=["mean", "L"], check="setup", label="setup")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "query_p50_s": "s",
    "query_tail_s": "s",
}

LAYERS = [f"{m}.{f}" for m, f, _ in tracer.TARGETS]
WITH_CHILDREN = ("cli.main", "verify.extremal_search", "enumeration.generate",
                 "cotree.canonicalize", "cotree.parse_cotree", "cotree.graph_to_cotree")
WITH_ITEMS = ("verify.extremal_search", "enumeration.generate",
              "enumeration.enumerate_caterpillars")
SCANS = ("poly.phi_bruteforce", "poly.phi_local_bruteforce")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in WITH_CHILDREN:
            units[f"{name}.self_s"] = "s"
        if name in WITH_ITEMS:
            units[f"{name}.items"] = "count"
        if name in SCANS:
            units[f"{name}.masks"] = "count"
            units[f"{name}.useful_ratio"] = "ratio"
    units["cotree.graph_to_cotree.useful_ratio"] = "ratio"
    units["cli.stdout_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def calibration_s() -> float:
    """Median time of a fixed stdlib-only loop: a gauge of host speed."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(perf_counter() - t0)
    return statistics.median(times)


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout's own repository; None where it has none."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Runner:
    """Starts CLI processes, times them with wait4 and keeps their output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0
        self.live: dict[int, subprocess.Popen] = {}
        self.cross: dict[tuple, bytes | None] = {}

    def _start(self, argv: list[str], traced: bool) -> tuple[subprocess.Popen, Path, Path]:
        self.count += 1
        base = self.out_dir / f"op{self.count:05d}"
        out, spans = base.with_suffix(".out"), base.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "cographmean.cli", *argv]
        with open(out, "wb") as fh, open(base.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=err, cwd=ROOT, env=self.env)
        self.live[proc.pid] = proc
        return proc, out, spans

    def run(self, op: workloads.Op, traced: bool) -> dict:
        """Run one operation to its end and return its record."""
        t0 = perf_counter()
        proc, out, spans = self._start(op.argv, traced)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        del self.live[proc.pid]
        return {
            "op": op,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
            "out": out.read_bytes(),
            "spans": spans if traced else None,
        }

    def crosscheck(self, argv: list[str]) -> bytes | None:
        """Stdout of an untimed reference query, or None if it failed."""
        key = tuple(argv)
        if key not in self.cross:
            rec = self.run(workloads.Op(argv=argv, check=""), traced=False)
            self.cross[key] = rec["out"] if rec["code"] == 0 else None
        return self.cross[key]

    def stop(self) -> None:
        for proc in self.live.values():
            proc.kill()
            proc.wait()
        self.live.clear()


class SetupProbe:
    """Times fresh ``mean L`` processes spread over the whole run, at most
    one per ``every`` seconds, so that the median set-up time does not rest
    on one moment of the host's speed."""

    def __init__(self, runner: Runner, every: float):
        self.runner, self.every = runner, every
        self.records: list[dict] = []
        self.last = float("-inf")

    def __call__(self, force: bool = False) -> None:
        if force or perf_counter() - self.last >= self.every:
            self.records.append(self.runner.run(SETUP_OP, traced=False))
            self.last = perf_counter()


def run_timed(runner: Runner, ops: list[workloads.Op], budget: float,
              before_op) -> list[list[dict]]:
    """Untraced runs of each operation, for ``budget`` seconds.

    One pass first, which gives each operation's duration. The time left is
    planned as whole passes, as many as fit; what remains after them goes
    to the operations with the least time planned so far. The planned runs
    are then made interleaved, each operation's runs spread evenly over the
    rest of the run, so that short operations see the same mix of host
    speeds as long ones. A run that would end after the deadline is left
    out. ``before_op`` is called before each run, outside its timed region.
    Returns each operation's records.
    """
    deadline = perf_counter() + budget
    runs: list[list[dict]] = [[] for _ in ops]

    def once(i: int) -> None:
        before_op()
        runs[i].append(runner.run(ops[i], traced=False))

    for i in range(len(ops)):
        once(i)
    took = [recs[0]["wall"] for recs in runs]
    left = deadline - perf_counter()
    passes = max(0, int(left // sum(took)))
    plan = [passes] * len(ops)
    left -= passes * sum(took)
    planned = [(1 + passes) * t for t in took]
    while True:
        fits = [i for i in range(len(ops)) if took[i] <= left]
        if not fits:
            break
        i = min(fits, key=lambda i: planned[i])
        plan[i] += 1
        planned[i] += took[i]
        left -= took[i]

    done = [0] * len(ops)
    while True:
        now = perf_counter()
        todo = [i for i in range(len(ops)) if done[i] < plan[i] and now + took[i] <= deadline]
        if not todo:
            return runs
        # the k-th run of operation i is due at (k + phase) / plan[i] of the
        # way through; phases differ, so that long operations fall apart
        i = min(todo, key=lambda i: ((done[i] + (i + 0.5) / len(ops)) / plan[i], -took[i]))
        once(i)
        done[i] += 1


def run_passes(runner: Runner, ops: list[workloads.Op],
               budget: float) -> tuple[list, list]:
    """Untraced and traced passes until the next one would end after ``budget``
    seconds. Each operation runs plain and then traced, back to back, so
    that both runs see the same host speed."""
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append([])
        traced.append([])
        for op in ops:
            plain[-1].append(runner.run(op, traced=False))
            traced[-1].append(runner.run(op, traced=True))
        now = perf_counter()
        if now - start + (now - began) > budget:
            return plain, traced


# ---------------------------------------------------------------------------
# gate and metrics
# ---------------------------------------------------------------------------


def judge(check: gate.Gate, records: list[dict]) -> list[str]:
    """Gate every record; mark failures on the records."""
    for rec in records:
        rec["error"] = check.check(rec["op"], rec["code"], rec["out"])
    return [f"{r['op'].label}: {r['error']}" for r in records if r["error"]]


def tail_percentile(n: int) -> float:
    """The highest percentile of n durations with at least ten beyond it;
    the maximum (100) when there are fewer than eleven."""
    return 100.0 * (n - 10) / n if n >= 11 else 100.0


def tail(durations: list[float]) -> float:
    d = sorted(durations)
    return d[-11] if len(d) >= 11 else d[-1]


def pass_wall(pass_: list[dict]) -> float:
    return sum(r["wall"] for r in pass_)


def end_to_end(runs: list[list[dict]], setup: list[float],
               sweep: bool) -> tuple[dict, dict]:
    """Metrics of one pass, built from each operation's mean over its runs.

    The host switches between a fast and a slow state every few seconds, so
    a median of a handful of short runs jumps between the two; a mean over
    runs spread across the whole run does not. A query is one operation,
    whose latency is the mean of its runs, or on a sweep the whole pass;
    the percentiles are taken over the queries of a pass.
    """
    mean, med = statistics.fmean, statistics.median
    per_op = [mean(r["wall"] for r in recs) for recs in runs]
    wall = sum(per_op)
    latency = [wall] if sweep else per_op
    metrics = {
        "setup_s": med(setup),
        "wall_s": wall,
        "cpu_s": sum(mean(r["cpu"] for r in recs) for recs in runs),
        "items_per_s": sum(recs[0]["op"].items for recs in runs) / wall,
        "peak_rss_mb": max(r["rss_kb"] for recs in runs for r in recs) / 1024,
        "query_p50_s": med(latency),
        "query_tail_s": tail(latency),
    }
    notes = {"runs_per_op": [len(recs) for recs in runs],
             "queries_per_pass": len(latency),
             "query_tail_percentile": tail_percentile(len(latency))}
    return metrics, notes


def layer_metrics(reports: list[dict], overhead: float) -> dict:
    totals: dict[str, dict] = {}
    for rep in reports:
        for name, t in rep["totals"].items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for k, v in t.items():
                acc[k] += v
    m: dict[str, float] = {}
    for name in LAYERS:
        t = totals.get(name) or dict.fromkeys(tracer.Totals.__slots__, 0)
        m[f"{name}.calls"] = t["calls"]
        m[f"{name}.s"] = t["s"]
        if name in WITH_CHILDREN:
            m[f"{name}.self_s"] = t["self_s"]
        if name in WITH_ITEMS:
            m[f"{name}.items"] = t["items"]
        if name in SCANS:
            m[f"{name}.masks"] = t["masks"]
            m[f"{name}.useful_ratio"] = t["useful"] / t["masks"] if t["masks"] else 0.0
    g2c = totals.get("cotree.graph_to_cotree", {})
    m["cotree.graph_to_cotree.useful_ratio"] = (
        g2c["useful"] / g2c["calls"] if g2c.get("calls") else 0.0)
    # extremal_search does not count its items itself: they are the items
    # of the generate spans it consumed
    m["verify.extremal_search.items"] = sum(
        span[5].get("items", 0)
        for rep in reports for span in rep["spans"]
        if span[0] == "enumeration.generate" and span[3] >= 0
        and rep["spans"][span[3]][0] == "verify.extremal_search")
    m["cli.stdout_bytes"] = sum(rep["stdout_bytes"] for rep in reports)
    m["trace.overhead_s"] = overhead
    return m


def write_trace(path: Path, reports: list[dict]) -> None:
    """One JSON line per span, times in seconds since the epoch."""
    keys = ("name", "start", "end", "parent", "run_id", "attrs", "busy_s", "fine")
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            shift = rep["epoch"] - rep["origin"]
            for span in rep["spans"]:
                row = dict(zip(keys, span))
                for k in ("start", "end"):
                    if row[k] is not None:
                        row[k] += shift
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="'all' runs every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="tiny sizes, for bench/selfcheck.py")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cographmean" / "cli.py").is_file():
        print(f"error: no cographmean source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        args.workload = name
        codes.append(run_workload(args))
    return max(codes)


def run_workload(args: argparse.Namespace) -> int:
    expected = json.loads((BENCH / "expected.json").read_text())
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "scale": args.scale,
        "loadavg_start": loadavg(),
        "calibration_s_start": calibration_s(),
    }
    runner = Runner(out_dir)
    check = gate.Gate(expected, runner.crosscheck)
    ops = workloads.build(args.workload, args.scale, args.seed)
    probe = SetupProbe(runner, every=args.seconds / SETUP_SPAWNS)
    try:
        # the first process compiles the package's bytecode; users pay that once
        runner.run(SETUP_OP, traced=False)
        if args.trace:
            plain, traced = run_passes(runner, ops, args.seconds)
            records = [r for pass_ in plain + traced for r in pass_]
        else:
            runs = run_timed(runner, ops, args.seconds, probe)
            while len(probe.records) < SETUP_SPAWNS:
                probe(force=True)
            records = [r for recs in runs for r in recs]
        failures = judge(check, records)
    finally:
        runner.stop()
    setup = probe.records
    for rec in setup:
        rec["error"] = check.check(SETUP_OP, rec["code"], rec["out"])
        if rec["error"]:
            failures.append(f"setup: {rec['error']}")

    notes: dict = {}
    if args.trace:
        for plain_pass, pass_ in zip(plain, traced):
            for rec, plain_rec in zip(pass_, plain_pass):
                if rec["out"] != plain_rec["out"]:
                    rec["error"] = "traced stdout differs from untraced stdout"
                    failures.append(f"{rec['op'].label}: {rec['error']}")
        per_pass, all_reports = [], []
        for plain_pass, pass_ in zip(plain, traced):
            reports = [json.loads(r["spans"].read_text())
                       for r in pass_ if r["spans"].is_file()]
            overhead = pass_wall(pass_) - pass_wall(plain_pass)
            per_pass.append(layer_metrics(reports, overhead))
            all_reports += reports
        write_trace(out_dir / "trace.jsonl", all_reports)
        units = per_layer_units()
        values = {name: statistics.median(p[name] for p in per_pass) for name in units}
        notes = {"passes": len(traced), "plain_wall_s": [pass_wall(p) for p in plain],
                 "traced_wall_s": [pass_wall(p) for p in traced]}
    else:
        units = END_TO_END
        values, notes = end_to_end(runs, [r["wall"] for r in setup],
                                   args.workload in workloads.SWEEPS)

    records += setup
    attempted, failed = len(records), sum(1 for r in records if r.get("error"))
    env.update(loadavg_end=loadavg(), calibration_s_end=calibration_s())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {
        "env": env, "notes": notes, "failures": failures, "metrics": metrics,
        "operations": [
            {"label": r["op"].label, "argv": r["op"].argv, "wall_s": r["wall"],
             "cpu_s": r["cpu"], "rss_kb": r["rss_kb"], "code": r["code"],
             "stdout_sha256": gate.sha256(r["out"]), "error": r.get("error")}
            for r in records
        ],
    }
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        extra = ""
        if name == "query_tail_s":
            extra = (f" (p{notes['query_tail_percentile']:.4g}; "
                     f"queries per pass: {notes['queries_per_pass']})")
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if failed == attempted:
        print("error: every operation failed; no result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
