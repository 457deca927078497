"""Self-check of the benchmark at tiny sizes: ``python3 bench/selfcheck.py``.

Checks that
1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` emits, with the
   same units, and that ``predictions.json`` cites only those metrics;
2. a tiny run of every workload, untraced and traced, prints a last line
   with exactly the contract's keys, every metric with a unit, and no
   failure, and that the traced counts agree with the workload definition;
3. the tracer's wrappers reach every namespace that imports a wrapped
   function and put every original back;
4. the gate rejects corrupted output of every kind it checks.

Exits 0 when everything holds, 1 with a list of problems otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gate
import run
import workloads

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_declarations() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END, f"end_to_end {declared} != emitted {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = run.per_layer_units()
    expect(declared == emitted,
           f"per_layer differs: {sorted(set(declared) ^ set(emitted))}")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workload names differ from workloads.WORKLOADS")
    known = set(run.END_TO_END) | set(emitted)
    for row in json.loads((run.BENCH / "predictions.json").read_text())["map"]:
        for name in row["layer_metrics"] + row["should_move"]:
            expect(name.split(" ")[0] in known, f"predictions.json cites unknown {name!r}")
        for w in row["on"] + row["not_on"]:
            expect(w in workloads.WORKLOADS, f"predictions.json cites unknown workload {w!r}")


def check_tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=600)
            what = f"{name} trace {trace}"
            expect(done.returncode == 0, f"{what}: exit {done.returncode}: {done.stderr[-300:]}")
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append(f"{what}: last line is not JSON")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0, f"{what}: not correct")
            want = run.per_layer_units() if trace else run.END_TO_END
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, f"{what}: metric names or units differ")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: a metric value is not a number")
            if trace and name == "cograph-extremal":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                items = sum(op.items for op in workloads.cograph_extremal("tiny"))
                expect(m["verify.extremal_search.items"] == items,
                       f"{what}: extremal_search.items {m['verify.extremal_search.items']} "
                       f"!= {items}")
                expect(m["cotree.format_cotree.calls"] > m["cotree.canonicalize.calls"] > 0,
                       f"{what}: cotree layers not traced")
            if trace and name == "graph-classes":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                classes = sum(op.items for op in workloads.graph_classes("tiny"))
                expect(m["enumeration.canonical_graph.calls"] >= classes > 0,
                       f"{what}: canonical_graph.calls "
                       f"{m['enumeration.canonical_graph.calls']} < {classes}")


def check_wrappers() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    t = run.tracer.Tracer("selfcheck")
    modules = run.tracer._modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    t.install()
    by = {m.__name__: m for m in modules}
    for mod, fn in [("cotree", "format_cotree"), ("enumeration", "format_cotree"),
                    ("verify", "format_cotree"), ("cotree", "canonicalize"),
                    ("enumeration", "canonicalize"), ("verify", "phi_cotree"),
                    ("cli", "phi_cotree"), ("cli", "generate"), ("verify", "generate")]:
        m = by[f"cographmean.{mod}"]
        expect(getattr(m, fn) is not before[(m.__name__, fn)], f"{mod}.{fn} not wrapped")
    t.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, f"wrappers not restored: {changed}")


def check_gate() -> None:
    out_dir = run.ROOT / ".bench_out" / "selfcheck"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = run.Runner(out_dir)
    expected = json.loads((run.BENCH / "expected.json").read_text())
    g = gate.Gate(expected, runner.crosscheck)
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, "tiny", 3):
                rec = runner.run(op, traced=False)
                out = rec["out"]
                expect(g.check(op, rec["code"], out) is None, f"{op.label} rejected")
                expect(g.check(op, 1, out) is not None, f"{op.label}: exit 1 accepted")
                corrupt = [out[:-2] + bytes([out[-2] ^ 1]) + out[-1:], out + b"\n"]
                if op.check == "verify":
                    corrupt.append(out.replace(b'"PASS"', b'"FAIL"'))
                for bad in corrupt:
                    expect(g.check(op, 0, bad) is not None, f"{op.label}: corruption accepted")
    finally:
        runner.stop()


def main() -> int:
    check_declarations()
    check_wrappers()
    check_gate()
    check_tiny_runs()
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
