"""Record the answers the gate compares against: ``python3 bench/record.py``.

Writes ``bench/expected.json``:

* ``verify``: sha256 of the stdout of every verify operation of every
  scale, kept only when the process exits 0 with every verdict ``PASS``;
* ``pool``: the stdout of every query any seed can ask of a pool graph
  (thetas, grids and fixed G(n, 1/2) draws), local queries at every vertex.

Run it only on a commit whose outputs are known to be right: the gate then
holds later commits to byte-identical output.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main() -> int:
    out_dir = run.ROOT / ".bench_out" / "record"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = run.Runner(out_dir)
    expected: dict = {"verify": {}, "pool": {}}
    try:
        for scale in workloads.SCALES:
            for name in ("cograph-extremal", "graph-classes"):
                for op in workloads.build(name, scale, 0):
                    rec = runner.run(op, traced=False)
                    payload = json.loads(rec["out"])
                    verdicts = [v["status"] for s in payload.get("suites", [payload])
                                for v in s["verdicts"]]
                    if rec["code"] != 0 or set(verdicts) != {"PASS"}:
                        raise SystemExit(f"{op.label}: exit {rec['code']}, {verdicts}")
                    expected["verify"][op.expect] = gate.sha256(rec["out"])
        shapes = {(c, n, k) for c, n, k in workloads.FULL_MIX + workloads.TINY_MIX
                  if c in ("theta", "grid", "dense")}
        for cls, n, kind in sorted(shapes):
            for base in workloads.pool(cls, n):
                g6 = workloads.encode_graph6(base)
                vertices = range(n) if kind == "local" else [0]
                for v in vertices:
                    argv = workloads.query_argv(g6, kind, v)
                    out = runner.crosscheck(argv)
                    if out is None:
                        raise SystemExit(f"query {argv} failed")
                    expected["pool"][workloads.pool_key(base, kind, v)] = out.decode()
                print(f"recorded {cls} {n} {kind} {g6}", flush=True)
    finally:
        runner.stop()
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
