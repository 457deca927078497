"""Traced CLI process: ``python3 bench/tracer.py SPANS_FILE CLI_ARGS...``.

Runs ``cographmean.cli.main(CLI_ARGS)`` with spans around the public
functions of ``cli``, ``verify``, ``enumeration``, ``cotree``, ``poly`` and
``graph``. Each wrapped name is rebound in every module namespace that
holds it (``format_cotree`` lives in ``cotree``, ``enumeration``, ``verify``
and the package), so calls between modules are seen too. Nothing in the
program changes; the wrappers are removed again before the process ends.

Spans stay in memory and are written to SPANS_FILE as one JSON object at
exit. Functions called hundreds of thousands of times (``format_cotree``,
``phi_cotree``, ...) get no span of their own: their calls and time are
added to the totals and to the nearest enclosing span's ``fine`` map.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from time import perf_counter

MODULES = ("graph", "cotree", "poly", "enumeration", "verify", "cli")

# (module, function, kind). Kinds: "span" records one span per call;
# "fine" only aggregates; "recursive" aggregates and counts inner calls in
# ``calls`` but times only the outermost one; "generator" records one span
# per call whose time is the time spent inside next().
TARGETS = (
    ("cli", "main", "span"),
    ("verify", "extremal_search", "span"),
    ("enumeration", "generate", "generator"),
    ("enumeration", "enumerate_caterpillars", "generator"),
    ("enumeration", "canonical_graph", "fine"),
    ("cotree", "canonicalize", "recursive"),
    ("cotree", "format_cotree", "recursive"),
    ("cotree", "parse_cotree", "span"),
    ("cotree", "cotree_to_graph", "fine"),
    ("cotree", "graph_to_cotree", "span"),
    ("poly", "phi_cotree", "fine"),
    ("poly", "phi_local_cotree", "fine"),
    ("poly", "phi_bruteforce", "span"),
    ("poly", "phi_local_bruteforce", "span"),
    ("poly", "global_mean", "fine"),
    ("graph", "parse_graph6", "fine"),
    ("graph", "emit_graph6", "fine"),
)


def _modules() -> list:
    pkg = importlib.import_module("cographmean")
    return [pkg] + [importlib.import_module(f"cographmean.{m}") for m in MODULES]


def _attrs(name: str, args: tuple) -> dict:
    """Span attributes taken from the first positional argument, if any."""
    try:
        if name in ("verify.extremal_search", "enumeration.generate"):
            spec = args[0]
            out = {"family": getattr(spec.family, "value", spec.family), "order": spec.order}
            if name == "enumeration.generate":
                out["shard"] = "%d/%d" % tuple(spec.shard)
            return out
        if name == "enumeration.enumerate_caterpillars":
            return {"order": args[0]}
        if name in ("poly.phi_bruteforce", "poly.phi_local_bruteforce",
                    "cotree.graph_to_cotree"):
            return {"order": args[0].order}
    except (IndexError, AttributeError):
        pass
    return {}


class Totals:
    __slots__ = ("calls", "s", "self_s", "items", "masks", "useful")

    def __init__(self):
        self.calls = 0
        self.s = self.self_s = 0.0
        self.items = self.masks = self.useful = 0


class Tracer:
    """Wraps the target functions and records what they do."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.totals: dict[str, Totals] = {}
        # span: [name, start, end, parent, run_id, attrs, busy_s, fine]
        self.spans: list[list] = []
        # frame: [span index of the nearest recorded span, child seconds]
        self.stack: list[list] = [[-1, 0.0]]
        self.bound: list[tuple] = []

    # -- bookkeeping shared by the wrappers --------------------------------

    def _enter(self, record: bool, name: str, args: tuple) -> list:
        parent = self.stack[-1][0]
        if record:
            ref = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, self.run_id,
                               _attrs(name, args), 0.0, {}])
        else:
            ref = parent
        frame = [ref, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str, record: bool, tot: Totals, t0: float) -> float:
        t1 = perf_counter()
        self.stack.pop()
        dur = t1 - t0
        tot.s += dur
        tot.self_s += dur - frame[1]
        self.stack[-1][1] += dur
        if record:
            span = self.spans[frame[0]]
            span[2] = t1
            span[6] += dur
        elif frame[0] >= 0:
            fine = self.spans[frame[0]][7].setdefault(name, [0, 0.0])
            fine[0] += 1
            fine[1] += dur
        return dur

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn, kind: str):
        tot = self.totals.setdefault(name, Totals())
        record = kind == "span"
        scan = name in ("poly.phi_bruteforce", "poly.phi_local_bruteforce")
        classify = name == "cotree.graph_to_cotree"
        active = [0]
        tracer = self

        def wrapper(*args, **kwargs):
            if active[0]:
                tot.calls += 1
                return fn(*args, **kwargs)
            if kind == "recursive":
                active[0] = 1
            tot.calls += 1
            frame = tracer._enter(record, name, args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name, record, tot, t0)
                active[0] = 0
            # reached only when the call returned: a graph_to_cotree input
            # that raised NotACograph is not useful
            if classify:
                tot.useful += 1
            elif scan:
                tot.masks += 1 << result.n
                tot.useful += result.value_at_one()
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tot = self.totals.setdefault(name, Totals())
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tot.calls += 1
            span_ref = len(tracer.spans)
            tracer.spans.append([name, None, None, tracer.stack[-1][0], tracer.run_id,
                                 _attrs(name, args), 0.0, {}])
            return tracer._iterate(name, inner, tot, span_ref)

        return wrapper

    def _iterate(self, name: str, inner, tot: Totals, span_ref: int):
        span = self.spans[span_ref]
        try:
            while True:
                frame = [span_ref, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                if span[1] is None:
                    span[1] = t0
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    dur = t1 - t0
                    tot.s += dur
                    tot.self_s += dur - frame[1]
                    self.stack[-1][1] += dur
                    span[2] = t1
                    span[6] += dur
                tot.items += 1
                span[5]["items"] = span[5].get("items", 0) + 1
                yield item
        finally:
            inner.close()

    # -- install and remove ------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        for mod_name, fn_name, kind in TARGETS:
            original = getattr(by_name[mod_name], fn_name)
            qual = f"{mod_name}.{fn_name}"
            if kind == "generator":
                wrapper = self._wrap_generator(qual, original)
            else:
                wrapper = self._wrap_call(qual, original, kind)
            for m in modules:
                if m.__dict__.get(fn_name) is original:
                    setattr(m, fn_name, wrapper)
                    self.bound.append((m, fn_name, original))

    def remove(self) -> None:
        for m, fn_name, original in reversed(self.bound):
            setattr(m, fn_name, original)
        self.bound.clear()

    def report(self) -> dict:
        return {
            "run_id": self.run_id,
            "totals": {
                name: {k: getattr(t, k) for k in Totals.__slots__}
                for name, t in self.totals.items()
            },
            "spans": self.spans,
        }


class CountingStdout:
    """Passes writes through to the real stdout and counts the bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def flush(self) -> None:
        self.inner.flush()


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer(run_id=spans_file.rsplit("/", 1)[-1].split(".")[0])
    tracer.install()
    cli = importlib.import_module("cographmean.cli")
    out = CountingStdout(sys.stdout)
    sys.stdout = out
    epoch, origin = time.time(), perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout = out.inner
        sys.stdout.flush()
        tracer.remove()
        report = tracer.report()
        report.update(epoch=epoch, origin=origin, stdout_bytes=out.bytes, argv=cli_args)
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
