"""Outside-in span tracer for the adpricing modules.

The tracer wraps the public functions of each module from outside the
program: every wrapped name is rebound in every ``adpricing`` module that
holds it, so ``from .sampling import run_batched`` call sites are traced
as well as ``sampling.run_batched``. Each call records one span
``(id, parent, label, thread, start, end)``. Spans stay in memory and are
written once, after the run.

Each thread keeps its own span stack. A batch handed to
``run_batched``'s thread pool gets the submitting ``run_batched`` span as
its parent, so per-batch time nests under the estimator that asked for it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped by name; the label is "<module>.<function>"
FUNCTIONS = (
    ("config", "load_config"),
    ("sampling", "batch_rng"),
    ("sampling", "draw_rates"),
    ("sampling", "tie_uniforms"),
    ("sampling", "winner_tiebreak"),
    ("engine", "run_auction"),
    ("engine", "run_repeated"),
    ("strategy", "best_response_scan"),
    ("strategy", "equilibrium_fixture_bids"),
    ("payoffs", "estimate_equilibrium_payoffs"),
    ("payoffs", "exact_equilibrium_payoffs"),
    ("equilibrium", "sweep_outside_option"),
    ("equilibrium", "cpsc_comparison"),
    ("cli", "run"),
)

# every span label, in report order; kernel.batch is one batch_fn call
# made by run_batched, wherever the estimator defined it
LABELS = (
    [f"{m}.{f}" for m, f in FUNCTIONS[:5]]
    + ["distributions.sample", "sampling.run_batched", "kernel.batch"]
    + [f"{m}.{f}" for m, f in FUNCTIONS[5:]]
    + ["cli.write_csv", "cli.hashes"]
)
LAYERS = (
    "config", "distributions", "sampling", "kernel", "engine",
    "strategy", "payoffs", "equilibrium", "cli",
)
STUDIES = ("simulate", "dominance", "sweep", "cpsc")


def _layer(label: str) -> str:
    return label.split(".", 1)[0]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        # run_batched counters, write_csv bytes, and pool_capacity_s: the
        # sum over run_batched calls of threads x wall time
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ----------------------------------------------------
    def wrap(self, label: str, fn, parent: int | None = None, before=None, after=None):
        """Wrap fn so that every call records a span. parent overrides
        the thread's own stack (pool workers start with an empty one);
        before(sid, args, kwargs) gets the new span's id and returns the
        (args, kwargs) to call fn with; after(args, kwargs, seconds) runs
        once the span is closed."""
        spans, ids, clock, local = self.spans, self._ids, time.perf_counter, self._local
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            up = parent if parent is not None else (stack[-1] if stack else 0)
            if before is not None:
                args, kwargs = before(sid, args, kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, up, label, get_ident(), t0, t1))
                if after is not None:
                    after(args, kwargs, t1 - t0)

        return traced

    def _wrap_run_batched(self, fn):
        """run_batched, with each batch_fn call traced as a kernel.batch
        span whose parent is the submitting run_batched span."""
        sig = inspect.signature(fn)

        def wrap_batches(sid, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["batch_fn"] = self.wrap("kernel.batch", bound.arguments["batch_fn"], parent=sid)
            return bound.args, bound.kwargs

        def count(args, kwargs, seconds):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n_batches = -(-a["n"] // a["batch_size"])
            pooled = a["threads"] > 1 and n_batches > 1
            self.counters["sampling.run_batched.replications"] += a["n"]
            self.counters["sampling.run_batched.batches"] += n_batches
            self.counters["pool_capacity_s"] += (a["threads"] if pooled else 1) * seconds

        return self.wrap("sampling.run_batched", fn, before=wrap_batches, after=count)

    def install(self, package) -> None:
        """Wrap every traced function of an imported adpricing package and
        rebind it wherever a module of the package imported it."""
        from_prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(from_prefix))]

        def rebind(orig, wrapper) -> None:
            hits = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        hits += 1
            if hits == 0:
                raise RuntimeError(f"traced function {orig!r} is bound nowhere")

        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules[from_prefix + mod_name], fn_name)
            rebind(orig, self.wrap(f"{mod_name}.{fn_name}", orig))
        sampling = sys.modules[from_prefix + "sampling"]
        rebind(sampling.run_batched, self._wrap_run_batched(sampling.run_batched))

        dist = sys.modules[from_prefix + "distributions"]
        for cls in vars(dist).values():
            if isinstance(cls, type) and issubclass(cls, dist.Distribution) and "sample" in vars(cls):
                cls.sample = self.wrap("distributions.sample", vars(cls)["sample"])

        artifacts = sys.modules[from_prefix + "cli"].Artifacts

        def count_bytes(args, kwargs, seconds):
            art, relpath = args[0], args[1]
            self.counters["cli.write_csv.bytes"] += (art.outdir / relpath).stat().st_size

        artifacts.write_csv = self.wrap("cli.write_csv", artifacts.write_csv, after=count_bytes)
        artifacts.hashes = self.wrap("cli.hashes", artifacts.hashes)

    # -- reporting ----------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-label calls, busy and self time, per-layer busy and self
        time, the run_batched counters and the pool's idle capacity
        (wait_s: threads x run_batched wall minus batch busy time, summed
        over run_batched calls). Self time is a span's
        duration minus the union of its children's intervals; busy and
        self time of pool batches are summed over threads."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list] = defaultdict(list)
        for sid, parent, label, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))

        out: dict[str, float] = {f"{k}.{m}": 0 for k in LABELS for m in ("calls", "busy_s", "self_s")}
        out.update({f"{k}.{m}": 0.0 for k in LAYERS for m in ("busy_s", "self_s")})
        for sid, parent, label, _, t0, t1 in self.spans:
            dur = t1 - t0
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[f"{label}.calls"] += 1
            out[f"{label}.busy_s"] += dur
            out[f"{label}.self_s"] += dur - covered
            layer = _layer(label)
            out[f"{layer}.self_s"] += dur - covered
            # layer busy: spans with no ancestor in the same layer
            up = parent
            while up and _layer(by_id[up][2]) != layer:
                up = by_id[up][1]
            if not up:
                out[f"{layer}.busy_s"] += dur

        for name in ("sampling.run_batched.replications", "sampling.run_batched.batches",
                     "cli.write_csv.bytes"):
            out[name] = self.counters[name]
        out["sampling.run_batched.wait_s"] = max(
            self.counters["pool_capacity_s"] - out["kernel.batch.busy_s"], 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write every span, times in ns from the first span's start."""
        names = {label: k for k, label in enumerate(LABELS)}
        threads: dict[int, int] = {}
        base = min((s[4] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, names[label], threads.setdefault(tid, len(threads)),
             round((t0 - base) * 1e9), round((t1 - base) * 1e9)]
            for sid, parent, label, tid, t0, t1 in sorted(self.spans, key=lambda s: s[4])
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "names": list(LABELS),
                       "columns": ["id", "parent", "name", "thread", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))
