"""Per-layer self times for the traced run.

The benchmark wraps the public entry points of each layer of the
program (listed in :data:`FUNCTIONS` and :data:`METHODS`) for the
duration of the traced window only, and restores them afterwards.  A
wrapper records its call's wall time; a call's *self* time is that
time minus the time of the wrapped calls made inside it on the same
thread (``VM.run`` minus ``Collector.collect``, say).  Counts are read
from the objects the wrapped calls already return.

Each thread keeps its own accumulator, so no lock is taken on the hot
path (the serve workload forks engine workers from a threaded process;
a lock held at fork time would hang the child).  Calls made in forked
engine workers are not seen: their time shows up as the self time of
``run_sharded`` in the parent.

Only this file knows the program's internal entry points; a rename in
the program breaks the traced run here, loudly, at install time.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

#: The client round trip: recorded, but not one of the partitioning layers.
CLIENT_CALL = "serve.call_ms"

#: (module, function, layer metric, observer) — module-level functions,
#: rebound in every loaded ``repro`` module that imported them by name.
FUNCTIONS = (
    ("repro.cfront.cpp", "preprocess", "cfront.cpp_ms", None),
    ("repro.cfront.parser", "parse", "cfront.parse_ms", None),
    ("repro.cfront.typecheck", "typecheck", "cfront.typecheck_ms", None),
    ("repro.machine.lower", "lower_unit", "machine.lower_ms", "_obs_lower"),
    ("repro.machine.opt", "optimize", "machine.opt_ms", "_obs_optimize"),
    ("repro.machine.regalloc", "allocate", "machine.regalloc_ms",
     "_obs_allocate"),
    ("repro.postproc.peephole", "postprocess", "postproc.peephole_ms",
     "_obs_peephole"),
    ("repro.postproc.sink", "sink_program", "postproc.sink_ms", "_obs_sink"),
    ("repro.exec.engine", "run_sharded", "exec.engine_ms", "_obs_engine"),
)

#: (module, class, method, layer metric, observer) — patched on the class.
METHODS = (
    ("repro.core.annotate", "Annotator", "run", "core.annotate_ms",
     "_obs_annotate"),
    ("repro.machine.codegen", "FuncCodegen", "generate",
     "machine.codegen_ms", None),
    ("repro.machine.vm", "VM", "__init__", "machine.vm_build_ms", None),
    ("repro.machine.vm", "VM", "run", "machine.vm_run_ms", "_obs_vm_run"),
    ("repro.gc.collector", "Collector", "collect", "gc.collect_ms", None),
    ("repro.exec.cache", "CompileCache", "get", "exec.cache_get_ms", None),
    ("repro.exec.cache", "CompileCache", "put", "exec.cache_put_ms", None),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache_get_ms", None),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put_ms", None),
    ("repro.serve.client", "Client", "call", CLIENT_CALL, None),
)

#: Self-time layers that partition the traced wall (with ``residual_ms``
#: and ``serve.overhead_ms``).  ``serve.call_ms`` is not among them: a
#: client's round trip contains the daemon-side task, whose layers are
#: counted on the executor thread.
TIMED = tuple(dict.fromkeys(layer for *_, layer, _ in FUNCTIONS + METHODS
                            if layer != CLIENT_CALL))

class _ThreadAcc:
    __slots__ = ("stack", "self_ns", "calls", "max_ns", "counts")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.max_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


# -- observers: (counts, args, result) -> None ---------------------------

def _obs_lower(counts, args, ir) -> None:
    counts["machine.ir_insts"] += sum(len(fn.insts)
                                      for fn in ir.functions.values())


def _obs_optimize(counts, args, _result) -> None:
    counts["machine.ir_insts_opt"] += len(args[0].insts)


def _obs_allocate(counts, args, alloc) -> None:
    counts["machine.spills"] += alloc.spill_count


def _obs_peephole(counts, args, stats) -> None:
    counts["postproc.peephole_rewrites"] += stats.total


def _obs_sink(counts, args, stats) -> None:
    counts["postproc.sunk"] += stats.sunk


def _obs_engine(counts, args, merged) -> None:
    counts["exec.tasks"] += len(args[0])
    counts["exec.retries"] += merged.retries
    counts["exec.worker_deaths"] += merged.worker_deaths


def _obs_annotate(counts, args, result) -> None:
    counts["core.keep_lives"] += result.stats.keep_lives


def _obs_vm_run(counts, args, result) -> None:
    # One run per VM (and per collector) in every caller the benchmark
    # drives, so the cumulative counters are this run's.
    vm = args[0]
    counts["machine.instructions"] += result.instructions
    counts["machine.checks"] += result.checks
    counts["gc.objects_allocated"] += vm.gc.stats.objects_allocated
    counts["gc.bytes_reclaimed"] += vm.gc.stats.bytes_reclaimed


class LayerTrace:
    """Installs the layer wrappers; collects per-thread self times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._accs: list[_ThreadAcc] = []
        # (owner, attribute, original or None when it was inherited)
        self._patches: list[tuple[object, str, object]] = []

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _ThreadAcc()
            self._accs.append(acc)
        return acc

    def _wrap(self, layer: str, fn, observer):
        clock = time.perf_counter_ns
        observe = globals()[observer] if observer else None

        def wrapper(*args, **kwargs):
            acc = self._acc()
            stack = acc.stack
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                acc.self_ns[layer] += dt - child
                acc.calls[layer] += 1
                if dt > acc.max_ns[layer]:
                    acc.max_ns[layer] = dt
            if observe is not None:
                observe(acc.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, layer, observer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(layer, original, observer)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, layer, observer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patches.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self._wrap(layer, getattr(cls, attr),
                                          observer))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """(self_ns, calls, max_ns, counts) summed over threads."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        max_ns: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for acc in list(self._accs):
            for src, dst in ((acc.self_ns, self_ns), (acc.calls, calls),
                             (acc.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
            for key, value in acc.max_ns.items():
                max_ns[key] = max(max_ns[key], value)
        return self_ns, calls, max_ns, counts


def layer_metrics(trace: LayerTrace, wall_ns: int, *,
                  overhead_pct: float, fail_ratio: float,
                  cache_stats: dict | None = None,
                  serve: dict | None = None,
                  slowdown: float = 1.0) -> dict[str, float]:
    """Every per-layer metric of one traced window, by name.

    ``wall_ns`` is the traced wall the self times partition: the
    window's wall for a single caller, clients x window wall for the
    serve loop.  ``cache_stats`` maps tier -> ``CacheStats``;
    ``serve`` carries the daemon's sums (``task_ns``, ``queue_ns``,
    ``rejections``).  Every time is divided by the window's host
    ``slowdown`` (see hostspeed.py), which keeps the partition exact.
    """
    self_ns, calls, max_ns, counts = trace.totals()
    serve = serve or {}
    ms_per_ns = 1e-6 / slowdown
    ms = {layer: self_ns.get(layer, 0) * ms_per_ns for layer in TIMED}
    task_ms = serve.get("task_ns", 0) * ms_per_ns
    overhead_ms = self_ns.get(CLIENT_CALL, 0) * ms_per_ns - task_ms
    wall_ms = wall_ns * ms_per_ns
    out = dict(ms)
    out.update({name: counts.get(name, 0) for name in (
        "core.keep_lives", "machine.ir_insts", "machine.ir_insts_opt",
        "machine.spills", "machine.instructions", "machine.checks",
        "postproc.peephole_rewrites", "postproc.sunk",
        "gc.objects_allocated", "gc.bytes_reclaimed",
        "exec.tasks", "exec.retries", "exec.worker_deaths")})
    instructions = counts.get("machine.instructions", 0)
    out["machine.ns_per_instr"] = (
        self_ns.get("machine.vm_run_ms", 0) / slowdown / instructions
        if instructions else 0.0)
    out["gc.collections"] = calls.get("gc.collect_ms", 0)
    out["gc.pause_ms_max"] = max_ns.get("gc.collect_ms", 0) * ms_per_ns
    for tier in ("compile", "result"):
        stats = (cache_stats or {}).get(tier)
        out[f"exec.cache_hit_ratio.{tier}"] = (
            stats.hits / stats.lookups if stats and stats.lookups else 0.0)
    out["serve.queue_wait_ms"] = serve.get("queue_ns", 0) * ms_per_ns
    out["serve.task_ms"] = task_ms
    out["serve.overhead_ms"] = overhead_ms
    out["serve.admission_rejections"] = serve.get("rejections", 0)
    out["traced_wall_ms"] = wall_ms
    out["residual_ms"] = wall_ms - sum(ms.values()) - overhead_ms
    out["trace_overhead_pct"] = overhead_pct
    out["host.slowdown"] = slowdown
    out["fail_ratio"] = fail_ratio
    return out


def additive_layers() -> tuple[str, ...]:
    """The per-layer metrics that, with ``residual_ms``, sum to
    ``traced_wall_ms``."""
    return TIMED + ("serve.overhead_ms",)
