"""perfbench — the repository's benchmark.

    python3 perfbench/run.py --workload paper-matrix --seed 0 \\
        --seconds 12 --trace 0

Runs one seeded workload (``paper-matrix``, ``fuzz-oracle`` or
``serve-mixed``) through the program's public entry points, checks
every program output against a host-gcc reference, and prints as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics with no
instrumentation; ``--trace 1`` wraps each layer's entry points and
reports per-layer self times and counts instead.  The workloads and
the metric names and units are read from ``BENCHMARK.json``; NOTES.md
says what each one means.

Run from the root of a checkout; everything it writes goes under
``perfbench/out``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _import_program() -> None:
    """Everything the windows touch, imported before any window so the
    traced run can rebind every entry point up front."""
    import repro.api  # noqa: F401
    import repro.bench.harness  # noqa: F401
    import repro.fuzz.campaign  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.serve.jobs  # noqa: F401


def _build_inputs(workload: str, seed: int):
    import workloads as wl
    if workload == "paper-matrix":
        return wl.paper_inputs(seed)
    if workload == "fuzz-oracle":
        return wl.fuzz_inputs(seed)
    return wl.serve_tape(seed)


def set_up(workload: str, seed: int, cache_dir: str, between):
    """Everything before a window's first timed operation: imports,
    inputs and, for serve-mixed, a started daemon (returned, or None).
    Calls ``between()`` between these stages."""
    sys.path.insert(0, SRC)
    _import_program()
    between()
    _build_inputs(workload, seed)
    between()
    if workload == "serve-mixed":
        import workloads as wl
        return wl.start_daemon(cache_dir)
    return None


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median of SETUP_PROBES cold set-ups, each in its own process:
    (each scaled by the host slowdown probed around and within it,
    raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT)
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + probe.stderr)
        result = json.loads(probe.stdout.splitlines()[-1])
        scaled.append(result["setup_s"] / result["slowdown"])
        raw.append(result["setup_s"])
    return statistics.median(scaled), statistics.median(raw)


def _daemon_sums(client) -> dict:
    """Sums and counts from the daemon's metrics snapshot."""
    from repro.obs.metrics import split_key
    sums = {"task_ns": 0, "queue_ns": 0, "rejections": 0}
    names = {"serve.task_wall_ns": ("task_ns", "sum"),
             "serve.queue_wait_ns": ("queue_ns", "sum"),
             "serve.admission_rejections": ("rejections", "value")}
    for key, entry in client.metrics_snapshot()["metrics"].items():
        target = names.get(split_key(key)[0])
        if target is not None:
            sums[target[0]] += entry[target[1]]
    return sums


def run_serve(seconds: float, seed: int, builder, trace):
    """serve-mixed: returns (window, overhead %, traced wall ns, cache
    stats, daemon sums)."""
    import workloads as wl
    from hostspeed import BackgroundProbe
    from repro.exec import cache as exec_cache
    from repro.serve.client import Client
    from repro.workloads import load_workload
    tape = wl.serve_tape(seed)
    cache_dir = os.path.join(OUT, f"serve-cache-{os.getpid()}")
    runs, speeds = [], []
    cache_stats, sums = None, None
    try:
        handle = wl.start_daemon(cache_dir)
        try:
            with BackgroundProbe() as probe:
                runs.append(wl.serve_loop(handle.port, tape,
                                          seconds / 2 if trace else seconds))
            speeds.append(probe.speed)
        finally:
            handle.stop()
        if trace is not None:
            handle = wl.start_daemon(cache_dir)
            try:
                trace.install()
                try:
                    with BackgroundProbe() as probe:
                        runs.append(wl.serve_loop(handle.port, tape, None,
                                                  count=len(runs[0][1])))
                    speeds.append(probe.speed)
                finally:
                    trace.uninstall()
                cache_stats = {tier: exec_cache.active_cache(tier).stats
                               for tier in ("compile", "result")}
                with Client(port=handle.port, tenant="perfbench") as client:
                    sums = _daemon_sums(client)
            finally:
                handle.stop()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    served_count = len(runs[0][1])
    sources = [e["params"]["source"] for e in tape[:served_count]
               if e["method"] == "run"]
    sources.append(load_workload("cordtest"))
    refs = dict(zip(sources, builder.build_many([(s, "") for s in sources])))
    serial = wl.serial_references(tape, served_count)
    seen: dict = {}
    window = None
    for (wall, served), speed in zip(runs, speeds):
        judged = wl.judge_serve(tape, served, refs, serial, seen)
        judged.wall_s, judged.slowdown = wall, speed.slowdown()
        if window is not None:
            judged.ops = window.ops + judged.ops
        window = judged
    overhead = 0.0
    if trace is not None:
        plain, traced = (wall / speed.slowdown()
                         for (wall, _), speed in zip(runs, speeds))
        overhead = (traced / plain - 1) * 100
    traced_ns = int(runs[-1][0] * 1e9) * wl.SERVE_CLIENTS
    return window, overhead, traced_ns, cache_stats, sums


def run_workload(workload: str, seconds: float, seed: int, builder, trace):
    """Returns (window, overhead %, traced wall ns, cache stats, sums)."""
    import workloads as wl
    if workload == "serve-mixed":
        return run_serve(seconds, seed, builder, trace)
    inputs = _build_inputs(workload, seed)
    if workload == "paper-matrix":
        refs = builder.build_many(inputs)
        window, overhead, traced_s = wl.run_paper(seconds, refs, trace)
    else:
        refs = builder.build_many([(source, "") for source in inputs])
        window, overhead, traced_s = wl.run_fuzz(seconds, inputs, refs,
                                                 trace)
    return window, overhead, int(traced_s * 1e9), None, None


def end_to_end(window, setup_s: float, slowdown: float = 1.0) -> dict:
    """Every end-to-end metric's value; times and rates are scaled by
    ``slowdown`` (see hostspeed.py), ``setup_s`` arrives as it is to
    be reported."""
    cells = [op.ms / slowdown for op in window.ops if op.cell]
    requests = [op.ms / slowdown for op in window.ops]
    wall = window.wall_s / slowdown
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": setup_s,
        "sim_mips": window.instructions / wall / 1e6,
        "cell_ms_p50": percentile(cells, 50),
        "cell_ms_p90": percentile(cells, 90),
        "programs_per_s": window.programs / wall,
        "req_per_s": len(requests) / wall,
        "req_ms_p50": percentile(requests, 50),
        "req_ms_p95": percentile(requests, 95),
        "sim_cycles": window.sim_cycles / 1e6,
        "code_bytes": window.code_bytes,
        "peak_rss_mb": rss_mb,
    }


def _write_out(name: str, blob: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _import_program()
    import layers
    import workloads as wl
    from reference import ReferenceBuilder

    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    builder = ReferenceBuilder(os.path.join(OUT, "gccref"))
    trace = layers.LayerTrace() if args.trace else None
    window, overhead, traced_ns, cache_stats, sums = run_workload(
        args.workload, args.seconds, args.seed, builder, trace)

    failures = [op for op in window.ops if op.failure is not None]
    attempted = len(window.ops)
    if trace is None:
        declared = spec["end_to_end"]
        values = end_to_end(window, setup_s, window.slowdown)
        raw = end_to_end(window, setup_raw)
    else:
        declared = spec["per_layer"]
        values, raw = (layers.layer_metrics(
            trace, traced_ns, overhead_pct=overhead,
            fail_ratio=len(failures) / attempted, cache_stats=cache_stats,
            serve=sums, slowdown=slowdown)
            for slowdown in (window.slowdown, 1.0))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    unscaled = {m["name"]: raw[m["name"]] for m in declared}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    blob = json.dumps(window.cells, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    print(f"cells: {len(window.cells)} with counts, sha256 {digest}, "
          f"{_write_out(f'cells-{stem}.json', blob)}")
    print("unscaled: " + ", ".join(
        f"{name} {value:.4f}" for name, value in unscaled.items()
        if value != metrics[name]["value"]))
    reasons: dict[tuple, int] = {}
    for op in failures:
        key = (op.failure, op.known)
        reasons[key] = reasons.get(key, 0) + 1
    for (reason, known), n in sorted(reasons.items(),
                                     key=lambda kv: -kv[1])[:10]:
        print(f"failed x{n}{' (known defect)' if known else ''}: "
              f"{reason[:300]}")
    cells = sum(op.cell for op in window.ops)
    print(f"{args.workload} seed {args.seed}: {attempted} operations "
          f"({cells} cells) in {window.wall_s:.2f} s, {len(failures)} failed, "
          f"{window.unreferenced} unreferenced, host slowdown "
          f"{window.slowdown:.3f}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    result = {"correct": wl.is_correct(window), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print("wrote " + _write_out(f"result-{stem}.json", json.dumps(
        {**result, "unscaled": unscaled, "slowdown": window.slowdown},
        indent=1)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
