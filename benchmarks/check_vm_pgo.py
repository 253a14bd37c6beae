#!/usr/bin/env python
"""CI gate: profile-guided superinstructions + allocation sinking must
actually buy raw VM speed — without moving a single observable count.

Three checks on the paper's hottest workload (cfrac at ``O``/ss10):

* **identity** — a PGO-fused run and a run under the tiered default
  (``superinst=None``) must each be bit-identical to the plain run —
  the explicit unfused reference, an empty plan — in every observable
  (exit code, instructions, cycles, output, collections, pointer
  checks); so must cfrac at ``g_checked`` under the tiered default,
  where the pointer checks fuse, including the per-kind check
  counters; a PGO+sink run must keep exit code and output and must not
  *increase* collections.  Violations exit 2: a count mismatch is a
  correctness bug, not a perf regression.
* **allocation sinking payoff** — the ``scratch`` workload (short-lived
  constant-size buffers) must show strictly fewer collections with the
  pass applied.  Exit 1 on violation.
* **wall clock** — interleaved min-of-N (default 3) wall times of the
  interpreter loop, plain vs PGO+sink, each sample a fresh subprocess
  child printing a JSON line; the speedup must reach --min-speedup
  (default 1.5).  The tiered default is sampled alongside; its speedup
  over plain is recorded but not gated.  Interleaving cancels slow
  drift (thermal, noisy neighbors); min-of-N cancels one-off stalls.
  Exit 1 on violation, or pass --skip-wall (e.g. on known-noisy
  runners) to print SKIP and gate only on identity + sinking.

Appends one record to --out (default BENCH_vm2.json) so the speedup has
a history, like BENCH_exec.json / BENCH_obs.json.

    python benchmarks/check_vm_pgo.py
    python benchmarks/check_vm_pgo.py --repeats 5 --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.machine.driver import CompileConfig, compile_source  # noqa: E402
from repro.machine.models import MODELS  # noqa: E402
from repro.machine.superinst import (  # noqa: E402
    SuperinstPlan, load_pgo, plan_from_profile, plan_from_pgo, save_pgo,
)
from repro.machine.vm import VM  # noqa: E402
from repro.obs.vmprof import VMProfile  # noqa: E402
from repro.postproc.sink import sink_program  # noqa: E402
from repro.workloads import load_workload  # noqa: E402

WORKLOAD = "cfrac"
SINK_WORKLOAD = "scratch"
CONFIG = "O"
CHECKED_CONFIG = "g_checked"
MODEL = "ss10"
# The unfused reference: superinst=None would tier hot runs up.
UNFUSED = SuperinstPlan(frozenset())


def run_key(result) -> tuple:
    return (result.exit_code, result.instructions, result.cycles,
            result.output, result.collections, result.checks)


def compile_workload(name: str, config: str = CONFIG):
    model = MODELS[MODEL]
    return compile_source(load_workload(name),
                          CompileConfig.named(config, model)), model


def checked_key(vm, result) -> tuple:
    """run_key plus the collector's per-kind check counters."""
    stats = vm.gc.stats
    return run_key(result) + (stats.same_obj_checks, stats.incr_checks,
                              stats.base_checks)


def make_profile(tmp_pgo: str) -> None:
    """Profile one cfrac run and persist the pgo envelope the children
    replay — the same artifact `repro.obs record --pgo-out` emits."""
    compiled, model = compile_workload(WORKLOAD)
    profile = VMProfile(tag=f"{WORKLOAD}@{CONFIG}/{MODEL}")
    VM(compiled.asm, model, profile=profile).run()
    save_pgo(profile.to_pgo(), tmp_pgo)


def child_main(mode: str, pgo_path: str) -> int:
    """One timing sample: compile outside the clock, time only the
    interpreter loop, print a JSON line."""
    compiled, model = compile_workload(WORKLOAD)
    plan = UNFUSED
    if mode == "pgo":
        plan = plan_from_pgo(load_pgo(pgo_path))
        sink_program(compiled.asm)
    elif mode == "tiered":
        plan = None
    vm = VM(compiled.asm, model, superinst=plan)
    t0 = time.perf_counter()
    result = vm.run()
    wall = time.perf_counter() - t0
    print(json.dumps({"mode": mode, "wall_s": wall,
                      "exit_code": result.exit_code}))
    return 0


def sample(mode: str, pgo_path: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--pgo-file", pgo_path],
        capture_output=True, text=True, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["wall_s"])


def check_identity() -> tuple[list[str], dict]:
    """The bit-identity and collections checks; returns (mismatch
    descriptions, measured counters for the record)."""
    mismatches: list[str] = []
    compiled, model = compile_workload(WORKLOAD)
    profile = VMProfile()
    base = VM(compiled.asm, model, profile=profile).run()
    plan = plan_from_profile(profile)

    fused = VM(compiled.asm, model, superinst=plan).run()
    if run_key(fused) != run_key(base):
        mismatches.append(
            f"{WORKLOAD}: PGO-fused observables differ from plain: "
            f"{run_key(fused)} != {run_key(base)}")
    tiered_vm = VM(compiled.asm, model)
    tiered = tiered_vm.run()
    tiered_identity = run_key(tiered) == run_key(base)
    if not tiered_identity:
        mismatches.append(
            f"{WORKLOAD}: tiered observables differ from plain: "
            f"{run_key(tiered)} != {run_key(base)}")

    checked, _ = compile_workload(WORKLOAD, CHECKED_CONFIG)
    keys = {}
    for label, superinst in (("plain", UNFUSED), ("tiered", None)):
        vm = VM(checked.asm, model, superinst=superinst)
        keys[label] = checked_key(vm, vm.run())
    checked_identity = keys["tiered"] == keys["plain"]
    if not checked_identity:
        mismatches.append(
            f"{WORKLOAD}@{CHECKED_CONFIG}: tiered observables differ from "
            f"plain: {keys['tiered']} != {keys['plain']}")

    sunk_prog, _ = compile_workload(WORKLOAD)
    sink_stats = sink_program(sunk_prog.asm)
    both = VM(sunk_prog.asm, model, superinst=plan).run()
    if (both.exit_code, both.output) != (base.exit_code, base.output):
        mismatches.append(
            f"{WORKLOAD}: PGO+sink changed the answer: "
            f"exit {both.exit_code} vs {base.exit_code}")
    if both.collections > base.collections:
        mismatches.append(
            f"{WORKLOAD}: sinking increased collections "
            f"({base.collections} -> {both.collections})")

    counters = {
        "plan_blocks": len(plan.blocks),
        "plan_digest": plan.digest(),
        "tiered_runs": tiered_vm.superinst_stats.runs,
        "tiered_identity_ok": tiered_identity,
        "checked_identity_ok": checked_identity,
        "base_cycles": base.cycles,
        "base_collections": base.collections,
        "pgo_sink_cycles": both.cycles,
        "pgo_sink_collections": both.collections,
        "cfrac_sink_stats": {"sunk": sink_stats.sunk,
                             "eliminated": sink_stats.eliminated,
                             "bytes_sunk": sink_stats.bytes_sunk},
    }
    return mismatches, counters


def check_sink_payoff() -> tuple[list[str], dict]:
    """scratch@O: the sinking pass must strictly reduce collections."""
    failures: list[str] = []
    base_prog, model = compile_workload(SINK_WORKLOAD)
    base = VM(base_prog.asm, model).run()
    sunk_prog, _ = compile_workload(SINK_WORKLOAD)
    stats = sink_program(sunk_prog.asm)
    sunk = VM(sunk_prog.asm, model).run()
    if (sunk.exit_code, sunk.output) != (base.exit_code, base.output):
        failures.append(f"{SINK_WORKLOAD}: sinking changed the answer")
    if stats.sunk < 1:
        failures.append(f"{SINK_WORKLOAD}: nothing sank ({stats})")
    if sunk.collections >= base.collections:
        failures.append(
            f"{SINK_WORKLOAD}: collections not reduced "
            f"({base.collections} -> {sunk.collections})")
    counters = {
        "scratch_sunk": stats.sunk,
        "scratch_collections_base": base.collections,
        "scratch_collections_sunk": sunk.collections,
        "scratch_cycles_base": base.cycles,
        "scratch_cycles_sunk": sunk.cycles,
    }
    return failures, counters


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="interleaved samples per side (min is taken)")
    ap.add_argument("--min-speedup", type=float, default=1.5)
    ap.add_argument("--skip-wall", action="store_true",
                    help="skip the wall-clock gate (identity + sinking "
                         "still checked)")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_vm2.json"))
    ap.add_argument("--label", default="")
    ap.add_argument("--child", default=None,
                    choices=("plain", "pgo", "tiered"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--pgo-file", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args.child, args.pgo_file)

    mismatches, counters = check_identity()
    sink_failures, sink_counters = check_sink_payoff()
    counters.update(sink_counters)

    plain_times: list[float] = []
    pgo_times: list[float] = []
    tiered_times: list[float] = []
    speedup = tiered_speedup = None
    if not args.skip_wall:
        pgo_path = os.path.join(os.path.dirname(args.out),
                                ".vm-pgo-gate.json")
        make_profile(pgo_path)
        try:
            for _ in range(args.repeats):
                plain_times.append(sample("plain", pgo_path))
                pgo_times.append(sample("pgo", pgo_path))
                tiered_times.append(sample("tiered", pgo_path))
        finally:
            try:
                os.unlink(pgo_path)
            except OSError:
                pass
        speedup = min(plain_times) / min(pgo_times)
        tiered_speedup = min(plain_times) / min(tiered_times)

    record = {
        "schema": "repro-vm2-bench/1",
        "label": args.label,
        "workload": WORKLOAD,
        "config": CONFIG,
        "model": MODEL,
        "repeats": args.repeats,
        "plain_wall_s": [round(t, 4) for t in plain_times],
        "pgo_sink_wall_s": [round(t, 4) for t in pgo_times],
        "speedup": round(speedup, 3) if speedup is not None else None,
        "tiered_wall_s": [round(t, 4) for t in tiered_times],
        "tiered_speedup": (round(tiered_speedup, 3)
                           if tiered_speedup is not None else None),
        "identity_ok": not mismatches,
        **counters,
    }
    history = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            history = json.load(fh)
    history.append(record)
    with open(args.out, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")

    for m in mismatches:
        print(f"MISMATCH: {m}")
    if mismatches:
        return 2
    failures = list(sink_failures)
    if speedup is not None and speedup < args.min_speedup:
        failures.append(f"speedup {speedup:.2f}x < "
                        f"{args.min_speedup:.1f}x "
                        f"(plain min {min(plain_times):.3f}s, pgo+sink "
                        f"min {min(pgo_times):.3f}s)")
    verdict = "FAIL" if failures else ("SKIP(wall)" if speedup is None
                                       else "OK")
    wall_note = (f"{min(plain_times):.3f}s -> {min(pgo_times):.3f}s "
                 f"({speedup:.2f}x; tiered {min(tiered_times):.3f}s, "
                 f"{tiered_speedup:.2f}x)" if speedup is not None
                 else "wall gate skipped")
    print(f"{verdict}: {WORKLOAD}@{CONFIG}/{MODEL} {wall_note}; "
          f"counts {'identical' if not mismatches else 'DIFFER'}; "
          f"{SINK_WORKLOAD} collections "
          f"{counters['scratch_collections_base']} -> "
          f"{counters['scratch_collections_sunk']} -> {args.out}")
    for failure in failures:
        print(f"  - {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
