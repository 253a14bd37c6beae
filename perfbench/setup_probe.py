"""One cold set-up of a workload, timed between host-speed probes.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what a run does before its first timed operation: import the
program, build the seeded inputs and, for serve-mixed, start a daemon.
``run.py`` starts this script in a fresh process several times per run
and reports the median of the scaled times as ``setup_s``.  The probe
runs BRACKET times just before the set-up, between its stages (its
time is left out of the set-up's) and BRACKET times just after it.  The script prints one JSON object: the raw seconds and the host
slowdown those probes measured, in this process.
"""

import time

from hostspeed import BRACKET, HostSpeed

SPEED = HostSpeed()
for _ in range(BRACKET):
    SPEED.sample()
T0, SPENT0 = time.perf_counter(), SPEED.spent

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cache_dir = os.path.join(run.OUT, f"probe-cache-{os.getpid()}")
    handle = run.set_up(workload, seed, cache_dir, SPEED.sample)
    elapsed = time.perf_counter() - T0 - (SPEED.spent - SPENT0)
    if handle is not None:
        handle.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for _ in range(BRACKET):
        SPEED.sample()
    print(json.dumps({"setup_s": elapsed, "slowdown": SPEED.slowdown()}))


if __name__ == "__main__":
    main()
