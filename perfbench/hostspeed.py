"""Host-speed normalisation.

The benchmark's host is shared: its speed for pure-Python work was seen
to drift by up to 2x within minutes, far more than any change a later
commit makes.  So every measurement is paired with a fixed probe — a
pure-Python kernel that uses none of the program's code — and every
reported time is scaled by REFERENCE_S over the probe's mean time:
times read as on a host where the probe takes REFERENCE_S.  A faster
program still reads faster; a slower host no longer does.  The probe
runs

* between operations of a single-threaded window (``HostSpeed.tick``);
* in a separate process beside the multi-threaded serve window
  (``BackgroundProbe``), so it never pauses the measured work;
* just before, within and just after each cold set-up
  (``setup_probe.py``).

The scale factor is reported, and the raw values are printed above
the JSON line.

    python3 perfbench/hostspeed.py --every 0.4

samples the probe until its standard input closes, then prints the
samples as one JSON list (the ``BackgroundProbe`` child).
"""

import json
import os
import select
import statistics
import subprocess
import sys
import time

#: The probe's time on an idle 2-core x86-64 host (Python 3.11).
REFERENCE_S = 0.0125
#: Wall between two probes (each takes about REFERENCE_S).
PROBE_EVERY_S = 0.25
#: Probes run before and again after each cold set-up.
BRACKET = 8


def probe() -> float:
    """Seconds one run of the fixed kernel takes: closure calls, list
    indexing, dict stores and loads and masked integer arithmetic, the
    mix an interpreter loop like the program's VM is made of."""
    t0 = time.perf_counter()
    table: dict = {}
    values = list(range(64))
    acc = 0

    def step(x):
        return (x * 3 + 1) & 0xFFFF

    for i in range(60_000):
        k = i & 63
        acc = (acc + step(values[k])) & 0xFFFF
        table[k] = acc
        acc ^= table.get(k ^ 1, 0)
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples of one measured window."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0   # wall the probes took (excluded from windows)
        self._due = 0.0

    def sample(self) -> None:
        dt = probe()
        self.samples.append(dt)
        self.spent += dt
        self._due = time.perf_counter() + PROBE_EVERY_S

    def tick(self) -> None:
        """Probe when one is due; call between operations."""
        if time.perf_counter() >= self._due:
            self.sample()

    def slowdown(self) -> float:
        """Mean probe time over REFERENCE_S: how much slower than the
        reference host the samples ran."""
        return statistics.mean(self.samples) / REFERENCE_S


class BackgroundProbe:
    """Samples the probe every PROBE_EVERY_S in a child process for as
    long as the ``with`` block runs; ``speed`` holds the samples after
    it.  The child's probes take no time from the measured process."""

    def __enter__(self) -> "BackgroundProbe":
        self.speed = HostSpeed()
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--every", str(PROBE_EVERY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate(input="", timeout=60)
        if self._proc.returncode != 0:
            raise RuntimeError("host-speed probe process failed")
        self.speed.samples = json.loads(out)


def _sample_until_stdin_closes(every: float) -> None:
    samples = []
    while True:
        samples.append(probe())
        if select.select([sys.stdin], [], [], every)[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    if sys.argv[1:2] != ["--every"] or len(sys.argv) != 3:
        sys.exit(__doc__)
    _sample_until_stdin_closes(float(sys.argv[2]))
