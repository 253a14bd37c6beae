"""Independent output references built with the host C compiler.

Every program the benchmark runs on the simulated machine is also
compiled natively by ``gcc`` behind a short shim that maps the
collector's allocation entry points onto ``calloc`` (the host program
never frees, so any collector behaviour is invisible to it).  The
native binary's exit status and standard output are the expected
observables; the simulated run must reproduce them exactly (exit code
modulo 256).

References are a pure function of (shim, flags, source, stdin), so they
are memoized on disk under ``perfbench/out/gccref`` keyed by the
SHA-256 of those inputs (failures are not memoized).  They are always
built outside the timed window and outside set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

SHIM = """#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#define GC_malloc(n) calloc(1, (n))
#define GC_malloc_atomic(n) calloc(1, (n))
#define GC_collect() ((void) 0)
#define GC_gcollect() ((void) 0)
"""
GCC_FLAGS = ("-O0", "-w")
COMPILE_TIMEOUT_S = 60
GCC_JOBS = 2  # the host's cores
RUN_TIMEOUT_S = 20


@dataclass(frozen=True)
class Reference:
    """Expected observables of one (source, stdin) pair.  ``error`` is
    set when gcc could not build or run the program: such a program is
    *unreferenced* and can never count as passed."""

    exit_code: int | None
    output: str
    error: str | None = None

    def matches(self, exit_code: int | None, output: str) -> bool:
        return (self.error is None and exit_code is not None
                and (exit_code & 0xFF) == self.exit_code
                and output == self.output)


def _key(source: str, stdin: str) -> str:
    blob = json.dumps([SHIM, GCC_FLAGS, source, stdin])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ReferenceBuilder:
    """Builds and memoizes gcc references under ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.gcc = shutil.which("gcc")
        if self.gcc is None:
            raise RuntimeError("gcc not found on PATH; the benchmark needs "
                               "it for its output references")
        os.makedirs(root, exist_ok=True)

    def build(self, source: str, stdin: str = "") -> Reference:
        key = _key(source, stdin)
        path = os.path.join(self.root, key + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                return Reference(**json.load(fh))
        except (OSError, ValueError, TypeError):
            pass
        ref = self._compile_and_run(key, source, stdin)
        if ref.error is None:  # failures are retried on the next run
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(ref.__dict__, fh)
            os.replace(tmp, path)
        return ref

    def build_many(self, items: list[tuple[str, str]]) -> list[Reference]:
        """References for ``(source, stdin)`` pairs, in order; distinct
        pairs are built concurrently (gcc runs outside the GIL)."""
        distinct = list(dict.fromkeys(items))
        with ThreadPoolExecutor(max_workers=GCC_JOBS) as pool:
            built = dict(zip(distinct, pool.map(
                lambda item: self.build(*item), distinct)))
        return [built[item] for item in items]

    def _compile_and_run(self, key: str, source: str,
                         stdin: str) -> Reference:
        work = os.path.join(self.root, f"build-{key[:16]}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        c_path = os.path.join(work, "prog.c")
        exe = os.path.join(work, "prog")
        try:
            with open(c_path, "w", encoding="utf-8") as fh:
                fh.write(SHIM + source)
            built = subprocess.run(
                [self.gcc, *GCC_FLAGS, "-o", exe, c_path],
                capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S)
            if built.returncode != 0:
                return Reference(None, "", "gcc: " + built.stderr.strip()[:400])
            ran = subprocess.run([exe], input=stdin.encode("latin-1"),
                                 capture_output=True, timeout=RUN_TIMEOUT_S)
            if ran.returncode < 0:
                return Reference(None, "", f"native run died with signal "
                                           f"{-ran.returncode}")
            return Reference(ran.returncode, ran.stdout.decode("latin-1"))
        except subprocess.TimeoutExpired as exc:
            return Reference(None, "", f"timeout: {exc.cmd[0]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
