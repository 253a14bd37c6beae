"""The benchmark's three workloads.

Each workload has an input builder (a pure function of the seed; the
program receives only these inputs) and a runner that measures one
window through the program's public entry points and returns a
:class:`Window`: one :class:`Op` per operation plus the simulated
counts the end-to-end metrics need.  Correctness is judged after the
window, against references built before it (gcc) or after it (serial
replays), so no checking runs inside the measured time.

* ``paper-matrix`` — the paper's four programs x (O, O_safe, g,
  g_checked, O_safe+peephole) on ss10, serially and cold, through
  ``bench.harness.Harness.run_cell`` with a fresh Harness per pass.
  One operation is one cell.  The seed is unused.
* ``fuzz-oracle`` — generated programs through the fuzzer's ss10 cell
  list plus its ``g`` reference cell, each via
  ``fuzz.oracle.compile_and_run``.  One operation is one cell.
* ``serve-mixed`` — two closed-loop clients against an in-process
  daemon replaying a seeded request tape.  One operation is one
  request.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace

from hostspeed import HostSpeed
from repro.bench.harness import CONFIG_ORDER, Harness
from repro.fuzz.gen import GenOptions, generate_program
from repro.fuzz.oracle import compile_and_run, matrix_cells
from repro.machine.vm import VM
from repro.workloads import WORKLOADS, load_workload

MODEL = "ss10"
PAPER_PROGRAMS = ("cordtest", "cfrac", "miniawk", "minips")
#: (program, config, postprocessed): T1-T3 columns, then T5's O_safe+pp.
PAPER_CELLS = tuple((p, c, False) for p in PAPER_PROGRAMS
                    for c in CONFIG_ORDER) + tuple(
    (p, "O_safe", True) for p in PAPER_PROGRAMS)

#: Seed of the anchor inputs every seed shares: the first FUZZ_ANCHORS
#: programs of the fuzz corpus and the first SERVE_COUNTED entries of
#: the serve tape.  The deterministic counts (sim_cycles, code_bytes)
#: are summed over the anchors only, so they read the same on every
#: seed and move only when the generated code changes.
ANCHOR_SEED = 1_000_000_007

#: Generated programs per fuzz-oracle corpus.  A program's cost varies
#: with a coefficient of variation near 0.3, mostly with its array
#: length and statement count, so the corpus is stratified over those
#: two generator parameters (see fuzz_inputs); the window cycles the
#: corpus so programs also repeat.
FUZZ_CORPUS = 14
FUZZ_ANCHORS = 7
FUZZ_MAX_INSTRUCTIONS = 5_000_000

#: serve-mixed tape: blocks of 200 requests with a fixed method mix
#: (LoadSpec's annotate/check/run weights 3:2:3, plus one bench and one
#: single-iteration fuzz job per block), shuffled per block by the seed.
#: A fuzz job costs about as much as 30 annotate/check/run requests.
SERVE_BLOCK = {"annotate": 74, "check": 50, "run": 74, "bench": 1,
               "fuzz": 1}
SERVE_TAPE_BLOCKS = 20
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_BLOCK_SIZE = sum(SERVE_BLOCK.values())
#: The counted prefix, the tape's first block, drawn from ANCHOR_SEED:
#: sim_cycles/code_bytes sum the run responses of these entries, which
#: every window serves (a window serves whole blocks).
SERVE_COUNTED = SERVE_BLOCK_SIZE
#: LoadSpec's bench job: a config subset, which the daemon answers with
#: ``job_failed: KeyError: 'O_safe'`` (a known defect; see NOTES.md).
SERVE_BENCH_PARAMS = {"workloads": ["cordtest"], "configs": ["O", "g"]}
KNOWN_BENCH_FAILURE = "KeyError: 'O_safe'"


@dataclass
class Op:
    """One timed operation."""

    ms: float
    cell: bool = True          # a compile+run cell (cell_ms_* metrics)
    failure: str | None = None
    known: bool = False        # the failure is the known bench defect


@dataclass
class Window:
    """What one measured window produced."""

    wall_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    programs: int = 0          # programs taken through their whole cell list
    instructions: int = 0      # simulated instructions retired in the window
    sim_cycles: int = 0        # deterministic per-seed cycle sum (see NOTES)
    code_bytes: int = 0        # deterministic per-seed code-size sum
    cells: list[dict] = field(default_factory=list)  # per-cell counts
    unreferenced: int = 0      # programs gcc could not build or run
    slowdown: float = 1.0      # host slowdown the window ran at (hostspeed)


class RunTap:
    """Keeps each ``VM.run`` result and its program, so the cells of
    ``compile_and_run`` (which returns neither counts nor code size)
    can be reported.  No clock is read; the cost is one extra Python
    call per run."""

    def __init__(self) -> None:
        self.log: list[tuple] = []
        self._original = None

    def __enter__(self) -> "RunTap":
        original = self._original = VM.run
        log = self.log

        def run(vm, *args, **kwargs):
            result = original(vm, *args, **kwargs)
            log.append((result, vm.program))
            return result

        VM.run = run
        return self

    def __exit__(self, *exc) -> None:
        VM.run = self._original


def _counts(tap: RunTap) -> dict | None:
    """Simulated counts of the last run the tap saw (None if the cell
    never reached the VM)."""
    if not tap.log:
        return None
    result, program = tap.log.pop()
    return {"exit": result.exit_code, "instructions": result.instructions,
            "cycles": result.cycles, "collections": result.collections,
            "checks": result.checks, "code_size": program.code_size()}


def _check_repeat(seen: dict, key, counts: dict) -> str | None:
    """Counts of a cell must be identical every time it runs."""
    first = seen.setdefault(key, counts)
    if first != counts:
        return f"counts differ between passes: {first} vs {counts}"
    return None


# -- paper-matrix ------------------------------------------------------------

def paper_inputs(seed: int) -> list[tuple[str, str]]:
    """(source, stdin) per paper program; the seed is unused."""
    return [(load_workload(p), WORKLOADS[p].stdin) for p in PAPER_PROGRAMS]


def paper_pass(tap: RunTap, speed: HostSpeed,
               trace=None) -> tuple[float, list[tuple]]:
    """One cold pass over the 20 cells; returns (wall without probes,
    [(cell, ms, CellResult, counts)])."""
    out = []
    if trace is not None:
        trace.install()
    try:
        t0, probes = time.perf_counter(), speed.spent
        harness = Harness(MODEL)
        for cell in PAPER_CELLS:
            program, config, post = cell
            speed.tick()
            tap.log.clear()
            c0 = time.perf_counter()
            result = harness.run_cell(program, config, postprocessed=post)
            ms = (time.perf_counter() - c0) * 1e3
            out.append((cell, ms, result, _counts(tap)))
        wall = time.perf_counter() - t0 - (speed.spent - probes)
    finally:
        if trace is not None:
            trace.uninstall()
    return wall, out


def run_paper(seconds: float, refs: list, trace=None):
    """Whole passes while the next one fits in ``seconds`` (at least
    two, so every cell's counts are compared across passes).  With
    ``trace``, pass one runs plain and pass two traced.  Returns
    (window, tracing overhead %, traced wall s)."""
    expected = dict(zip(PAPER_PROGRAMS, refs))
    window = Window()
    seen: dict = {}
    walls = []
    speeds = [HostSpeed()]
    with RunTap() as tap:
        while True:
            traced = trace is not None and len(walls) == 1
            if traced:
                speeds.append(HostSpeed())
            wall, cells = paper_pass(tap, speeds[-1],
                                     trace if traced else None)
            walls.append(wall)
            for cell, ms, result, counts in cells:
                program, config, post = cell
                name = f"{program}@{config}{'+pp' if post else ''}"
                failure = _check_repeat(seen, name, counts)
                ref = expected[program]
                if ref.error is not None:
                    failure = f"unreferenced: {ref.error}"
                elif not ref.matches(result.exit_code, result.output):
                    failure = (f"output differs from gcc: exit "
                               f"{result.exit_code} vs {ref.exit_code}")
                window.ops.append(Op(ms, True, failure))
                window.instructions += counts["instructions"]
                if len(walls) == 1:
                    window.sim_cycles += counts["cycles"]
                    window.code_bytes += counts["code_size"]
                    window.cells.append({"cell": name, **counts})
            window.programs += len(PAPER_PROGRAMS)
            done = sum(walls)
            if trace is not None:
                if len(walls) == 2:
                    break
            elif len(walls) >= 2 and done + done / len(walls) > seconds:
                break
    window.wall_s = sum(walls)
    window.unreferenced = sum(r.error is not None for r in refs)
    window.slowdown = speeds[-1].slowdown()
    if trace is None:
        return window, 0.0, 0.0
    plain, traced = (w / s.slowdown() for w, s in zip(walls, speeds))
    return window, (traced / plain - 1) * 100, walls[1]


# -- fuzz-oracle -------------------------------------------------------------

def stratified_options(rng: random.Random, base: GenOptions,
                       n: int) -> list[GenOptions]:
    """``n`` generator settings that split ``base``'s array-length and
    statement-count ranges into ``n`` equal strata each, paired at
    random.  Programs drawn with them have ``base``'s size distribution
    with far less spread from one draw of ``n`` to the next."""

    def strata(lo: int, hi: int) -> list[int]:
        values = [lo + (2 * k + 1) * (hi - lo + 1) // (2 * n)
                  for k in range(n)]
        rng.shuffle(values)
        return values

    lengths = strata(base.min_array_len, base.max_array_len)
    counts = strata(base.min_statements, base.max_statements)
    return [replace(base, min_array_len=length, max_array_len=length,
                    min_statements=count, max_statements=count)
            for length, count in zip(lengths, counts)]


def _stratified_programs(seed: int, n: int) -> list[str]:
    """One ``generate_program`` per stratum of the default generator's
    array length and statement count (see NOTES.md)."""
    options = stratified_options(random.Random(seed), GenOptions(), n)
    return [generate_program(seed * 1_000_003 + i, opts)
            for i, opts in enumerate(options)]


def fuzz_inputs(seed: int) -> list[str]:
    """The corpus: FUZZ_ANCHORS anchor programs, the same on every
    seed, then the seed's own programs."""
    return (_stratified_programs(ANCHOR_SEED, FUZZ_ANCHORS)
            + _stratified_programs(seed, FUZZ_CORPUS - FUZZ_ANCHORS))


def fuzz_cells(source: str) -> list[tuple[str, tuple]]:
    """The reference cell, then the ss10 oracle list (14 cells)."""
    reference = ("reference", (source, "g", MODEL, 0, True,
                               FUZZ_MAX_INSTRUCTIONS))
    return [reference] + matrix_cells(source, models=(MODEL,),
                                      max_instructions=FUZZ_MAX_INSTRUCTIONS)


def _fuzz_programs(corpus: list[str], order, tap: RunTap, window: Window,
                   speed: HostSpeed, trace=None) -> float:
    """Runs every cell of the programs ``order`` yields (corpus
    indices); returns the wall without probes.  Outcomes are judged
    afterwards."""
    if trace is not None:
        trace.install()
    try:
        t0, probes = time.perf_counter(), speed.spent
        for index in order:
            for slot, (kind, payload) in enumerate(fuzz_cells(corpus[index])):
                speed.tick()
                tap.log.clear()
                c0 = time.perf_counter()
                outcome = compile_and_run(*payload[:6],
                                          sink=len(payload) > 6)
                ms = (time.perf_counter() - c0) * 1e3
                window.ops.append(Op(ms))
                window.cells.append({"program": index, "slot": slot,
                                     "kind": kind, "config": payload[1],
                                     "outcome": outcome,
                                     "counts": _counts(tap)})
            window.programs += 1
        wall = time.perf_counter() - t0 - (speed.spent - probes)
    finally:
        if trace is not None:
            trace.uninstall()
    return wall


def _judge_fuzz(window: Window, refs: list, seen: dict, start: int) -> None:
    """Fills in failures and counts for cells[start:] (after the wall)."""
    ref_key = {}
    for op, cell in zip(window.ops[start:], window.cells[start:]):
        outcome, counts = cell.pop("outcome"), cell.pop("counts") or {}
        index = cell["program"]
        ref = refs[index]
        if cell["slot"] == 0:
            ref_key[index] = outcome.key()
        cell.update(counts)
        failure = None
        if outcome.status != "ok" or not counts:
            failure = f"cell failed: {outcome.describe()}"
        elif outcome.key() != ref_key[index]:
            failure = "disagrees with the oracle's g reference cell"
        elif ref.error is not None:
            failure = f"unreferenced: {ref.error}"
        elif not ref.matches(outcome.exit_code, outcome.output):
            failure = (f"output differs from gcc: exit {outcome.exit_code} "
                       f"vs {ref.exit_code}")
        key = (index, cell["slot"])
        first = key not in seen
        failure = _check_repeat(seen, key, counts) or failure
        if first and index < FUZZ_ANCHORS:
            window.sim_cycles += counts.get("cycles", 0)
            window.code_bytes += counts.get("code_size", 0)
        window.instructions += counts.get("instructions", 0)
        op.failure = failure


def run_fuzz(seconds: float, corpus: list[str], refs: list, trace=None):
    """Cycles the corpus until ``seconds`` have passed, the corpus has
    run once and at least one program has run twice.  With ``trace``,
    programs run plain for half the time, then the same programs
    traced.  Returns (window, tracing overhead %, traced wall s)."""
    window = Window()
    window.unreferenced = sum(r.error is not None for r in refs)
    seen: dict = {}
    t0 = time.perf_counter()
    budget = seconds if trace is None else seconds / 2
    minimum = len(corpus) + 1 if trace is None else 1
    plain_order: list[int] = []
    speed = HostSpeed()

    def order():
        for n in itertools.count():
            if n >= minimum and time.perf_counter() - t0 >= budget:
                return
            plain_order.append(n % len(corpus))
            yield n % len(corpus)

    with RunTap() as tap:
        window.wall_s = _fuzz_programs(corpus, order(), tap, window, speed)
        window.slowdown = speed.slowdown()
        _judge_fuzz(window, refs, seen, 0)
        if trace is None:
            return window, 0.0, 0.0
        plain = window.wall_s / window.slowdown
        start, speed = len(window.ops), HostSpeed()
        window.wall_s = _fuzz_programs(corpus, iter(plain_order), tap,
                                       window, speed, trace)
        window.slowdown = speed.slowdown()
        _judge_fuzz(window, refs, seen, start)
    traced = window.wall_s / window.slowdown
    return window, (traced / plain - 1) * 100, window.wall_s


# -- serve-mixed -------------------------------------------------------------

def serve_tape(seed: int) -> list[dict]:
    """The request tape: ``{"method", "params", "new"}`` per entry, a
    pure function of the seed.  In every block, half the annotate,
    check and run entries repeat an earlier entry of the same method
    exactly (so a repeated ``run`` reads the compile cache); the others
    carry a new source, drawn with LoadSpec's generator settings
    stratified by size.  ``new`` marks those.  The first block is drawn
    from ANCHOR_SEED, the others from ``seed``."""
    base = GenOptions(max_statements=10)
    tape: list[dict] = []
    earlier: dict[str, list[int]] = {m: [] for m in ("annotate", "check",
                                                     "run")}
    block = [m for m, n in SERVE_BLOCK.items() for _ in range(n)]
    for b in range(SERVE_TAPE_BLOCKS):
        if b <= 1:  # the anchor block, then the seed's blocks
            block_seed = (ANCHOR_SEED, seed)[b]
            rng, sizes = random.Random(block_seed), []
        methods = block[:]
        rng.shuffle(methods)
        repeats = {}
        for method in earlier:
            n = SERVE_BLOCK[method]
            repeats[method] = [k < n // 2 for k in range(n)]
            rng.shuffle(repeats[method])
        for method in methods:
            i = len(tape)
            if method == "bench":
                tape.append({"method": method, "new": False,
                             "params": dict(SERVE_BENCH_PARAMS)})
                continue
            if method == "fuzz":
                tape.append({"method": method, "new": False, "params": {
                    "seed": block_seed * 1_000_003 + i, "iters": 1,
                    "models": [MODEL], "max_instructions": 2_000_000}})
                continue
            pool = earlier[method]
            if repeats[method].pop() and pool:
                tape.append({**tape[rng.choice(pool)], "new": False})
                continue
            if not sizes:
                sizes = stratified_options(rng, base, 32)
            params: dict = {"source": generate_program(
                block_seed * 1_000_003 + i, sizes.pop()), "run_cpp": False}
            if method == "annotate":
                params["mode"] = rng.choice(("safe", "checked"))
            elif method == "run":
                params["config"] = rng.choice(("O", "O_safe", "g"))
                params["max_instructions"] = FUZZ_MAX_INSTRUCTIONS
            pool.append(i)
            tape.append({"method": method, "params": params, "new": True})
    return tape


def start_daemon(cache_dir: str):
    """A fresh daemon over an empty cache directory."""
    from repro.serve.daemon import ServeConfig, start_in_thread
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    return start_in_thread(ServeConfig(workers=SERVE_WORKERS,
                                       cache_dir=cache_dir))


def serve_loop(port: int, tape: list[dict], seconds: float | None,
               count: int | None = None) -> tuple[float, list]:
    """Closed loop: each client takes the next tape entry when its last
    request has completed.  The first entry taken after ``seconds``
    sets the end of the window to the next block boundary, so every
    window serves whole blocks with the same mix of methods and heavy
    jobs; without ``seconds`` the loop serves the first ``count``
    entries.  Returns (wall, [(ms, result envelope | None, error |
    None)] per served entry)."""
    from repro.serve.client import Client, ServeError
    limit = min(count or len(tape), len(tape))
    records: list = [None] * limit
    counter = itertools.count()
    stop = [limit]
    lock = threading.Lock()
    errors: list[BaseException] = []

    def take() -> int | None:
        with lock:
            i = next(counter)
            if (seconds is not None and stop[0] == limit
                    and time.perf_counter() - t0 >= seconds):
                stop[0] = min(limit, max(SERVE_COUNTED,
                                         -(-i // SERVE_BLOCK_SIZE)
                                         * SERVE_BLOCK_SIZE))
            return i if i < stop[0] else None

    def client_main(k: int) -> None:
        try:
            with Client(port=port, tenant=f"t{k}", timeout=120.0) as client:
                while (i := take()) is not None:
                    entry = tape[i]
                    c0 = time.perf_counter()
                    try:
                        doc, error = client.call(entry["method"],
                                                 entry["params"]), None
                    except ServeError as exc:
                        doc, error = None, str(exc)
                    except OSError as exc:
                        doc, error = None, f"transport: {exc!r}"
                    records[i] = ((time.perf_counter() - c0) * 1e3, doc,
                                  error)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client_main, args=(k,),
                                name=f"perfbench-client-{k}")
               for k in range(SERVE_CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, records[:stop[0]]


def judge_serve(tape: list[dict], served: list, refs: dict,
                serial: dict, seen: dict) -> Window:
    """Builds the window from served records.  ``refs`` maps source ->
    gcc Reference (run and bench entries); ``serial`` maps
    ``(method, canonical params)`` -> the serial envelope bytes for
    annotate/check entries; ``seen`` holds the counts of every run
    cell judged so far (repeats must match them)."""
    from repro.api.build import dumps_canonical
    window = Window()
    for i, (ms, doc, error) in enumerate(served):
        entry = tape[i]
        method, params = entry["method"], entry["params"]
        failure, known = None, False
        if error is not None:
            failure = error
            known = (method == "bench" and params == SERVE_BENCH_PARAMS
                     and error.startswith("job_failed:")
                     and KNOWN_BENCH_FAILURE in error)
        elif method == "run":
            ref = refs[params["source"]]
            counts = {k: doc[k] for k in ("exit_code", "instructions",
                                          "cycles", "collections",
                                          "code_size")}
            failure = _check_repeat(seen, (params["source"],
                                           params["config"]), counts)
            if ref.error is not None:
                failure = f"unreferenced: {ref.error}"
            elif not ref.matches(doc["exit_code"], doc["output"]):
                failure = (f"output differs from gcc: exit "
                           f"{doc['exit_code']} vs {ref.exit_code}")
            window.instructions += doc["instructions"]
            if i < SERVE_COUNTED:
                window.sim_cycles += doc["cycles"]
                window.code_bytes += doc["code_size"]
            window.cells.append({"entry": i, "config": params["config"],
                                 **counts})
        elif method in ("annotate", "check"):
            if dumps_canonical(doc) != serial[_serial_key(entry)]:
                failure = f"{method} envelope differs from the serial run"
        elif method == "bench":
            ref = refs[load_workload("cordtest")]
            for configs in doc["cells"].values():
                for config, cell in configs.items():
                    if (cell["exit_code"] & 0xFF) != ref.exit_code:
                        failure = f"bench {config} exit differs from gcc"
        elif method == "fuzz" and not doc["ok"]:
            failure = "fuzz job found a mismatch: " + "; ".join(
                doc["findings"])
        # A cached run skips compilation, so only a run of a new source
        # is a whole compile+run cell.
        window.ops.append(Op(ms, method == "run" and entry["new"], failure,
                             known))
        window.programs += entry["new"]
    return window


def _serial_key(entry: dict) -> tuple:
    from repro.api.build import dumps_canonical
    return entry["method"], dumps_canonical(entry["params"])


def serial_references(tape: list[dict], served_count: int) -> dict:
    """Annotate/check envelopes of the served prefix, run in-process
    without a daemon (the bytes a served reply must equal)."""
    from repro.api.build import dumps_canonical
    from repro.serve.jobs import JobDefaults, run_job
    defaults = JobDefaults(model=MODEL, workers=SERVE_WORKERS)
    out: dict = {}
    for entry in tape[:served_count]:
        if entry["method"] in ("annotate", "check"):
            key = _serial_key(entry)
            if key not in out:
                out[key] = dumps_canonical(run_job(entry["method"],
                                                   entry["params"], defaults))
    return out


def is_correct(window: Window) -> bool:
    """No operation failed other than by the known bench defect, and
    every program had a gcc reference."""
    return window.unreferenced == 0 and all(
        op.failure is None or op.known for op in window.ops)
