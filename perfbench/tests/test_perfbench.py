"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench/tests -q

Two tests run the benchmark end to end on serve-mixed with a short
window (about ten seconds each); the rest are quick.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Reference, ReferenceBuilder  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def serve_runs() -> dict:
    """One untraced and one traced short serve-mixed run."""
    out = {}
    for trace in ("0", "1"):
        proc = _bench("--workload", "serve-mixed", "--seed", "7",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


# -- inputs are a pure function of the seed ---------------------------------

def test_tape_is_a_pure_function_of_the_seed():
    assert wl.serve_tape(3) == wl.serve_tape(3)
    assert wl.serve_tape(3) != wl.serve_tape(4)
    # The counted prefix is the anchor block, shared by every seed.
    counted = wl.SERVE_COUNTED
    assert wl.serve_tape(3)[:counted] == wl.serve_tape(4)[:counted]
    assert wl.serve_tape(3)[counted:] != wl.serve_tape(4)[counted:]


def test_tape_blocks_have_the_fixed_method_mix():
    tape = wl.serve_tape(5)
    block = sum(wl.SERVE_BLOCK.values())
    assert len(tape) == block * wl.SERVE_TAPE_BLOCKS
    for start in range(0, len(tape), block):
        mix: dict = {}
        for entry in tape[start:start + block]:
            mix[entry["method"]] = mix.get(entry["method"], 0) + 1
        assert mix == wl.SERVE_BLOCK
    sourced = [e for e in tape if "source" in e["params"]]
    repeats = sum(not e["new"] for e in sourced) / len(sourced)
    assert 0.4 < repeats < 0.6


def test_corpus_is_a_pure_function_of_the_seed():
    assert wl.fuzz_inputs(3) == wl.fuzz_inputs(3)
    assert wl.fuzz_inputs(3) != wl.fuzz_inputs(4)
    assert len(set(wl.fuzz_inputs(3))) == wl.FUZZ_CORPUS
    anchors = wl.FUZZ_ANCHORS
    assert wl.fuzz_inputs(3)[:anchors] == wl.fuzz_inputs(4)[:anchors]
    assert not set(wl.fuzz_inputs(3)[anchors:]) & set(wl.fuzz_inputs(4))
    assert wl.paper_inputs(1) == wl.paper_inputs(2)


# -- the reference check -----------------------------------------------------

PROGRAM = """int main(void) {
    int *a = (int *)GC_malloc(4 * sizeof(int));
    a[2] = 41;
    printf("%d\\n", a[2] + 1);
    return 300;
}
"""


def test_reference_accepts_the_vm_and_rejects_corruption(tmp_path):
    from repro.fuzz.oracle import compile_and_run
    ref = ReferenceBuilder(str(tmp_path)).build(PROGRAM)
    vm = compile_and_run(PROGRAM, "g")
    assert ref == Reference(300 & 0xFF, "42\n")
    assert ref.matches(vm.exit_code, vm.output)
    assert not Reference(ref.exit_code, "43\n").matches(vm.exit_code,
                                                        vm.output)
    assert not Reference(ref.exit_code + 1, ref.output).matches(
        vm.exit_code, vm.output)


def test_unreferenced_program_never_passes(tmp_path):
    ref = ReferenceBuilder(str(tmp_path)).build("int main(void) { return }")
    assert ref.error is not None
    assert not ref.matches(ref.exit_code, ref.output)


def test_corrupted_reference_fails_every_fuzz_cell(tmp_path):
    corpus = wl.fuzz_inputs(0)[:1]
    good = ReferenceBuilder(str(tmp_path)).build(corpus[0])
    bad = Reference(good.exit_code, good.output + "corrupted")
    window, _, _ = wl.run_fuzz(0, corpus, [bad])
    assert window.ops and all(op.failure for op in window.ops)
    window, _, _ = wl.run_fuzz(0, corpus, [good])
    assert not any(op.failure for op in window.ops)


# -- reported names ----------------------------------------------------------

def test_printed_metrics_match_benchmark_json(serve_runs):
    spec = _spec()
    for trace, declared in (("0", spec["end_to_end"]),
                            ("1", spec["per_layer"])):
        printed = serve_runs[trace]["metrics"]
        assert list(printed) == [m["name"] for m in declared]
        assert [v["unit"] for v in printed.values()] == [
            m["unit"] for m in declared]


def test_known_serve_failure_is_counted_not_hidden(serve_runs):
    result = serve_runs["0"]
    served = result["attempted"]
    benches = sum(e["method"] == "bench"
                  for e in wl.serve_tape(7)[:served])
    assert benches >= 1
    assert result["failed"] == benches
    assert result["correct"] is True


def test_only_the_bench_subset_failure_is_excused():
    tape = wl.serve_tape(5)
    message = "job_failed: KeyError: 'O_safe'"
    for method, excused in (("bench", True), ("annotate", False),
                            ("run", False)):
        entry = next(e for e in tape if e["method"] == method)
        window = wl.judge_serve([entry], [(1.0, None, message)], {}, {}, {})
        assert window.ops[0].failure == message
        assert wl.is_correct(window) is excused


# -- the traced run adds up --------------------------------------------------

def test_self_times_and_residual_make_the_traced_wall(serve_runs):
    metrics = {k: v["value"] for k, v in serve_runs["1"]["metrics"].items()}
    parts = sum(metrics[name] for name in layers.additive_layers())
    assert parts + metrics["residual_ms"] == pytest.approx(
        metrics["traced_wall_ms"], rel=1e-9)
    assert metrics["residual_ms"] >= 0
    assert metrics["serve.task_ms"] > 0


def test_layer_trace_partitions_a_compile_and_run():
    import time
    from repro.fuzz.oracle import compile_and_run
    source = wl.fuzz_inputs(0)[0]
    trace = layers.LayerTrace()
    trace.install()
    try:
        t0 = time.perf_counter_ns()
        compile_and_run(source, "O_safe", gc_interval=1, sink=True)
        wall = time.perf_counter_ns() - t0
    finally:
        trace.uninstall()
    metrics = layers.layer_metrics(trace, wall, overhead_pct=0.0,
                                   fail_ratio=0.0)
    parts = sum(metrics[name] for name in layers.additive_layers())
    assert 0 <= metrics["residual_ms"] < 0.2 * metrics["traced_wall_ms"]
    assert parts + metrics["residual_ms"] == pytest.approx(
        metrics["traced_wall_ms"])
    assert metrics["gc.collections"] > 0 and metrics["core.keep_lives"] > 0
    from repro.machine.vm import VM
    assert not hasattr(VM.run, "__wrapped__")


# -- a checkout without the program ------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "paper-matrix", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
