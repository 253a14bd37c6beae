"""Superinstruction tests: plan selection, persisted profiles, tiered
fusion, and the bit-identity guarantees fusion must uphold."""

import json

import pytest

from repro.exec.cache import ResultCache
from repro.machine import CompileConfig, VM, compile_source
from repro.machine.models import MODELS
from repro.machine import superinst
from repro.machine.superinst import (
    TIER_THRESHOLD, SuperinstPlan, load_pgo, plan_from_pgo,
    plan_from_profile, save_pgo,
)
from repro.gc import GCCheckError
from repro.machine.asm import ALU_OPS, UNARY_OPS
from repro.machine.vm import ALU_FUNCS, UNARY_FUNCS, VMError
from repro.obs.vmprof import CHECK_BUILTINS, PGO_SCHEMA, VMProfile

# Two hot loops (a leaf kernel called in a loop) — enough structure for
# real fusion: self-looping inner blocks, calls that must not fuse, and
# branches as early exits.
PROGRAM = """
int work(int n) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i++) acc = (acc + i * 3) & 0xFFFF;
    return acc;
}
int main(void) {
    int k;
    int r = 0;
    for (k = 0; k < 40; k++) r = (r + work(200) + k) & 0xFFFF;
    printf("%d\\n", r);
    return r & 0xFF;
}
"""


# The explicit unfused reference: an empty plan fuses nothing, whereas
# ``superinst=None`` tiers hot runs up by entry count.
UNFUSED = SuperinstPlan(frozenset())

# Dereferences NULL after 400 hot calls: the fault lands inside a fused
# run once ``get`` has tiered up.
NULL_DEREF = """
int get(int *p, int i) { return p[i & 3] + i; }
int main(void) {
    int buf[4];
    int k;
    int acc = 0;
    buf[0] = 1; buf[1] = 2; buf[2] = 3; buf[3] = 4;
    for (k = 0; k < 400; k++) acc = (acc + get(buf, k)) & 0xFFFF;
    acc = acc + get(0, 0);
    return acc;
}
"""


def fuse_every_block(asm) -> SuperinstPlan:
    return SuperinstPlan(frozenset(
        (name, block) for name, mf in asm.functions.items()
        for block in ["entry"] + [i.symbol for i in mf.insts
                                  if i.op == "label"]))


def run_key(result):
    """Everything observable about a run."""
    return (result.exit_code, result.instructions, result.cycles,
            result.output, result.collections, result.checks)


def profiled_plan(config_name="O", model_key="ss10"):
    """Compile PROGRAM, profile one run, return (compiled, plan)."""
    model = MODELS[model_key]
    compiled = compile_source(PROGRAM, CompileConfig.named(config_name, model))
    profile = VMProfile()
    VM(compiled.asm, model, profile=profile).run()
    return compiled, plan_from_profile(profile)


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        _, plan = profiled_plan()
        compiled, _ = profiled_plan()
        profile = VMProfile(tag="t")
        VM(compiled.asm, MODELS["ss10"], profile=profile).run()
        doc = profile.to_pgo()
        assert doc["schema"] == PGO_SCHEMA
        path = str(tmp_path / "p.pgo.json")
        save_pgo(doc, path)
        loaded = load_pgo(path)
        assert loaded == doc
        assert plan_from_pgo(loaded) == plan_from_pgo(doc)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="not a repro-vmprof-pgo/1"):
            load_pgo(str(path))

    def test_save_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ValueError, match="refusing"):
            save_pgo({"schema": "nope"}, str(tmp_path / "x.json"))


class TestPlan:
    def test_selection_is_deterministic(self):
        _, plan_a = profiled_plan()
        _, plan_b = profiled_plan()
        assert plan_a.blocks == plan_b.blocks
        assert plan_a.digest() == plan_b.digest()

    def test_digest_tracks_block_set(self):
        a = SuperinstPlan(frozenset({("f", "entry")}))
        b = SuperinstPlan(frozenset({("f", "entry"), ("g", ".L1")}))
        assert a.digest() != b.digest()
        assert a.digest().startswith("pgo-")

    def test_empty_plan_is_falsy(self):
        assert not SuperinstPlan(frozenset())
        assert SuperinstPlan(frozenset({("f", "entry")}))

    def test_min_share_floor_drops_cold_blocks(self):
        doc = {
            "schema": PGO_SCHEMA, "tag": "", "runs": 1,
            "total_cycles": 1000, "total_instructions": 1000,
            "blocks": [
                {"function": "hot", "block": "entry", "cycles": 990,
                 "instructions": 990},
                {"function": "cold", "block": "entry", "cycles": 1,
                 "instructions": 1},
            ],
        }
        plan = plan_from_pgo(doc, min_share=0.01)
        assert ("hot", "entry") in plan.blocks
        assert ("cold", "entry") not in plan.blocks


class TestBitIdentity:
    @staticmethod
    def assert_bit_identical(model_key, plan):
        model = MODELS[model_key]
        compiled = compile_source(PROGRAM, CompileConfig.named("O", model))
        base = VM(compiled.asm, model, superinst=UNFUSED).run()
        fused_vm = VM(compiled.asm, model, superinst=plan)
        fused = fused_vm.run()
        assert fused_vm.superinst_stats is not None
        assert fused_vm.superinst_stats.runs > 0
        assert run_key(fused) == run_key(base)

    @pytest.mark.parametrize("model_key", ("ss2", "ss10", "p90"))
    def test_fused_run_is_bit_identical(self, model_key):
        self.assert_bit_identical(model_key,
                                  profiled_plan(model_key=model_key)[1])

    @pytest.mark.parametrize("model_key", ("ss2", "ss10", "p90"))
    def test_tiered_run_is_bit_identical(self, model_key):
        self.assert_bit_identical(model_key, None)

    def test_profiler_invariants_hold_under_fusion(self):
        compiled, plan = profiled_plan()
        profile = VMProfile()
        result = VM(compiled.asm, MODELS["ss10"], superinst=plan,
                    profile=profile).run()
        assert profile.total_cycles == result.cycles
        assert profile.total_instructions == result.instructions

    @staticmethod
    def assert_gc_interval_unfused(plan):
        # The async-collection trigger must see every instruction
        # boundary; fusion batches counter updates, so it turns off.
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        vm = VM(compiled.asm, MODELS["ss10"], superinst=plan, gc_interval=64)
        base = VM(compiled.asm, MODELS["ss10"], superinst=UNFUSED,
                  gc_interval=64).run()
        fused = vm.run()
        assert vm.superinst_stats is None
        assert run_key(fused) == run_key(base)

    def test_gc_interval_disables_fusion(self):
        self.assert_gc_interval_unfused(profiled_plan()[1])

    def test_gc_interval_disables_tiering(self):
        self.assert_gc_interval_unfused(None)

    @staticmethod
    def assert_budget_raise_equivalent(plan, budget):
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        model = MODELS["ss10"]

        def run_with(superinst):
            vm = VM(compiled.asm, model, superinst=superinst,
                    max_instructions=budget)
            try:
                vm.run()
            except VMError as exc:
                return str(exc), vm._st[0], vm._st[1], dict(vm.regs)
            return None, vm._st[0], vm._st[1], dict(vm.regs)

        base = run_with(UNFUSED)
        assert base[0] is not None, "budget chosen too large for the test"
        assert base[1] == budget + 1
        assert run_with(plan) == base

    @pytest.mark.parametrize("budget", (10, 997, 12345))
    def test_budget_raise_is_equivalent(self, budget):
        self.assert_budget_raise_equivalent(profiled_plan()[1], budget)

    @pytest.mark.parametrize("budget", (10, 997, 12345))
    def test_tiered_budget_raise_is_equivalent(self, budget):
        self.assert_budget_raise_equivalent(None, budget)


class TestCacheSalting:
    def test_pgo_and_sink_salt_result_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = CompileConfig.named("O")
        _, plan = profiled_plan()
        plain = cache.key_for(PROGRAM, config)
        pgod = cache.key_for(PROGRAM, config, pgo=plan.digest())
        sunk = cache.key_for(PROGRAM, config, sink=True)
        both = cache.key_for(PROGRAM, config, pgo=plan.digest(), sink=True)
        assert len({plain, pgod, sunk, both}) == 4

    def test_default_knobs_leave_keys_unchanged(self, tmp_path):
        # pgo=None / sink=False must address the same entry as a caller
        # that never heard of either knob.
        cache = ResultCache(str(tmp_path))
        config = CompileConfig.named("O")
        assert (cache.key_for(PROGRAM, config)
                == cache.key_for(PROGRAM, config, pgo=None, sink=False))

    def test_different_plans_different_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = CompileConfig.named("O")
        a = SuperinstPlan(frozenset({("work", "entry")}))
        b = SuperinstPlan(frozenset({("main", "entry")}))
        assert (cache.key_for(PROGRAM, config, pgo=a.digest())
                != cache.key_for(PROGRAM, config, pgo=b.digest()))


class TestTiered:
    """``superinst=None``: runs fuse on their TIER_THRESHOLD-th entry."""

    def test_empty_plan_is_unfused(self):
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        vm = VM(compiled.asm, MODELS["ss10"], superinst=UNFUSED)
        vm.run()
        assert vm.superinst_stats is None

    def test_profile_disables_tiering(self):
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        profile = VMProfile()
        vm = VM(compiled.asm, MODELS["ss10"], profile=profile)
        result = vm.run()
        assert vm.superinst_stats is None
        assert profile.total_cycles == result.cycles
        assert profile.total_instructions == result.instructions

    def test_only_runs_reaching_the_threshold_compile(self, monkeypatch):
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        model = MODELS["ss10"]

        # Count every run's entries with tiering held off.
        monkeypatch.setattr(superinst, "TIER_THRESHOLD", 1 << 60)
        vm = VM(compiled.asm, model)
        entries = {}
        for name, insts in vm.code.items():
            ops = vm._ops[name]
            for start, _, _ in superinst._find_runs(vm, name, insts,
                                                    vm.labels[name]):
                entries[name, start] = 0

                def count(pc, _op=ops[start], _key=(name, start)):
                    entries[_key] += 1
                    return _op(pc)
                ops[start] = count
        vm.run()
        assert vm.superinst_stats.runs == 0
        hot = {k for k, n in entries.items() if n >= TIER_THRESHOLD}
        assert hot and hot != set(entries), "PROGRAM needs hot and cold runs"

        monkeypatch.setattr(superinst, "TIER_THRESHOLD", TIER_THRESHOLD)
        compiled_runs = []
        real = superinst._compile_run

        def spy(vm, insts, start, end, labels, leader):
            name = next(n for n, code in vm.code.items() if code is insts)
            compiled_runs.append((name, start))
            return real(vm, insts, start, end, labels, leader)
        monkeypatch.setattr(superinst, "_compile_run", spy)
        vm = VM(compiled.asm, model)
        vm.run()
        assert sorted(compiled_runs) == sorted(hot)
        stats = vm.superinst_stats
        assert stats.runs == len(hot)
        assert stats.per_function == {
            name: sum(1 for n, _ in hot if n == name)
            for name in {n for n, _ in hot}}

    def test_tiered_runs_survive_a_second_run(self):
        compiled = compile_source(PROGRAM, CompileConfig.named("O"))
        model = MODELS["ss10"]
        base_vm = VM(compiled.asm, model, superinst=UNFUSED)
        vm = VM(compiled.asm, model)
        first = (vm.run(), base_vm.run())
        second = (vm.run(), base_vm.run())
        for tiered, base in (first, second):
            assert run_key(tiered) == run_key(base)


class TestFaultExactness:
    """A fault or budget raise inside a fused run must stop on the same
    instruction, with the same message, registers and counters, as the
    per-instruction loop."""

    @staticmethod
    def state(compiled, superinst, budget):
        vm = VM(compiled.asm, MODELS["ss10"], superinst=superinst,
                max_instructions=budget)
        try:
            vm.run()
            err = None
        except VMError as exc:
            err = str(exc)
        return err, vm._st[0], vm._st[1], dict(vm.regs)

    def test_fault_budget_window(self):
        compiled = compile_source(NULL_DEREF, CompileConfig.named("O"))
        err, fault_at, _, _ = self.state(compiled, UNFUSED, 10 ** 7)
        assert err == "load fault at 0x00000000"
        for superinst in (fuse_every_block(compiled.asm), None):
            for budget in range(fault_at - 3, fault_at + 6):
                expect = self.state(compiled, UNFUSED, budget)
                got = self.state(compiled, superinst, budget)
                assert got == expect, (superinst, budget)

    def test_fault_lands_in_fused_code(self):
        # Guard the test's premise: ``get`` is fused by both paths.
        compiled = compile_source(NULL_DEREF, CompileConfig.named("O"))
        for superinst in (fuse_every_block(compiled.asm), None):
            vm = VM(compiled.asm, MODELS["ss10"], superinst=superinst)
            with pytest.raises(VMError, match="load fault"):
                vm.run()
            assert vm.superinst_stats.per_function.get("get", 0) > 0

    def test_unaligned_and_page_crossing_words_are_exact(self):
        # Word accesses off the word views' fast path: unaligned within
        # a page, and straddling the boundary of a large heap object's
        # two pages.  Unfused they take the byte path; fused they fall
        # back to it.
        src = """
        int main(void) {
            char *buf = (char *) GC_malloc(8192);
            int k;
            int acc = 0;
            for (k = 0; k < 300; k++) {
                int off = (k & 7) + ((k & 8) ? 4088 : 0);
                int *q = (int *) (buf + off);
                *q = (*q + k * 65537) & 0x7FFFFFFF;
                acc = (acc + *q) & 0xFFFFFF;
            }
            return acc;
        }
        """
        compiled = compile_source(src, CompileConfig.named("O"))
        base = VM(compiled.asm, MODELS["ss10"], superinst=UNFUSED).run()
        assert base.exit_code != 0
        for superinst in (fuse_every_block(compiled.asm), None):
            vm = VM(compiled.asm, MODELS["ss10"], superinst=superinst)
            assert run_key(vm.run()) == run_key(base)
            assert vm.superinst_stats.runs > 0

    def test_division_by_zero_is_exact(self):
        src = """
        int q(int a, int b) { return (a * 3 + 1) / b; }
        int main(void) {
            int k;
            int acc = 0;
            for (k = 1; k < 300; k++) acc = (acc + q(k, k)) & 0xFFFF;
            return acc + q(1, 0);
        }
        """
        compiled = compile_source(src, CompileConfig.named("O"))
        err, fault_at, _, _ = self.state(compiled, UNFUSED, 10 ** 7)
        assert err == "integer division by zero in div"
        for superinst in (fuse_every_block(compiled.asm), None):
            for budget in (fault_at - 1, fault_at, 10 ** 7):
                assert (self.state(compiled, superinst, budget)
                        == self.state(compiled, UNFUSED, budget))


# A checked hot loop: ``a[i]`` becomes GC_same_obj, ``p++`` becomes
# GC_post_incr, and ``bases`` calls GC_base/GC_check_base directly.
CHECKED = """
extern void *GC_check_base(void *p);
int sum(int *a, int n) {
    int *p;
    int s = 0;
    for (p = a; p < a + n; p++) s = (s + *p) & 0xFFFFFF;
    return s;
}
int bases(int **v, int n) {
    int i;
    int c = 0;
    for (i = 0; i < n; i++) {
        if (GC_base(v[i] + 1) == v[i]) c++;
        GC_check_base(v[i]);
    }
    return c;
}
int main(void) {
    int *a = (int *) GC_malloc(64 * sizeof(int));
    int **v = (int **) GC_malloc(8 * sizeof(int *));
    int i, k;
    int r = 0;
    for (i = 0; i < 64; i++) a[i] = i * 7;
    for (i = 0; i < 8; i++) v[i] = (int *) GC_malloc(16);
    for (k = 0; k < 300; k++) {
        r = (r + sum(a, 64) + k) & 0xFFFF;
        r = (r + bases(v, 8)) & 0xFFFF;
    }
    printf("%d\\n", r);
    return r & 0xFF;
}
"""

# After 300 good calls, ``walk`` runs off the end of its array: the
# failing check lands in a fused run (GC_same_obj for the index, or
# GC_post_incr for the pointer walk).
WALK_INDEX = """
int walk(int *a, int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s = (s + a[i]) & 0xFFFF;
    return s;
}
int main(void) {
    int *a = (int *) GC_malloc(16 * sizeof(int));
    int k;
    int r = 0;
    for (k = 0; k < 300; k++) r = (r + walk(a, 16) + k) & 0xFFFF;
    return r + walk(a, 40);
}
"""
WALK_POINTER = WALK_INDEX.replace(
    "for (i = 0; i < n; i++) s = (s + a[i]) & 0xFFFF;",
    "int *p = a; for (i = 0; i < n; i++) { s = (s + *p) & 0xFFFF; p++; }")

# GC_pre_incr on a mapped slot 300 times, then on the unmapped slot 0.
BUMP_UNMAPPED = """
extern void *GC_pre_incr(void *p, int n);
int *bump(int **slot) { return (int *) GC_pre_incr(slot, 4); }
int main(void) {
    int *a = (int *) GC_malloc(16);
    int *p;
    int k;
    int r = 0;
    for (k = 0; k < 300; k++) { p = a; r = r + (bump(&p) - a); }
    bump((int **) 0);
    return r;
}
"""


def check_counts(stats) -> tuple:
    return (stats.checks_performed, stats.same_obj_checks,
            stats.incr_checks, stats.base_checks)


class TestFusedChecks:
    """Pointer checks fuse inline, with exact counts and failures."""

    def test_checked_hot_loop_fuses_its_check(self, monkeypatch):
        # Premise: the tiered default really runs GC_same_obj inside a
        # fused run (not at a run boundary, as before checks fused).
        compiled = compile_source(WALK_INDEX.replace("walk(a, 40)", "0"),
                                  CompileConfig.named("g_checked"))
        covered = []
        real = superinst._compile_run

        def spy(vm, insts, start, end, labels, leader):
            covered.extend(insts[i].symbol for i in range(start, end + 1)
                           if insts[i].op == "call")
            return real(vm, insts, start, end, labels, leader)
        monkeypatch.setattr(superinst, "_compile_run", spy)
        VM(compiled.asm, MODELS["ss10"]).run()
        assert "GC_same_obj" in covered

    @pytest.mark.parametrize("model_key", ("ss2", "ss10", "p90"))
    def test_checked_run_is_bit_identical(self, model_key):
        model = MODELS[model_key]
        compiled = compile_source(CHECKED,
                                  CompileConfig.named("g_checked", model))
        runs = {}
        for label, plan in (("unfused", UNFUSED), ("tiered", None),
                            ("every", fuse_every_block(compiled.asm))):
            vm = VM(compiled.asm, model, superinst=plan)
            result = vm.run()
            runs[label] = run_key(result) + check_counts(vm.gc.stats)
            if plan is not UNFUSED:
                assert vm.superinst_stats.runs > 0
        assert runs["unfused"][5] > 0
        assert all(runs["unfused"][6:]), "CHECKED must use every kind"
        assert runs["tiered"] == runs["unfused"]
        assert runs["every"] == runs["unfused"]

    @staticmethod
    def failure_state(compiled, superinst, budget=10 ** 7):
        vm = VM(compiled.asm, MODELS["ss10"], superinst=superinst,
                max_instructions=budget)
        try:
            vm.run()
            err = None
        except (GCCheckError, VMError) as exc:
            err = f"{type(exc).__name__}: {exc}"
        stats = {k: v for k, v in vm.gc.stats.to_dict().items()
                 if not k.endswith("_ns") and "histogram" not in k}
        return err, list(vm._st), dict(vm.regs), stats

    @pytest.mark.parametrize("source, config, message", (
        (WALK_INDEX, "g_checked", "GCCheckError: pointer arithmetic"),
        (WALK_POINTER, "g_checked", "GCCheckError: pointer arithmetic"),
        (BUMP_UNMAPPED, "O", "VMError: unmapped address: 0x00000000"),
    ), ids=("same_obj", "post_incr", "pre_incr_unmapped"))
    def test_failure_is_exact(self, source, config, message):
        compiled = compile_source(source, CompileConfig.named(config))
        expect = self.failure_state(compiled, UNFUSED)
        assert expect[0].startswith(message)
        for superinst in (None, fuse_every_block(compiled.asm)):
            assert self.failure_state(compiled, superinst) == expect

    def test_budget_raise_in_checked_run_is_exact(self):
        compiled = compile_source(CHECKED, CompileConfig.named("g_checked"))
        _, (total, _), _, _ = self.failure_state(compiled, UNFUSED)
        every = fuse_every_block(compiled.asm)
        for budget in (total // 3, total // 2 + 1, total - 7):
            expect = self.failure_state(compiled, UNFUSED, budget)
            assert expect[0].startswith("VMError: instruction budget")
            for superinst in (None, every):
                assert (self.failure_state(compiled, superinst, budget)
                        == expect), (superinst, budget)

    def test_profiled_vm_keeps_checks_unfused(self):
        # The profiler counts each check call site, so under a plan a
        # profiled VM fuses around the checks, not through them.
        compiled = compile_source(CHECKED, CompileConfig.named("g_checked"))
        profile = VMProfile()
        vm = VM(compiled.asm, MODELS["ss10"],
                superinst=fuse_every_block(compiled.asm), profile=profile)
        result = vm.run()
        counted = sum(cell[0] for (_, _, _, name), cell
                      in profile.checks.items() if name != "GC_base")
        assert counted == result.checks > 0


EDGE_VALUES = (0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0x80000001,
               0xFFFFFFFE, 0xFFFFFFFF)


class TestInlineTemplates:
    def test_every_op_is_inlined_or_falls_back(self):
        assert set(superinst._INLINE_RR) | superinst._RAISING_OPS == ALU_OPS
        assert set(superinst._INLINE_UNARY) == UNARY_OPS
        assert set(superinst._CHECK_COUNTERS) == CHECK_BUILTINS

    @pytest.mark.parametrize("op", sorted(superinst._INLINE_RR))
    def test_binary_template_matches_semantics(self, op):
        tmpl = superinst._INLINE_RR[op]
        for a in EDGE_VALUES:
            for b in EDGE_VALUES:
                got = eval(tmpl.format(a=a, b=b))
                assert got == ALU_FUNCS[op](a, b), (op, a, b)

    @pytest.mark.parametrize("op", sorted(superinst._INLINE_UNARY))
    def test_unary_template_matches_semantics(self, op):
        tmpl = superinst._INLINE_UNARY[op]
        for a in EDGE_VALUES:
            assert eval(tmpl.format(a=a)) == UNARY_FUNCS[op](a), (op, a)
