"""Superinstructions: fuse hot straight-line MInst sequences into
single dispatched closures.

The threaded-code interpreter (``vm.py``) pays a fixed per-instruction
toll: one dict-free loop iteration (count, budget check, dispatch) plus
one closure call per MInst.  For hot inner blocks that toll dominates —
the arithmetic inside the closures is cheap compared to the dispatch
around them.  A *superinstruction* collapses a straight-line run of
fusable instructions into a single ``exec``-compiled closure: registers
are cached in Python locals across the run, loads/stores keep their
fast path inline (an aligned word is one index into its page's word
view), and the loop dispatches once for the whole run.

Which runs fuse
---------------

* **Tiered (the default).**  A VM built with ``superinst=None`` and no
  profile attached installs a counting trigger at the head of every
  candidate run (every block counts as hot).  The trigger runs the
  plain closure until the run has been entered
  :data:`TIER_THRESHOLD` times, then compiles the run, replaces itself
  with the fused closure and runs it.  Cold code is never compiled, and
  the compile cost is paid inside ``VM.run`` only where entries repay it.
* **A fixed plan** (``--pgo``): a ``repro-vmprof-pgo/1`` envelope
  (emitted by ``repro.obs`` from a profiled run, or by
  ``VMProfile.to_pgo``) names each basic block's cycle share; the plan
  takes the top-N blocks above a minimum share and fuses their runs
  eagerly at link time.  The plan's digest salts result-cache keys so
  PGO'd runs never alias unPGO'd cache entries.
* **The unfused reference**: an empty ``SuperinstPlan(frozenset())``
  fuses nothing.  Fusion is also off whenever ``gc_interval`` is
  nonzero (the asynchronous-collection trigger must observe every
  instruction boundary, and batching counter updates would shift which
  instructions collections land on), and a profiled VM without a plan
  stays unfused so its per-instruction attribution stays exact.

A run may contain conditional branches as *early exits*: the fused
closure evaluates the condition inline, and on a taken branch writes
back the registers cached so far, settles the instruction/cycle
counters for exactly the constituents that executed (branch taken-cost
included), and returns the branch target.  A trailing ``jmp`` or
``ret`` fuses the same way.

Calls fuse only when they are pointer checks.  Compiled calls and
other builtins end a run: a collection can run inside them, and the
collector must see the true register file — locals cached in a fused
closure would be invisible roots.  The checks of ``-g checked`` builds
(``GC_same_obj``, ``GC_pre_incr``, ``GC_post_incr``, ``GC_base``,
``GC_check_base``) never allocate, so no collection can run inside
one; they are inlined: the same-object test is one call to
``Heap.same_object`` (the function ``Collector.same_obj`` uses), an
increment's slot is read and written through the page's word view,
``rv`` is written, and the check's static cycles and GCStats counters
are settled with the instruction/cycle counters at every exit.  A
profiled VM keeps them unfused so its shims still count each check
call site.

Exactness
---------

A fused closure is observationally equivalent to the per-instruction
loop — same counts, registers, memory and error, on every path:

* every fusable op has a static model cost, and branch taken/not-taken
  costs are settled on the path actually executed, so instruction and
  cycle totals equal the unfused sums exactly;
* runs never span branch landing sites (the instruction after a
  *targeted* label — one some branch actually names), so control can
  never jump into the middle of a fused region.  Fall-through-only
  labels are crossed freely as zero-cost constituents, which is what
  lets a whole loop (header test, body, step block, backward jump)
  fuse into one closure whose backward branch iterates *inside* the
  closure with registers still cached in locals;
* nothing inside a fused closure raises.  Wherever the unfused loop
  could stop partway — the budget running out inside a segment (the
  unconditional stretch up to the next possible exit), an unmapped,
  page-crossing or unaligned-word ``ld``/``st``, a ``div``/``mod`` by
  zero, a failing pointer check or an increment of an unmapped or
  unaligned slot — the closure
  *falls back*: it writes the registers back, settles the counters for
  the constituents that executed, and leaves the rest to the plain
  closures, which count, check the budget and raise on exactly the
  instruction they would have unfused.  One budget check per segment
  decides whether the segment may run fused to its end.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..gc.memory import WORD_VIEWS
from ..obs.vmprof import PGO_SCHEMA
from .asm import ALU_OPS, ARG_REGS, BRANCH_OPS, MInst, RV, UNARY_OPS
from .vm import ALU_FUNCS, VMError, _MASK, _RET_PC, check_cycles

# Runs shorter than this are not worth a fused closure: the single
# saved dispatch would not cover the writeback bookkeeping.
MIN_RUN = 2

# Tiered fusion compiles a run on its TIER_THRESHOLD-th entry.  On a
# 2-core x86-64 host (CPython 3.11) compiling one run costs about 1 ms
# (0.6-1.8 ms; 36-156 runs tier up per paper-matrix cell at 200), while
# fusion saves on the order of 100 ns per instruction executed: a
# straight-line run repays its compile only after hundreds of entries,
# a run that loops inside its closure much sooner.  Over the 20
# paper-matrix cells, thresholds 50 to 400 ran within 5% of one another
# and 1500 ran 17% slower; 200 also keeps one-off compiles out of short
# programs (no run of 40 generated fuzz programs, 5 configs each,
# reached 50 entries).
TIER_THRESHOLD = 200

# Default selection knobs: top-N blocks by cycles, ignoring blocks
# below a minimum share of total cycles (cold blocks would bloat
# closure-compile time for no dispatch savings).
DEFAULT_TOP = 64
DEFAULT_MIN_SHARE = 0.0005


# -- the persisted profile ---------------------------------------------------


def load_pgo(path: str) -> dict:
    """Read and validate a ``repro-vmprof-pgo/1`` envelope."""
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != PGO_SCHEMA:
        raise ValueError(f"not a {PGO_SCHEMA} envelope: "
                         f"schema={schema!r} in {path}")
    return doc


def save_pgo(doc: dict, path: str) -> None:
    if doc.get("schema") != PGO_SCHEMA:
        raise ValueError(f"refusing to save non-{PGO_SCHEMA} document")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# -- the plan ----------------------------------------------------------------


@dataclass(frozen=True)
class SuperinstPlan:
    """The fusion plan: which (function, block) pairs are hot.  Frozen
    and hashable so it can ride in cache keys and worker payloads."""

    blocks: frozenset
    source: str = ""

    def digest(self) -> str:
        """Stable identity of the plan, used to salt result-cache keys
        (a PGO'd run must never alias an unPGO'd cache entry)."""
        blob = json.dumps(sorted(self.blocks), separators=(",", ":"))
        return "pgo-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def __bool__(self) -> bool:
        return bool(self.blocks)


def plan_from_pgo(doc: dict, top: int = DEFAULT_TOP,
                  min_share: float = DEFAULT_MIN_SHARE) -> SuperinstPlan:
    """Select the top-N hottest blocks from a pgo envelope.  Selection
    is deterministic: cycles descending, then (function, block) name."""
    total = int(doc.get("total_cycles") or 0)
    rows = [(str(r["function"]), str(r["block"]),
             int(r.get("cycles", 0)))
            for r in doc.get("blocks", ())]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    floor = total * min_share
    picked = frozenset((f, b) for f, b, cyc in rows[:top] if cyc >= floor)
    return SuperinstPlan(picked, source=str(doc.get("tag", "")))


def plan_from_profile(profile, top: int = DEFAULT_TOP,
                      min_share: float = DEFAULT_MIN_SHARE) -> SuperinstPlan:
    return plan_from_pgo(profile.to_pgo(), top=top, min_share=min_share)


# -- fusion ------------------------------------------------------------------


@dataclass
class FusedRun:
    """One installed superinstruction: insts[start..end] of a function."""
    start: int
    end: int
    block: str
    n_insts: int
    cycles: int


@dataclass
class SuperinstStats:
    runs: int = 0           # fused sequences installed
    instructions: int = 0   # constituent MInsts covered
    per_function: dict = field(default_factory=dict)

    def add(self, name: str, fused: Iterable[FusedRun]) -> None:
        for r in fused:
            self.runs += 1
            self.instructions += r.n_insts
            self.per_function[name] = self.per_function.get(name, 0) + 1


# Ops fusable with no per-op state beyond operands.  Calls other than
# the pointer checks below are excluded (a collection may run inside
# them); labels are excluded (they delimit blocks and their successor
# is a branch target).  Conditional branches fuse as early exits;
# jmp/ret terminate a run.
_NO_CODE_OPS = frozenset(("nop", "keepsafe"))
_EXIT_OPS = frozenset(("bz", "bnz", "jmp", "ret"))
# ALU ops whose semantic function can raise (division by zero): they
# call the bound function from vm.py, preserving error messages.
_RAISING_OPS = frozenset(("div", "mod"))

# The pointer-check builtins (``obs.vmprof.CHECK_BUILTINS``), which
# fuse inline, with the GCStats counters each one bumps -- exactly the
# ones ``Collector.same_obj``/``pre_incr``/``post_incr``/``base``/
# ``check_base`` bump.  None of them allocates, so no collection can
# run inside one and the registers cached in locals are never roots
# anyone else needs to see.
_CHECK_COUNTERS = {
    "GC_same_obj": ("checks_performed", "same_obj_checks"),
    "GC_pre_incr": ("checks_performed", "incr_checks"),
    "GC_post_incr": ("checks_performed", "incr_checks"),
    "GC_base": (),
    "GC_check_base": ("checks_performed", "base_checks"),
}
# The increments read and write their slot through a word view, so
# they fuse only on hosts that have views.
_FUSED_CHECKS = frozenset(name for name in _CHECK_COUNTERS
                          if WORD_VIEWS or "incr" not in name)

# Every other ALU/unary op is inlined as an expression.  Signed
# compares and shifts flip the sign bit (``x ^ 2**31``), which maps
# signed 32-bit order onto unsigned order, instead of calling _s32.
_INLINE_RR = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "mul": "({a} * {b}) & 4294967295",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "(({a}) << ({b} & 31)) & 4294967295",
    "shr": "((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) & 4294967295",
    "srl": "({a}) >> ({b} & 31)",
    "seq": "1 if {a} == {b} else 0",
    "sne": "1 if {a} != {b} else 0",
    "slt": "1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0",
    "sle": "1 if ({a} ^ 2147483648) <= ({b} ^ 2147483648) else 0",
    "sgt": "1 if ({a} ^ 2147483648) > ({b} ^ 2147483648) else 0",
    "sge": "1 if ({a} ^ 2147483648) >= ({b} ^ 2147483648) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "sleu": "1 if {a} <= {b} else 0",
    "sgtu": "1 if {a} > {b} else 0",
    "sgeu": "1 if {a} >= {b} else 0",
}
_INLINE_UNARY = {
    "neg": "(-({a})) & 4294967295",
    "bnot": "(~({a})) & 4294967295",
    "not": "1 if {a} == 0 else 0",
    "sext8": "((({a} & 255) ^ 128) - 128) & 4294967295",
    "zext8": "({a}) & 255",
    "sext16": "((({a} & 65535) ^ 32768) - 32768) & 4294967295",
    "zext16": "({a}) & 65535",
}


# Ops that fuse whatever their operands.
_ALWAYS_FUSABLE = (_NO_CODE_OPS | ALU_OPS | UNARY_OPS
                   | frozenset(("li", "mov", "ld", "st", "ret")))


def _fusable(vm, inst: MInst, labels: dict[str, int]) -> bool:
    op = inst.op
    if op in _ALWAYS_FUSABLE:
        return True
    if op in BRANCH_OPS:
        # Only with a resolvable target: an undefined label must keep
        # its raise-on-execute closure.
        return inst.symbol in labels
    if op == "la":
        # Likewise only when the symbol resolves.
        return (inst.symbol in vm.global_addr
                or inst.symbol in vm.func_addr)
    if op == "call":
        # A profiled VM keeps the checks unfused: its shims count each
        # check call site.
        return inst.symbol in _FUSED_CHECKS and vm._profile is None
    return False


def _writes(inst: MInst) -> str | None:
    """The register ``inst`` writes; a fused check call writes rv."""
    return RV if inst.op == "call" else inst.register_written()


def _find_runs(vm, name: str, insts: list[MInst],
               labels: dict[str, int], hot=None):
    """Maximal fusable runs starting in hot blocks: straight-line code
    plus conditional-branch early exits, terminated by calls, jmp, ret,
    or anything unfusable — and never containing a branch-entry point
    strictly inside.  ``hot`` holds the (function, block) pairs a run
    may start in; None marks every block hot (tiered fusion).

    Only *targeted* labels (those some branch names) are entry points;
    a fall-through-only label is reachable solely from the instruction
    above it, so a run may safely cross it.  That is what lets a whole
    loop — header test, body, step block, backward jump — fuse into a
    single closure: the header's label is targeted (the backward jump
    names it), so the run starts right after it, and the backward jump
    then targets the run's own start and loops in place.  An open run
    also continues through the cold fall-through stretch after such a
    label: it executes exactly as often as the hot code above it."""
    targeted = {inst.symbol for inst in insts if inst.op in BRANCH_OPS}
    runs: list[tuple[int, int, str]] = []
    run_block = "entry"
    cur_block = "entry"
    start = -1

    def flush(stop: int) -> None:
        if start >= 0 and stop - start >= MIN_RUN:
            runs.append((start, stop - 1, run_block))

    for i, inst in enumerate(insts):
        if inst.op == "label":
            if inst.symbol in targeted:
                # Branch landing site: the next instruction is an entry
                # point, so no run may cross it.  (Untargeted labels
                # fall through into the run and fuse as zero-cost
                # constituents.)
                flush(i)
                start = -1
            cur_block = inst.symbol
            continue
        if not _fusable(vm, inst, labels):
            flush(i)
            start = -1
            continue
        if start < 0:
            if hot is None or (name, cur_block) in hot:
                start = i
                run_block = cur_block
            continue
        if inst.op == "jmp" or inst.op == "ret":
            # Control unconditionally leaves: close the run here
            # (anything up to the next label is unreachable).
            flush(i + 1)
            start = -1
    flush(len(insts))
    return runs


def _compile_run(vm, insts: list[MInst], start: int, end: int,
                 labels: dict[str, int], leader) -> tuple:
    """exec-compile insts[start..end] into one closure.  ``leader`` is
    the per-instruction closure of insts[start], which the fused
    closure falls back to when it cannot finish the leader itself.
    Returns (closure, n_insts, cycles)."""
    model = vm.model
    env: dict[str, Any] = {
        "_R": vm.regs,
        "_ST": vm._st,
        "_PG": vm.memory._pages,
        "_W": vm.memory._words,
        "_GC": vm.gc,
        "_SO": vm.gc.heap.same_object,
        "_BO": vm.gc.heap.base_of,
        "_ERR": VMError,
        "_FB": int.from_bytes,
        "_L": leader,
    }
    bound: dict[int, str] = {}

    def bind(fn) -> str:
        name = bound.get(id(fn))
        if name is None:
            name = f"_f{len(bound)}"
            bound[id(fn)] = name
            env[name] = fn
        return name

    # All register loads are hoisted to a preamble before the run body
    # (the register dict cannot change while the closure runs — only
    # its own exits write it — so loading early reads the same values).
    # This lets a backward branch targeting the run's own start loop
    # *inside* the closure with registers still cached in locals.
    #
    # A run with such a backward branch preloads every touched register
    # and writes the full set back at every exit (after iteration one,
    # anything may be dirty; identity writes of preloaded locals are
    # harmless).  A straight-line run is cheaper: execution reaching
    # constituent ``i`` has unconditionally executed every write before
    # ``i`` (non-exit constituents assign on all paths), so each exit
    # writes back exactly the prefix of registers written so far, and
    # write-only registers need no preload at all.
    has_self = any(
        insts[i].op in ("bz", "bnz", "jmp")
        and insts[i].symbol in labels
        and labels[insts[i].symbol] + 1 == start
        for i in range(start, end + 1))
    body: list[str] = []
    loads: list[str] = []
    known: dict[str, str] = {}

    def rd(reg: str) -> str:
        v = known.get(reg)
        if v is None:
            v = known[reg] = "_r_" + reg
            loads.append(f"    {v} = _R[{reg!r}]")
        return v

    def wr(reg: str) -> str:
        if has_self:
            return rd(reg)
        v = known.get(reg)
        if v is None:
            v = known[reg] = "_r_" + reg
        written.add(reg)
        return v

    written: set[str] = set()

    # Every register the run writes, known up front so any exit — even
    # one before the write in iteration one of an in-closure loop — can
    # write back the full set (identity writes are harmless: the local
    # was preloaded from the dict).
    full_written = sorted({w for i in range(start, end + 1)
                           if (w := _writes(insts[i]))})
    if has_self:
        for reg in full_written:
            rd(reg)

    # GCStats counters the run's checks bump.  Like the instruction and
    # cycle counters they are settled at every exit, from the static
    # count of checks executed so far (``checked``) -- plus, in a
    # self-loop run, locals carrying the earlier iterations' counts.
    # Nothing reads them while the closure runs.
    counters = sorted({f for i in range(start, end + 1)
                       if insts[i].op == "call"
                       for f in _CHECK_COUNTERS[insts[i].symbol]})
    checked: dict[str, int] = {}
    if has_self:
        loads.extend(f"    _k_{f} = 0" for f in counters)

    budget = vm.max_instructions
    guarded = -1  # additional-instruction count already budget-checked

    # Self-loop runs keep the instruction/cycle counters in locals for
    # the closure's lifetime and settle ``_ST`` only when leaving: no
    # call can occur inside a run, so nothing else observes the shared
    # counters while the closure iterates.
    ic = "_ic" if has_self else "_ST[0]"
    if has_self:
        loads.append("    _ic = _ST[0]")
        loads.append("    _cy = _ST[1]")

    def exit_lines(i: int, extra_cycles: int, target: str,
                   indent: str) -> list[str]:
        """Leave the run counted through constituent ``i`` (an exit
        taken with ``extra_cycles``, or the fall-through path so far):
        write the registers back, settle the counters for exactly the
        constituents executed, and return ``target``."""
        out = [f"{indent}_R[{reg!r}] = {known[reg]}"
               for reg in (full_written if has_self else sorted(written))]
        settle = []
        for f in counters:
            terms = ([f"_k_{f}"] if has_self else []) + (
                [str(checked[f])] if checked.get(f) else [])
            if terms:
                settle.append(f"{indent}_gs.{f} += {' + '.join(terms)}")
        if settle:
            out.append(f"{indent}_gs = _GC.stats")
            out.extend(settle)
        if has_self:
            out.append(f"{indent}_ST[0] = _ic + {i - start}")
            out.append(f"{indent}_ST[1] = _cy + {cycles + extra_cycles}")
        else:
            if i > start:
                out.append(f"{indent}_ST[0] += {i - start}")
            if cycles + extra_cycles:
                out.append(f"{indent}_ST[1] += {cycles + extra_cycles}")
        out.append(f"{indent}return {target}")
        return out

    def fallback_lines(k: int, indent: str) -> list[str]:
        """Fall back to per-instruction execution at constituent ``k``,
        which has not executed yet.  Past the leader, leave the run
        before ``k``: the loop then counts ``k``, checks the budget and
        runs its plain closure exactly as unfused code would.  The
        leader was already counted (by the loop, or by the back edge
        of an in-closure loop), so run its plain closure here."""
        if k > start:
            return exit_lines(k - 1, 0, str(k), indent)
        return exit_lines(start, 0, f"_L({start})", indent)

    def emit_check(i: int, through: int) -> None:
        """Guard the unconditional segment from ``i`` through
        ``through``: if running it to its end could exceed the budget,
        fall back to per-instruction execution at ``i``, so the budget
        raise (or a fault before it) happens on the exact instruction
        it would unfused."""
        nonlocal guarded
        e = through - start
        if e <= guarded:
            return
        guarded = e
        body.append(f"    if {ic} + {e} > {budget}:")
        body.extend(fallback_lines(i, " " * 8))

    def seg_end(frm: int) -> int:
        for j in range(frm, end + 1):
            if insts[j].op in _EXIT_OPS:
                return j
        return end

    def emit_exit(i: int, extra_cycles: int, target: int,
                  indent: str) -> None:
        """Take an exit after constituent ``i`` — or, for a branch back
        to the run's own start, loop in place with locals intact."""
        if target == start:
            # Self-loop: count the next iteration's leader as the loop
            # would; if that exceeds the budget, leave through the loop
            # so it raises with every register and counter settled.
            body.append(f"{indent}if _ic + {i - start + 1} > {budget}:")
            body.extend(exit_lines(i, extra_cycles, str(start),
                                   indent + "    "))
            body.append(f"{indent}_ic += {i - start + 1}")
            body.append(f"{indent}_cy += {cycles + extra_cycles}")
            body.extend(f"{indent}_k_{f} += {n}"
                        for f, n in checked.items())
            body.append(f"{indent}continue")
            return
        body.extend(exit_lines(i, extra_cycles, str(target), indent))

    cycles = 0  # static cost of the fall-through path before constituent i
    tmp = 0
    for i in range(start, end + 1):
        inst = insts[i]
        op = inst.op
        # Guard the whole segment ahead (through its terminating exit);
        # an exit op itself only needs to be guarded through i.
        emit_check(i, i if op in _EXIT_OPS else seg_end(i))
        if op == "bz" or op == "bnz":
            cond = rd(inst.rs1)
            taken = model.cycles_for(op, taken=True)
            target = labels[inst.symbol] + 1
            rel = "==" if op == "bz" else "!="
            body.append(f"    if {cond} {rel} 0:")
            emit_exit(i, taken, target, " " * 8)
            cycles += model.cycles_for(op)
            continue
        if op == "jmp":
            taken = model.cycles_for(op, taken=True)
            emit_exit(i, taken, labels[inst.symbol] + 1, " " * 4)
            cycles += taken
            continue
        if op == "ret":
            emit_exit(i, model.cycles_for(op), _RET_PC, " " * 4)
            cycles += model.cycles_for(op)
            continue
        cost = model.cycles_for(op)
        if op in _NO_CODE_OPS or op == "label":
            # Zero cycles, no code; counts one instruction by position
            # (the unfused loop dispatches its op_skip closure once).
            cycles += cost
            continue
        if op == "li":
            val = (inst.imm or 0) & _MASK
            body.append(f"    {wr(inst.rd)} = {val}")
        elif op == "la":
            addr = vm.global_addr.get(inst.symbol)
            if addr is None:
                addr = vm.func_addr[inst.symbol]
            body.append(f"    {wr(inst.rd)} = {addr}")
        elif op == "mov":
            src = rd(inst.rs1)
            body.append(f"    {wr(inst.rd)} = {src}")
        elif op in ALU_OPS:
            a = rd(inst.rs1)
            if inst.rs2 is not None:
                b = rd(inst.rs2)
            else:
                b = str((inst.imm or 0) & _MASK)
            if op in _RAISING_OPS:
                # The semantic function raises before assigning: fall
                # back so the plain closure raises from the same state.
                fault = fallback_lines(i, " " * 8)
                body.append("    try:")
                body.append(f"        {wr(inst.rd)} = "
                            f"{bind(ALU_FUNCS[op])}({a}, {b})")
                body.append("    except _ERR:")
                body.extend(fault)
            else:
                body.append(f"    {wr(inst.rd)} = "
                            f"{_INLINE_RR[op].format(a=a, b=b)}")
        elif op in UNARY_OPS:
            a = rd(inst.rs1)
            body.append(f"    {wr(inst.rd)} = "
                        f"{_INLINE_UNARY[op].format(a=a)}")
        elif op == "call":
            # A pointer check, inline.  A failing check, or an
            # increment whose slot is unaligned or unmapped, falls back
            # to the plain closure, which bumps the counters and raises
            # exactly as unfused code would.
            name = inst.symbol
            p = rd(ARG_REGS[0])
            one_arg = name == "GC_base" or name == "GC_check_base"
            q = "" if one_arg else rd(ARG_REGS[1])
            t = tmp = tmp + 1
            fault = fallback_lines(i, " " * 8)
            if name == "GC_same_obj":
                body.append(f"    if not _SO({p}, {q}):")
                body.extend(fault)
                value = p
            elif name == "GC_base":
                value = f"_BO({p}) or 0"
            elif name == "GC_check_base":
                body.append(f"    _b{t} = _BO({p})")
                body.append(f"    if _b{t} is not None and _b{t} != {p}:")
                body.extend(fault)
                value = p
            else:  # GC_pre_incr / GC_post_incr: the slot is p, delta q
                body.append(f"    _w{t} = _W.get({p} >> 12)")
                body.append(f"    if _w{t} is None or {p} & 3:")
                body.extend(fault)
                body.append(f"    _i{t} = ({p} & 4095) >> 2")
                body.append(f"    _v{t} = _w{t}[_i{t}]")
                body.append(f"    _n{t} = (_v{t} + {q}) & 4294967295")
                body.append(f"    if not _SO(_n{t}, _v{t}):")
                body.extend(fault)
                body.append(f"    _w{t}[_i{t}] = _n{t}")
                value = f"_n{t}" if name == "GC_pre_incr" else f"_v{t}"
            body.append(f"    {wr(RV)} = {value}")
            for f in _CHECK_COUNTERS[name]:
                checked[f] = checked.get(f, 0) + 1
            cost += check_cycles(model, name)
        elif op == "ld" or op == "st":
            # Only the fast paths are inlined: an aligned word indexes
            # its page's word view, a narrower access slices the page.
            # An unmapped, page-crossing or unaligned-word access falls
            # back to the plain closure, which takes the slow path and
            # raises any fault itself.
            base = rd(inst.rs1)
            idx = rd(inst.rs2) if inst.rs2 else str(inst.imm or 0)
            val = rd(inst.rd) if op == "st" else ""
            w = inst.width
            t = tmp = tmp + 1
            body.append(f"    _a{t} = ({base} + {idx}) & 4294967295")
            if w == 4 and WORD_VIEWS:
                body.append(f"    _w{t} = _W.get(_a{t} >> 12)")
                body.append(f"    if _w{t} is None or _a{t} & 3:")
                body.extend(fallback_lines(i, " " * 8))
                word = f"_w{t}[(_a{t} & 4095) >> 2]"
                if op == "st":
                    body.append(f"    {word} = ({val}) & 4294967295")
                else:
                    body.append(f"    {wr(inst.rd)} = {word}")
            else:
                body.append(f"    _o{t} = _a{t} & 4095")
                body.append(f"    _p{t} = _PG.get(_a{t} >> 12)")
                cross = f" or _o{t} > {4096 - w}" if w > 1 else ""
                body.append(f"    if _p{t} is None{cross}:")
                body.extend(fallback_lines(i, " " * 8))
                window = f"_p{t}[_o{t}:_o{t} + {w}]"
                if op == "st":
                    vmask = (1 << (8 * w)) - 1
                    body.append(f"    {window} = (({val}) & {vmask})"
                                f".to_bytes({w}, 'little')")
                else:
                    # A 4-byte load here (no word views) ignores
                    # ``signed``: the 32-bit mask makes it irrelevant.
                    body.append(f"    {wr(inst.rd)} = _FB({window}, 'little', "
                                f"signed={inst.signed}) & 4294967295")
        else:  # pragma: no cover - guarded by _fusable
            raise VMError(f"cannot fuse {op!r}")
        cycles += cost

    n_insts = end - start + 1
    if insts[end].op != "jmp" and insts[end].op != "ret":
        emit_exit(end, 0, end + 1, " " * 4)
    lines = ["def _super(pc):"]
    lines.extend(loads)
    lines.append("    while True:")
    lines.extend("    " + line for line in body)
    code = compile("\n".join(lines), f"<superinst:{start}-{end}>", "exec")
    ns = dict(env)
    exec(code, ns)
    return ns["_super"], n_insts, cycles


def fuse_function(vm, name: str, insts: list[MInst],
                  labels: dict[str, int], ops: list,
                  plan: SuperinstPlan) -> list[FusedRun]:
    """Install fused closures for hot runs of ``name`` in-place into the
    compiled closure list ``ops``; returns the installed runs (the
    profiler uses them to attribute fused cycles back to constituents)."""
    fused: list[FusedRun] = []
    for start, end, block in _find_runs(vm, name, insts, labels,
                                        plan.blocks):
        closure, n_insts, cycles = _compile_run(vm, insts, start, end,
                                                labels, ops[start])
        ops[start] = closure
        fused.append(FusedRun(start, end, block, n_insts, cycles))
    return fused


def tier_function(vm, name: str, insts: list[MInst],
                  labels: dict[str, int], ops: list,
                  stats: SuperinstStats) -> None:
    """Install an entry-counting trigger at the head of every fusable
    run of ``name`` in ``ops``.  A run entered :data:`TIER_THRESHOLD`
    times is compiled, replaces its trigger, and is counted in
    ``stats``; colder runs are never compiled."""
    for start, end, block in _find_runs(vm, name, insts, labels):
        ops[start] = _tier_trigger(vm, name, insts, labels, ops,
                                   start, end, block, stats)


def _tier_trigger(vm, name, insts, labels, ops, start, end, block, stats):
    plain = ops[start]
    left = TIER_THRESHOLD

    def trigger(pc):
        nonlocal left
        left -= 1
        if left:
            return plain(pc)
        closure, n_insts, cycles = _compile_run(vm, insts, start, end,
                                                labels, plain)
        ops[start] = closure
        stats.add(name, (FusedRun(start, end, block, n_insts, cycles),))
        return closure(pc)
    return trigger
