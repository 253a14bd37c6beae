"""Render the paper's tables from harness results.

The row/column structure mirrors the paper exactly: workloads as rows;
``-O safe``, ``-g``, ``-g checked`` slowdown percentages as columns
(T1/T2/T3 per machine), code-size expansion (T4), and the residual
running-time/code-size overhead of safe + postprocessor (T5).

Paper reference values are embedded so every rendering shows
paper-vs-measured side by side; the shape assertions used by the
benchmark suite live in ``paper_reference``.
"""

from __future__ import annotations

from .harness import CellResult, Harness, WorkloadRow

# Paper numbers: {table: {workload: {column: percent or None (absent)}}}
PAPER = {
    "t1_ss2": {  # SPARCstation 2: -O safe / -g / -g checked
        "cordtest": {"O_safe": 9, "g": 54, "g_checked": 514},
        "cfrac": {"O_safe": 17, "g": None, "g_checked": None},
        "miniawk": {"O_safe": 8, "g": 25, "g_checked": None},
        "minips": {"O_safe": 0, "g": 33, "g_checked": 205},
    },
    "t2_ss10": {  # SPARC 10: -O2 safe / -g / -g checked
        "cordtest": {"O_safe": 9, "g": 56, "g_checked": 529},
        "cfrac": {"O_safe": 8, "g": None, "g_checked": None},
        "miniawk": {"O_safe": 8, "g": 48, "g_checked": None},
        "minips": {"O_safe": 5, "g": 37, "g_checked": 366},
    },
    "t3_p90": {  # Pentium 90
        "cordtest": {"O_safe": 12, "g": 28, "g_checked": 510},
        "cfrac": {"O_safe": 11, "g": None, "g_checked": None},
        "miniawk": {"O_safe": 9, "g": 41, "g_checked": None},
        "minips": {"O_safe": 6, "g": 17, "g_checked": 279},
    },
    "t4_size": {  # SPARC object code expansion
        "cordtest": {"O_safe": 9, "g": 69, "g_checked": 130},
        "cfrac": {"O_safe": 6, "g": None, "g_checked": None},
        "miniawk": {"O_safe": 15, "g": 68, "g_checked": None},
        "minips": {"O_safe": 19, "g": 73, "g_checked": 160},
    },
    "t5_postproc": {  # SPARC 10, safe + peephole: time / size residuals
        "cordtest": {"time": 4, "size": 3},
        "cfrac": {"time": 2, "size": 3},
        "miniawk": {"time": 1, "size": 7},
        "minips": {"time": 2, "size": 7},
    },
}

# The paper's workload names (ours are stand-ins).
PAPER_NAMES = {"cordtest": "cordtest", "cfrac": "cfrac",
               "miniawk": "gawk", "minips": "gs"}

_COLS = ("O_safe", "g", "g_checked")
_COL_TITLES = {"O_safe": "-O, safe", "g": "-g", "g_checked": "-g, checked"}


def _fmt(pct: float | None) -> str:
    return "-" if pct is None else f"{pct:.0f}%"


def _columns(rows: dict[str, WorkloadRow]) -> tuple[str, ...]:
    """The table columns the rows were measured under (a config subset
    renders only its own columns)."""
    return tuple(c for c in _COLS
                 if any(c in row.cells for row in rows.values()))


def render_slowdown_table(rows: dict[str, WorkloadRow], table_key: str,
                          title: str) -> str:
    """Render one of T1/T2/T3 with paper values alongside."""
    paper = PAPER[table_key]
    cols = _columns(rows)
    lines = [title, f"{'':10s} " + " ".join(
        f"{_COL_TITLES[c]:>22s}" for c in cols)]
    lines.append(f"{'':10s} " + " ".join(
        f"{'paper / measured':>22s}" for _ in cols))
    for name, row in rows.items():
        cells = []
        for col in cols:
            measured = row.slowdown_pct(col)
            ref = paper.get(name, {}).get(col)
            cells.append(f"{_fmt(ref):>9s} / {measured:7.1f}%")
        lines.append(f"{PAPER_NAMES.get(name, name):10s} " + " ".join(
            f"{c:>22s}" for c in cells))
    return "\n".join(lines)


def render_size_table(rows: dict[str, WorkloadRow]) -> str:
    """T4: static object-code expansion (instructions, excluding
    libraries — ours are builtins, so excluded by construction)."""
    paper = PAPER["t4_size"]
    cols = _columns(rows)
    lines = ["T4: SPARC object code expansion (paper / measured)",
             f"{'':10s} " + " ".join(f"{_COL_TITLES[c]:>22s}" for c in cols)]
    for name, row in rows.items():
        cells = []
        for col in cols:
            measured = row.slowdown_pct(col, metric="code_size")
            ref = paper.get(name, {}).get(col)
            cells.append(f"{_fmt(ref):>9s} / {measured:7.1f}%")
        lines.append(f"{PAPER_NAMES.get(name, name):10s} " + " ".join(
            f"{c:>22s}" for c in cells))
    return "\n".join(lines)


def render_postproc_table(cells_by_workload: dict[str, dict[str, CellResult]]) -> str:
    """T5: residual overhead of safe code after the peephole pass."""
    paper = PAPER["t5_postproc"]
    lines = ["T5: safe + postprocessor residual overhead vs -O (paper / measured)",
             f"{'':10s} {'running time':>22s} {'code size':>22s}"]
    for name, cells in cells_by_workload.items():
        base = cells["O"]
        pp = cells["O_safe_pp"]
        time_pct = 100.0 * (pp.cycles - base.cycles) / base.cycles
        size_pct = 100.0 * (pp.code_size - base.code_size) / base.code_size
        ref = paper.get(name, {})
        lines.append(
            f"{PAPER_NAMES.get(name, name):10s} "
            f"{_fmt(ref.get('time')):>9s} / {time_pct:7.1f}%  "
            f"{_fmt(ref.get('size')):>9s} / {size_pct:7.1f}%")
    lines.append("peephole rewrites (loads folded / moves eliminated / "
                 "adds retargeted):")
    for name, cells in cells_by_workload.items():
        stats = cells["O_safe_pp"].peephole_stats
        if stats is None:
            continue
        lines.append(
            f"{PAPER_NAMES.get(name, name):10s} "
            f"{stats.loads_folded:>6d} / {stats.moves_eliminated:>6d} / "
            f"{stats.adds_retargeted:>6d}   ({stats.total} total)")
    return "\n".join(lines)
