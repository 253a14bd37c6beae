"""Table rendering tests with synthetic results (no workload runs)."""

import pytest

from repro.bench.harness import CellResult, WorkloadRow
from repro.bench.tables import (
    PAPER, PAPER_NAMES, render_postproc_table, render_size_table,
    render_slowdown_table,
)


def make_row(name, cycles_by_config, size_by_config=None):
    row = WorkloadRow(name, "ss10")
    sizes = size_by_config or {c: 100 for c in cycles_by_config}
    for config, cycles in cycles_by_config.items():
        row.cells[config] = CellResult(
            workload=name, config=config, model="ss10", cycles=cycles,
            instructions=cycles, code_size=sizes[config], exit_code=0,
            collections=0, output="")
    return row


@pytest.fixture
def rows():
    return {
        "cordtest": make_row("cordtest",
                             {"O": 1000, "O_safe": 1090, "g": 1560, "g_checked": 6000},
                             {"O": 100, "O_safe": 109, "g": 169, "g_checked": 230}),
        "cfrac": make_row("cfrac",
                          {"O": 2000, "O_safe": 2160, "g": 2800, "g_checked": 8000},
                          {"O": 200, "O_safe": 212, "g": 280, "g_checked": 400}),
    }


class TestPaperData:
    def test_every_workload_has_reference_rows(self):
        for table in ("t1_ss2", "t2_ss10", "t3_p90", "t4_size"):
            assert set(PAPER[table]) == {"cordtest", "cfrac", "miniawk", "minips"}

    def test_paper_values_match_published_ranges(self):
        # Spot-check the transcription against the paper's text.
        assert PAPER["t1_ss2"]["cordtest"] == {"O_safe": 9, "g": 54, "g_checked": 514}
        assert PAPER["t3_p90"]["minips"]["g_checked"] == 279
        assert PAPER["t5_postproc"]["cordtest"] == {"time": 4, "size": 3}

    def test_absent_cells_marked_none(self):
        # cfrac's -g and checked cells are absent in the paper
        # ("<needs modifications due to inlining>" / "<fails>").
        assert PAPER["t1_ss2"]["cfrac"]["g"] is None
        assert PAPER["t2_ss10"]["miniawk"]["g_checked"] is None

    def test_name_mapping(self):
        assert PAPER_NAMES["miniawk"] == "gawk"
        assert PAPER_NAMES["minips"] == "gs"


class TestRendering:
    def test_slowdown_table_contains_measured_values(self, rows):
        text = render_slowdown_table(rows, "t2_ss10", "T2")
        assert "T2" in text
        assert "9.0%" in text  # cordtest safe: (1090-1000)/1000
        assert "500.0%" in text  # cordtest checked

    def test_slowdown_table_shows_paper_reference(self, rows):
        text = render_slowdown_table(rows, "t2_ss10", "T2")
        assert "9% /" in text  # paper value alongside

    def test_absent_paper_cells_render_dash(self, rows):
        text = render_slowdown_table(rows, "t2_ss10", "T2")
        assert "- /" in text

    def test_size_table(self, rows):
        text = render_size_table(rows)
        assert "code expansion" in text
        assert "9.0%" in text  # cordtest safe size growth

    def test_postproc_table(self):
        cells = {
            "cordtest": {
                "O": CellResult("cordtest", "O", "ss10", 1000, 1, 100, 0, 0, ""),
                "O_safe": CellResult("cordtest", "O_safe", "ss10", 1090, 1, 109, 0, 0, ""),
                "O_safe_pp": CellResult("cordtest", "O_safe", "ss10", 1030, 1,
                                        103, 0, 0, "", postprocessed=True),
            }
        }
        text = render_postproc_table(cells)
        assert "3.0%" in text  # residual time
        assert "postprocessor" in text

    def test_rows_use_paper_names(self, rows):
        rows["miniawk"] = make_row(
            "miniawk", {"O": 100, "O_safe": 105, "g": 140, "g_checked": 300})
        text = render_slowdown_table(rows, "t2_ss10", "T2")
        assert "gawk" in text


class TestConfigSubset:
    """A bench over a config subset renders only the measured columns."""

    @pytest.fixture
    def subset_rows(self):
        return {"cordtest": make_row("cordtest", {"O": 1000, "g": 1560},
                                     {"O": 100, "g": 169})}

    def test_slowdown_table_renders_only_measured_columns(self, subset_rows):
        text = render_slowdown_table(subset_rows, "t2_ss10", "T2")
        assert "-g" in text and "56.0%" in text
        assert "safe" not in text and "checked" not in text

    def test_size_table_renders_only_measured_columns(self, subset_rows):
        text = render_size_table(subset_rows)
        assert "69.0%" in text
        assert "safe" not in text and "checked" not in text

    def test_bench_envelope_for_a_subset(self, monkeypatch):
        # LoadSpec's default bench subset, on one tiny program.
        from repro.api import Toolchain, envelopes
        from repro.api.build import bench_envelope
        from repro.bench import harness
        from repro.workloads import WorkloadSpec
        monkeypatch.setattr(harness, "WORKLOADS", {
            "tiny": WorkloadSpec("tiny", "tiny.c", "synthetic")})
        monkeypatch.setattr(harness, "load_workload", lambda name: (
            "int main(void) { int i; int s = 0;"
            " for (i = 0; i < 50; i++) s += i; return s & 0x7F; }"))
        rows = Toolchain(model="ss10").bench(("tiny",), configs=("O", "g"))
        doc = bench_envelope(rows, "ss10")
        assert envelopes.validate(doc).schema == "repro-bench/1"
        assert set(doc["cells"]["tiny"]) == {"O", "g"}
        assert "-g" in doc["table"] and "safe" not in doc["table"]
