"""Tests for the paper-artifact runners (repro.experiments.paper).

These run the real experiment code at reduced scale (300 nodes, a few
hundred files) and assert the qualitative results the paper reports:
larger k means less total bandwidth and lower Gini coefficients.
"""

from __future__ import annotations

import pytest

from repro.experiments.paper import (
    run_fig4,
    run_fig5,
    run_fig6,
    run_grid,
    run_headline,
    run_table1,
)

N_FILES = 250
N_NODES = 300


@pytest.fixture(scope="module")
def grid():
    return run_grid(N_FILES, N_NODES)


class TestRunGrid:
    def test_all_four_cells(self, grid):
        assert set(grid) == {(4, 0.2), (4, 1.0), (20, 0.2), (20, 1.0)}

    def test_cells_cached_across_calls(self, grid):
        again = run_grid(N_FILES, N_NODES)
        for key in grid:
            assert again[key] is grid[key]

    def test_k20_uses_less_bandwidth(self, grid):
        for share in (0.2, 1.0):
            assert (
                grid[(20, share)].average_forwarded_chunks()
                < grid[(4, share)].average_forwarded_chunks()
            )

    def test_k20_is_fairer_on_f2(self, grid):
        for share in (0.2, 1.0):
            assert grid[(20, share)].f2_gini() < grid[(4, share)].f2_gini()

    def test_k20_is_fairer_on_f1(self, grid):
        for share in (0.2, 1.0):
            assert grid[(20, share)].f1_gini() < grid[(4, share)].f1_gini()

    def test_skewed_workload_less_fair(self, grid):
        # 20% originators concentrates payments (paper Fig. 5).
        for k in (4, 20):
            assert grid[(k, 0.2)].f2_gini() > grid[(k, 1.0)].f2_gini()


class TestTable1:
    def test_report_shape(self):
        report = run_table1(N_FILES, N_NODES)
        table = report.tables[0]
        assert table.headers[0] == "configuration"
        assert len(table.rows) == 2
        assert report.data["grid"]["k=4,share=0.2"] > 0

    def test_notes_mention_ratio(self):
        report = run_table1(N_FILES, N_NODES)
        assert any("1." in note for note in report.notes)

    @pytest.mark.parametrize("share", ["0.2", "1.0"])
    def test_k4_forwards_within_the_papers_band(self, share):
        # Paper: k=4 forwards 1.52x (20 %) and 1.47x (100 %) what
        # k=20 does.
        grid = run_table1(N_FILES, N_NODES).data["grid"]
        ratio = grid[f"k=4,share={share}"] / grid[f"k=20,share={share}"]
        assert 1.1 < ratio < 2.5


class TestFig4:
    def test_four_panels(self):
        report = run_fig4(N_FILES, N_NODES)
        assert len(report.figures) == 4
        for caption, rendered in report.figures:
            assert "k=" in caption
            assert "distribution" in rendered

    def test_area_ratio_above_one(self):
        report = run_fig4(N_FILES, N_NODES)
        assert report.data["area_ratio_0.2"] > 1.0
        assert report.data["area_ratio_1.0"] > 1.0

    @pytest.mark.parametrize("share", ["0.2", "1.0"])
    def test_area_ratio_within_the_papers_band(self, share):
        # Paper: 1.6x at 20 % originators, 1.25x at 100 %.
        report = run_fig4(N_FILES, N_NODES)
        assert 1.0 < report.data[f"area_ratio_{share}"] < 2.5


class TestFig5:
    def test_gini_table_and_curves(self):
        report = run_fig5(N_FILES, N_NODES)
        assert len(report.figures) == 1
        gini = report.data["gini"]
        assert gini["k=20,share=0.2"] < gini["k=4,share=0.2"]

    def test_rendered_curves_mention_gini(self):
        report = run_fig5(N_FILES, N_NODES)
        assert "Gini" in report.figures[0][1]


class TestFig6:
    def test_f1_ordering(self):
        report = run_fig6(N_FILES, N_NODES)
        gini = report.data["gini"]
        assert gini["k=20,share=1.0"] < gini["k=4,share=0.2"]

    def test_extremes(self):
        # k=20 with 100 % originators is closest to full equity, k=4
        # with 20 % originators the most uneven of the four.
        gini = run_fig6(N_FILES, N_NODES).data["gini"]
        assert gini["k=20,share=1.0"] == min(gini.values())
        assert gini["k=4,share=0.2"] == max(gini.values())


class TestHeadline:
    def test_reductions_positive(self):
        report = run_headline(N_FILES, N_NODES)
        for prop in ("F1", "F2"):
            for value in report.data["reductions"][prop]:
                assert value > 0.0

    def test_render_contains_percentages(self):
        report = run_headline(N_FILES, N_NODES)
        assert "%" in report.render()
