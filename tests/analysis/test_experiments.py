"""The programmatic experiment regenerator (repro.analysis.experiments)."""

from __future__ import annotations

import re

from repro.analysis.experiments import (
    ExperimentTable,
    e1_keydist,
    e2_chain_fd,
    e3_echo_fd,
    e4_amortization,
    e5_smallrange,
    e7_extension,
    e8_rounds,
    e11_keydist_methods,
    e12_delivery_models,
    e14_adaptive_arms_race,
)
from repro.cli import main


class TestIndividualExperiments:
    def test_e1_matches_formula(self):
        table = e1_keydist(sizes=(4, 8))
        assert table.ok
        assert table.rows[0][:3] == (4, 36, 36)

    def test_e2_matches_formula(self):
        table = e2_chain_fd(sizes=(4, 8))
        assert table.ok
        assert all(row[-1] == "OK" for row in table.rows)

    def test_e3_matches_formula(self):
        table = e3_echo_fd(sizes=(4, 8))
        assert table.ok

    def test_e4_crossover(self):
        table = e4_amortization(sizes=(8,))
        assert table.ok
        assert table.rows[0][2] == table.rows[0][3] == 13

    def test_e5_zero_cost_zero_value(self):
        table = e5_smallrange(sizes=(8,))
        assert table.ok
        zero_rows = [row for row in table.rows if row[1] == 0]
        assert all(row[3] == 0 for row in zero_rows)

    def test_e7_extension_beats_sm(self):
        table = e7_extension(sizes=(8,))
        assert table.ok
        assert table.rows[0][2] < table.rows[0][3]

    def test_e8_rounds(self):
        table = e8_rounds(sizes=(8,))
        assert table.ok
        assert table.rows[0][2:5] == (3, 3, 2)

    def test_e11_boundary_row(self):
        table = e11_keydist_methods(shapes=((4, 1),))
        assert table.ok
        assert table.rows[-1][3] == "infeasible"

    def test_e12_sync_rows_are_baseline(self):
        table = e12_delivery_models(seeds=1)
        assert table.ok
        sync_rows = [row for row in table.rows if row[1] == "sync"]
        assert sync_rows and all(row[-1] == "= sync" for row in sync_rows)

    def test_e12_skew_diverges_somewhere(self):
        table = e12_delivery_models(seeds=1)
        assert any(row[-1] == "diverges" for row in table.rows)

    def test_e14_adaptive_fd_wins_the_bounded_cells(self):
        table = e14_adaptive_arms_race(seeds=2)
        assert table.ok
        static_wolf = [
            row for row in table.rows
            if row[0] == "timeout" and row[1] == "bounded:12"
            and row[2] == "none"
        ]
        assert static_wolf and all(
            row[4] != "0/2" for row in static_wolf
        )
        adaptive_rows = [row for row in table.rows if row[0] == "adaptive"]
        assert adaptive_rows and all(
            row[4].startswith("0/") for row in adaptive_rows
        )

    def test_e14_adaptive_adversary_commits_on_the_grid(self):
        table = e14_adaptive_arms_race(seeds=2)
        committed = [
            row[-1] for row in table.rows
            if row[2] == "adaptive:silence-muffled"
        ]
        assert committed and all(count > 0 for count in committed)


class TestRunAll:
    def test_report_command_renders_every_table_green(self, capsys):
        """``repro-fd report`` end to end: ``run_all(quick=True)``, every
        table rendered, every verdict matching the paper's closed forms."""
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        titles = re.findall(r"^(E\d+)  ", out, flags=re.MULTILINE)
        assert len(titles) == 12 and titles[-1] == "E14"
        assert out.rstrip().endswith("all 12 experiments match the paper's formulas.")

    def test_tables_render(self):
        table = e1_keydist(sizes=(4,))
        text = table.render()
        assert text.startswith("E1")
        assert "36" in text

    def test_table_is_value_object(self):
        table = e1_keydist(sizes=(4,))
        assert isinstance(table, ExperimentTable)
        assert isinstance(table.rows, tuple)
        assert isinstance(table.rows[0], tuple)
