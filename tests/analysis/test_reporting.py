"""Report rendering: stable, aligned, content-complete text tables."""

from __future__ import annotations

from repro.analysis import check_mark, render_table


class TestRenderTable:
    def test_contains_all_cells(self):
        text = render_table(["n", "messages"], [[4, 12], [8, 56]])
        for token in ("n", "messages", "4", "12", "8", "56"):
            assert token in text

    def test_title_and_underline(self):
        text = render_table(["a"], [[1]], title="E1 key distribution")
        lines = text.splitlines()
        assert lines[0] == "E1 key distribution"
        assert lines[1] == "=" * len(lines[0])

    def test_columns_align(self):
        text = render_table(["col", "x"], [["short", 1], ["much longer cell", 2]])
        lines = text.splitlines()
        # The second column starts right after the first column's width +
        # two spaces, in the header and in every row.
        width = len("much longer cell")
        assert lines[0][width + 2 :].startswith("x")
        assert lines[2][width + 2 :].startswith("1")
        assert lines[3][width + 2 :].startswith("2")

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestCheckMark:
    def test_values(self):
        assert check_mark(True) == "OK"
        assert check_mark(False) == "DEVIATION"
