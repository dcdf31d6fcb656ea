"""Shared EIG path tables vs the seed per-instance enumeration."""

from __future__ import annotations

from repro.agreement import _paths
from repro.agreement._paths import (
    avoiding_index,
    clear_path_tables,
    last_id_column,
    level_wire_stats,
    path_index,
    path_set,
    path_table_info,
    paths_of_length,
)
from repro.agreement.eigtree import RleReport, SuccinctEigStore
from repro.harness.workloads import akd_point
from repro.sim import Envelope

from ._reference_eig import (
    OM_REPORT,
    ReferenceOralProtocol,
    reference_level_wire_stats,
    reference_paths,
    reference_resolve,
)


class TestSharedTableMatchesSeed:
    def test_matches_for_standard_sizes(self):
        for n in (4, 8, 16):
            for length in range(1, 5):
                expected = reference_paths(n, 0, length)
                assert paths_of_length(n, 0, length) == expected

    def test_matches_for_nonzero_sender(self):
        for sender in (1, 3):
            for length in (1, 2, 3):
                assert paths_of_length(4, sender, length) == (
                    reference_paths(4, sender, length)
                )


class TestTableProperties:
    def test_memoized_instances_are_shared(self):
        assert paths_of_length(8, 0, 3) is paths_of_length(8, 0, 3)

    def test_path_set_membership(self):
        members = path_set(5, 0, 2)
        assert (0, 3) in members
        assert (0, 0) not in members  # repeated id
        assert (1, 2) not in members  # wrong root
        assert (0,) not in members  # wrong length

    def test_canonical_order_is_ascending_extension(self):
        assert list(paths_of_length(4, 0, 2)) == [(0, 1), (0, 2), (0, 3)]

    def test_clear_path_tables(self):
        clear_path_tables()
        assert path_table_info()["entries"] == 0
        paths_of_length(4, 0, 2)
        assert path_table_info()["entries"] >= 1

    def test_clear_and_info_cover_every_memo(self):
        """Every memoized table of the module is counted by the info and
        dropped by the clear: a memo left out of either fails here."""
        memos = {
            name: fn for name, fn in vars(_paths).items() if hasattr(fn, "cache_clear")
        }
        assert {
            "paths_of_length",
            "path_set",
            "level_wire_stats",
            "last_id_column",
            "avoiding_index",
        } <= memos.keys()
        clear_path_tables()
        for name, fn in memos.items():
            fn(5, 0, 3, 1) if name == "avoiding_index" else fn(5, 0, 3)
        held = {name: fn.cache_info().currsize for name, fn in memos.items()}
        assert all(held.values()), held
        assert path_table_info()["entries"] == sum(held.values())
        clear_path_tables()
        assert {name: fn.cache_info().currsize for name, fn in memos.items()} == (
            dict.fromkeys(memos, 0)
        )
        assert path_table_info()["entries"] == 0

    def test_last_id_column_is_the_path_tables_last_ids(self):
        for n, sender in ((4, 0), (5, 2), (8, 0)):
            for length in range(1, 5):
                table = paths_of_length(n, sender, length)
                assert list(last_id_column(n, sender, length)) == [p[-1] for p in table]
        assert last_id_column(8, 0, 3) is last_id_column(8, 0, 3)

    def test_last_id_column_past_one_byte_ids(self):
        """Ids above 255 switch the packing, not the interface."""
        small, wide = last_id_column(256, 0, 2), last_id_column(300, 7, 2)
        assert isinstance(small, bytes) and not isinstance(wide, bytes)
        assert list(wide) == [p[-1] for p in paths_of_length(300, 7, 2)]
        assert small.index(255, 10) == 254 and wide.index(299, 10) == 298

    def test_leaf_column_never_builds_the_leaf_path_table(self):
        """The column of level L is built from table L-1: the succinct
        engine's leaf level costs two bytes per path, not a tuple."""
        clear_path_tables()
        last_id_column(9, 0, 4)
        assert paths_of_length.cache_info().currsize == 3  # lengths 1..3

    def test_avoiding_index_places_a_relayers_report_in_the_level(self):
        """Entry k is the level position of the k-th path a relayer's
        report covers; the last entry is the level's path count."""
        for n, sender in ((4, 0), (5, 2), (8, 0)):
            for length in range(1, 4):
                table = paths_of_length(n, sender, length)
                for relayer in range(n):
                    assert list(avoiding_index(n, sender, length, relayer)) == [
                        index for index, path in enumerate(table) if relayer not in path
                    ] + [len(table)]
        assert avoiding_index(8, 0, 3, 2) is avoiding_index(8, 0, 3, 2)

    def test_avoiding_index_widens_past_two_byte_indices(self):
        """Level positions from 65,536 up switch the packing, not the
        interface."""
        narrow, wide = avoiding_index(40, 0, 3, 5), avoiding_index(258, 0, 3, 5)
        assert (narrow.typecode, wide.typecode) == ("H", "I")
        assert wide[-1] == 257 * 256 and wide[-2] == wide[-1] - 1

    def test_path_index_is_the_canonical_position(self):
        for n, sender in ((4, 0), (5, 2), (8, 0)):
            for length in range(1, 5):
                for index, path in enumerate(paths_of_length(n, sender, length)):
                    assert path_index(n, path) == index


class TestLevelWireStatsClosedForm:
    """``level_wire_stats`` counts what the oracle enumerates path by path."""

    @staticmethod
    def assert_matches(cases):
        for n, sender, length in cases:
            assert tuple(level_wire_stats(n, sender, length)) == (
                reference_level_wire_stats(n, sender, length)
            ), (n, sender, length)

    def test_every_sender_and_length_of_small_n(self):
        """Zero counts included: n < 3 lacks the pair term's ids, and a
        length past n has no paths at all.  n = 9 takes its two end
        senders only (all nine would enumerate ~1M paths)."""
        self.assert_matches(
            (n, sender, length)
            for n in range(1, 10)
            for sender in (range(n) if n < 9 else (0, n - 1))
            for length in range(1, n + 2)
        )

    def test_multi_byte_ids(self):
        """Ids from 64 up encode one byte longer: a short-id sender and a
        long-id one."""
        self.assert_matches(
            (n, sender, length)
            for n in (96, 300)
            for sender in (0, n - 1)
            for length in (1, 2, 3)
        )

    def test_ledger_levels(self):
        """The small ledger's ``oral_n13_t3`` and ``akd_n7_t2`` levels."""
        self.assert_matches(
            (n, 0, length) for n, t in ((13, 3), (7, 2)) for length in range(1, t + 2)
        )

    def test_failure_free_accounting_builds_no_path_table(self):
        """Sizing reports and a whole failure-free mux run build no path
        table: the wire stats are counted, not enumerated."""
        clear_path_tables()
        level_wire_stats(96, 0, 3)
        RleReport(96, 0, 3, 5, ((8930, "v"),))
        akd_point(16, 3, seed=16)
        assert paths_of_length.cache_info().currsize == 0


class TestByzantineReportNoise:
    def test_unhashable_path_elements_are_dropped_not_fatal(self):
        """A Byzantine report whose path contains unhashable elements is
        'noise, not filed' — it must never crash an honest node — and so
        is a run-length report: the reference oracle speaks the dense
        wire form only.  The succinct ingest's analog lives in
        ``test_eigtree.py``."""
        class _Ctx:
            node, round = 1, 2
            decide = halt = staticmethod(lambda *args: None)

        protocol = ReferenceOralProtocol(4, 1)
        inbox = [
            Envelope(2, 1, (OM_REPORT, ((([],), "x"), (([0, []]), "y"))), 1),
            Envelope(3, 1, RleReport(4, 0, 1, 3, ((1, "x"),)), 1),
        ]
        protocol.on_round(_Ctx(), inbox)
        assert protocol.tree == {}


class TestResolutionUnchanged:
    def test_oral_agreement_decisions_match_reference_recursion(self):
        """The store's bottom-up resolve equals the seed recursion on a
        populated tree (faulty reports included)."""
        n, t = 7, 2
        store, tree = SuccinctEigStore(n, t, 0, None), {}
        # Populate the tree unevenly: some paths agree, some conflict,
        # some are missing entirely (-> default).
        for index, path in enumerate(paths_of_length(n, 0, t + 1)):
            if index % 3 != 2:
                tree[path] = "ab"[index % 3]
                store.file_override(t + 1, path, tree[path])
        for path in paths_of_length(n, 0, t):
            tree[path] = "a"
            store.file_override(t, path, "a")
        tree[(0,)] = "a"
        store.set_root("a")

        for me in range(1, n):
            assert store.resolve(me) == reference_resolve(tree, n, t, 0, None, me)
