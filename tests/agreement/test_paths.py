"""Shared EIG path tables vs the seed per-instance enumeration."""

from __future__ import annotations

from repro.agreement import _paths
from repro.agreement._paths import (
    clear_path_tables,
    last_id_column,
    path_index,
    path_set,
    path_table_info,
    paths_of_length,
)


def seed_paths_of_length(n: int, sender: int, length: int) -> list[tuple[int, ...]]:
    """The seed code's per-instance enumeration, verbatim semantics."""
    paths = [(sender,)]
    for _ in range(length - 1):
        paths = [
            path + (node,)
            for path in paths
            for node in range(n)
            if node not in path
        ]
    return paths


class TestSharedTableMatchesSeed:
    def test_matches_for_standard_sizes(self):
        for n in (4, 8, 16):
            for length in range(1, 5):
                expected = seed_paths_of_length(n, 0, length)
                assert list(paths_of_length(n, 0, length)) == expected

    def test_matches_for_nonzero_sender(self):
        for sender in (1, 3):
            for length in (1, 2, 3):
                assert list(paths_of_length(4, sender, length)) == (
                    seed_paths_of_length(4, sender, length)
                )

    def test_protocol_method_delegates_to_shared_table(self):
        from repro.agreement.oral import OralAgreementProtocol

        protocol = OralAgreementProtocol(7, 2, value="v")
        for length in (1, 2, 3):
            assert protocol._paths_of_length(length) == (
                seed_paths_of_length(7, 0, length)
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
        assert {"paths_of_length", "path_set", "level_wire_stats", "last_id_column"} <= (
            memos.keys()
        )
        clear_path_tables()
        for fn in memos.values():
            fn(5, 0, 3)
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

    def test_path_index_is_the_canonical_position(self):
        for n, sender in ((4, 0), (5, 2), (8, 0)):
            for length in range(1, 5):
                for index, path in enumerate(paths_of_length(n, sender, length)):
                    assert path_index(n, path) == index


class TestByzantineReportNoise:
    def test_unhashable_path_elements_are_dropped_not_fatal(self):
        """A Byzantine report whose path contains unhashable elements is
        'noise, not filed' — it must never crash an honest node (the seed
        code tolerated unhashable heads; the shared-table probe must too).
        The succinct-engine analog lives in ``test_eigtree.py``."""
        from repro.agreement.oral import OM_REPORT, OralAgreementProtocol
        from repro.sim import Envelope

        protocol = OralAgreementProtocol(4, 1, value=None, engine="dense")
        inbox = [
            Envelope(
                sender=2,
                recipient=1,
                payload=(OM_REPORT, ((([],), "x"), (([0, []]), "y"))),
                round_sent=1,
            )
        ]

        class _Ctx:
            node = 1

        protocol._ingest(_Ctx(), inbox, 2)
        assert protocol._tree == {}


class TestResolutionUnchanged:
    def test_oral_agreement_decisions_match_reference_recursion(self):
        """The iterative bottom-up resolve equals the seed recursion on a
        populated tree (faulty reports included)."""
        from repro.agreement.oral import OralAgreementProtocol

        n, t = 7, 2
        protocol = OralAgreementProtocol(n, t, value=None, engine="dense")
        # Populate the tree unevenly: some paths agree, some conflict,
        # some are missing entirely (-> default).
        for index, path in enumerate(paths_of_length(n, 0, t + 1)):
            if index % 3 == 0:
                protocol._tree[path] = "a"
            elif index % 3 == 1:
                protocol._tree[path] = "b"
        for path in paths_of_length(n, 0, t):
            protocol._tree[path] = "a"
        protocol._tree[(0,)] = "a"

        for me in range(1, n):
            fast = protocol._resolve((0,), me)
            slow = protocol._resolve_recursive((0,), me)
            assert fast == slow
