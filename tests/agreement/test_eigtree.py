"""Succinct EIG tree: wire-form round-trips and equivalence to the oracle.

The contract under test is the one PERFORMANCE.md and the benchmarks rely
on: ``OralAgreementProtocol`` is *observably identical* to the textbook
dict-of-paths OM(t) in ``_reference_eig.py`` — decisions, round counts,
envelope counts, per-kind tallies and byte counters all match bit-for-bit,
for honest runs and under arbitrary Byzantine behaviour.
"""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreement import eigtree, make_oral_agreement_protocols
from repro.agreement._paths import paths_of_length
from repro.agreement.eigtree import (
    OM_REPORT_RLE,
    RleReport,
    SuccinctEigStore,
    _SharedLevel,
    _ValueCodes,
    encode_report,
    ingest_dense_items,
    ingest_rle,
    ingest_rle_batch,
)
from repro.agreement.oral import OM_REPORT, OM_VALUE, OralAgreementProtocol
from repro.crypto.encoding import byte_size, encode
from repro.faults import ScriptedProtocol, SilentProtocol
from repro.sim import Envelope, run_protocols
from repro.sim.batch import ChannelBatch
from repro.sim.message import payload_kind, wire_byte_size

from ._reference_eig import file_items, make_reference_protocols, reference_resolve

N, T = 7, 2


def run_both(adversaries=dict, seed=0, n=N, t=T, value="v"):
    """One run of the reference protocols and one of ``src/``'s, each with
    its own adversary instances from the ``adversaries`` factory."""
    return tuple(
        run_protocols(make(n, t, value, adversaries=adversaries()), seed=seed)
        for make in (make_reference_protocols, make_oral_agreement_protocols)
    )


def observables(result):
    """Everything the equivalence contract promises, as one comparable."""
    return {
        "decisions": {k: repr(v) for k, v in result.decisions().items()},
        "rounds": result.metrics.rounds_used,
        "messages": result.metrics.messages_total,
        "per_round": dict(result.metrics.messages_per_round),
        "per_sender": dict(result.metrics.messages_per_sender),
        "per_kind": dict(result.metrics.messages_per_kind),
        "bytes": result.metrics.bytes_total,
        "bytes_per_round": dict(result.metrics.bytes_per_round),
    }


# -- wire-form unit tests ----------------------------------------------------


class TestRleRoundTrip:
    @given(
        values=st.lists(
            st.sampled_from(["a", "b", "c", 0, 1, None]), min_size=1, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_reproduce_value_sequence(self, values):
        """Grouping into runs and expanding back is the identity."""
        runs = []
        for value in values:
            if runs and repr(runs[-1][1]) == repr(value):
                runs[-1] = (runs[-1][0] + 1, runs[-1][1])
            else:
                runs.append((1, value))
        report = RleReport(40, 0, 2, 1, tuple(runs))
        assert [repr(v) for v in rle_values(report)] == [repr(v) for v in values]
        assert report.item_count == len(values)

    def test_wire_tuple_encodes_and_is_stable(self):
        report = RleReport(7, 0, 2, 3, ((30, "v"),))
        wire = report.wire_tuple()
        assert wire[0] == OM_REPORT_RLE
        assert encode(wire) == encode(report.wire_tuple())

    def test_rejects_malformed_runs(self):
        with pytest.raises(ValueError):
            RleReport(7, 0, 2, 1, ((0, "v"),))
        with pytest.raises(ValueError):
            RleReport(7, 0, 2, 1, ((True, "v"),))  # bool is not a count
        with pytest.raises(ValueError):
            RleReport(7, 0, 0, 1, ((1, "v"),))

    def test_encode_then_ingest_matches_direct_transfer(self):
        """A report encoded from one store and ingested by another files
        exactly the values a dense transfer would."""
        n, t = 7, 2
        src = SuccinctEigStore(n, t, 0, "d")
        src.set_root("v")
        # Make level 2 non-uniform so the report has multiple runs.
        for q in range(1, n):
            src.file_uniform(2, q, "v" if q % 2 else "w")
        me_src, me_dst = 3, 5
        report = encode_report(src, me_src, 2)
        assert report is not None and len(report.runs) > 1
        dst = SuccinctEigStore(n, t, 0, "d")
        ingest_rle(dst, report, relayer=me_src, me=me_dst, round_=3)
        for path in paths_of_length(n, 0, 2):
            if me_src in path or me_dst in path:
                continue
            assert repr(dst.get(path + (me_src,))) == repr(src.get(path))

    def test_uniform_report_is_single_run(self):
        n, t = 7, 2
        store = SuccinctEigStore(n, t, 0, "d")
        store.set_root("v")
        for q in range(1, n):
            store.file_uniform(2, q, "v")
        report = encode_report(store, 3, 2)
        assert len(report.runs) == 1

    def test_sender_has_nothing_to_report(self):
        store = SuccinctEigStore(7, 2, 0, "d")
        assert encode_report(store, 0, 1) is None

    def test_malformed_rle_is_dropped_whole(self):
        n, t = 7, 2
        store = SuccinctEigStore(n, t, 0, "d")
        # Wrong item count for the claimed (level, relayer).
        bad = RleReport(n, 0, 1, 2, ((5, "x"),))
        ingest_rle(store, bad, relayer=2, me=1, round_=2)
        assert store.stored_entries() == 0
        # Wrong level for the round.
        bad = RleReport(n, 0, 2, 2, ((20, "x"),))
        ingest_rle(store, bad, relayer=2, me=1, round_=2)
        assert store.stored_entries() == 0
        # Mismatched shape fields (crafted n).
        bad = RleReport(n + 1, 0, 1, 2, ((1, "x"),))
        ingest_rle(store, bad, relayer=2, me=1, round_=2)
        assert store.stored_entries() == 0

    def test_absurd_level_is_sized_instantly_and_filed_nowhere(self):
        """A report claiming a level with ~10^16 (or no) paths is sized by
        counting, not enumerating, and fails the item count on receipt."""
        started = time.perf_counter()
        reports = [RleReport(40, 0, level, 1, ((1, "x"),)) for level in (12, 60)]
        assert time.perf_counter() - started < 1.0
        store = SuccinctEigStore(40, 60, 0, "d")
        for report in reports:
            ingest_rle(store, report, relayer=1, me=2, round_=report.level + 1)
        assert store.stored_entries() == 0


class TestDenseByteEquivalence:
    @given(
        n=st.integers(4, 10),
        me=st.integers(1, 3),
        level=st.integers(1, 3),
        uniform=st.booleans(),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=120, deadline=None)
    def test_dense_byte_size_is_exact(self, n, me, level, uniform, seed):
        """``dense_byte_size`` equals the canonical size of the dense
        payload the report stands for, materialized the hard way."""
        import random

        rng = random.Random(seed)
        store = SuccinctEigStore(n, 3, 0, "d")
        store.set_root("v")
        values = ["v"] if uniform else ["v", "w", None, 1]
        for lvl in range(2, min(level, 3) + 1):
            for q in range(1, n):
                store.file_uniform(lvl, q, rng.choice(values))
        report = encode_report(store, me, level)
        if report is None:
            return
        dense_items = tuple(
            (path, store.get(path))
            for path in paths_of_length(n, 0, level)
            if me not in path
        )
        assert report.dense_byte_size() == byte_size((OM_REPORT, dense_items))

    def test_wire_byte_size_handles_nesting(self):
        """A compressed report wrapped in a composition tag is charged at
        the dense-equivalent size of the whole wrapper."""
        dense_items = tuple(
            (path, "v") for path in paths_of_length(7, 0, 2) if 3 not in path
        )
        report = RleReport(7, 0, 2, 3, ((len(dense_items), "v"),))
        wrapped_dense = ("akd", 4, (OM_REPORT, dense_items))
        assert wire_byte_size(("akd", 4, report)) == byte_size(wrapped_dense)

    @pytest.mark.parametrize(
        "head, well_formed",
        [
            (("mux", "akd", 4), True),
            (("mux", "akd", 2**70), True),
            (("mux", "akd"), False),  # wrong arity
            (("mux", "akd", "4"), False),  # non-int instance
            (("mux", "akd", True), False),  # bool is not an instance id
            (("mux", 7, 4), False),  # non-str channel
        ],
    )
    @pytest.mark.parametrize("compressed", [True, False], ids=["rle", "dense"])
    def test_wire_byte_size_prices_mux_wrappers(self, monkeypatch, head, well_formed, compressed):
        """A mux wrapper is priced at the dense encoding of what it stands
        for, by the structural rule's total; the well-formed wrapper gets
        there without the encoder raising."""
        from repro.crypto import encoding
        from repro.errors import EncodingError
        from repro.sim.message import _structural_size

        dense_items = tuple(
            (path, "v") for path in paths_of_length(7, 0, 2) if 3 not in path
        )
        dense = (OM_REPORT, dense_items)
        inner = RleReport(7, 0, 2, 3, ((len(dense_items), "v"),)) if compressed else dense
        raises = []
        real = encoding.byte_size

        def counting(value):
            try:
                return real(value)
            except EncodingError:
                raises.append(value)
                raise

        monkeypatch.setattr(encoding, "byte_size", counting)
        size = wire_byte_size((*head, inner))
        assert size == _structural_size((*head, inner)) == real((*head, dense))
        if well_formed:
            assert raises == []
            assert payload_kind((*head, inner)) == "akd"

    def test_payload_kind_matches_dense(self):
        report = RleReport(7, 0, 2, 3, ((30, "v"),))
        assert payload_kind(report) == OM_REPORT
        assert payload_kind((OM_REPORT, ())) == OM_REPORT


# -- engine equivalence: honest and Byzantine --------------------------------


class TestEngineEquivalenceHonest:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3), (3, 0)])
    def test_identical_observables(self, n, t):
        reference, succinct = run_both(n=n, t=t, seed=n)
        assert observables(reference) == observables(succinct)

    def test_store_stays_small_on_honest_runs(self):
        """The collapse claim, asserted: a failure-free run stores O(n·t)
        entries per node, not one per path."""
        n, t = 16, 4
        protocols = make_oral_agreement_protocols(n, t, "v")
        run_protocols(protocols, seed=1)
        dense_paths = sum(
            len(paths_of_length(n, 0, length)) for length in range(2, t + 2)
        )
        for protocol in protocols[1:]:
            entries = protocol._store.stored_entries()
            assert entries <= (n - 1) * t + 1
            assert entries < dense_paths / 500


def om_noise():
    """Byzantine payload pool in the dense wire form (the reference and
    ``src/`` must treat every element identically; run-length payloads
    are deliberately excluded — a crafted RleReport is only understood by
    the succinct side, noise to the reference)."""
    return st.sampled_from(
        [
            (OM_VALUE, "forged"),
            (OM_VALUE, None),
            (OM_REPORT, (((0,), "lie"),)),
            (OM_REPORT, (((0, 3), "z"), ((0, 2), "z"), ((0, 2), "zz"))),
            (OM_REPORT, (((0, 1, 2), "deep"),)),
            (OM_REPORT, (((0,), True), ((0,), 1))),
            (OM_REPORT, "garbage"),
            (OM_REPORT, ((("bad",), "v"), (([],), "v"))),
            (OM_REPORT, (((9, 9), "v"),)),
            ("unrelated", 7),
            b"raw-bytes",
        ]
    )


@st.composite
def om_adversary_specs(draw):
    """Up to T faulty nodes; each either silent or scripted noise.

    Returns a plain spec (no protocol objects) so each run builds its
    *own* adversary instances from identical data.
    """
    faulty = draw(
        st.sets(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=T)
    )
    specs = {}
    for node in sorted(faulty):
        kind = draw(st.sampled_from(["silent", "script"]))
        if kind == "silent":
            specs[node] = None
        else:
            script = {}
            for rnd in draw(st.lists(st.integers(0, T + 2), max_size=4)):
                recipients = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=N - 1).filter(
                            lambda v: v != node
                        ),
                        min_size=1,
                        max_size=3,
                    )
                )
                payload = draw(om_noise())
                script.setdefault(rnd, []).extend(
                    (recipient, payload) for recipient in recipients
                )
            specs[node] = script
    return specs


def build_adversaries(specs):
    return {
        node: SilentProtocol()
        if script is None
        else ScriptedProtocol(script, halt_after=T + 2)
        for node, script in specs.items()
    }


class TestEngineEquivalenceByzantine:
    @given(specs=om_adversary_specs(), seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_engines_identical_under_random_byzantine_behaviour(self, specs, seed):
        reference, succinct = run_both(lambda: build_adversaries(specs), seed=seed)
        assert observables(reference) == observables(succinct), (
            f"diverged from the reference; adversaries at {sorted(specs)}"
        )

    @given(seed=st.integers(0, 2**16), lying=st.integers(1, N - 1))
    @settings(max_examples=30, deadline=None)
    def test_engines_identical_under_flooded_reports(self, seed, lying):
        """A relayer that floods full valid-looking (but false) report
        tables exercises the multi-run and override paths of the store."""
        table2 = tuple(
            (path, "fake") for path in paths_of_length(N, 0, 2) if lying not in path
        )
        script = {
            1: [(p, (OM_REPORT, (((0,), "fake"),))) for p in range(N) if p != lying],
            2: [(p, (OM_REPORT, table2)) for p in range(N) if p != lying],
        }
        reference, succinct = run_both(
            lambda: {lying: ScriptedProtocol(script, halt_after=T + 2)}, seed=seed
        )
        assert observables(reference) == observables(succinct)


class TestByzantineReportNoise:
    def test_succinct_ingest_drops_unhashable_noise(self):
        """``ingest_dense_items`` tolerates unhashable Byzantine path
        elements (the reference's analog lives in ``test_paths.py``)."""
        protocol = OralAgreementProtocol(4, 1, value=None)
        payload = (OM_REPORT, ((([],), "x"), (([0, []]), "y")))
        protocol.on_round(_StubContext(1, 2), [Envelope(2, 1, payload, 1)])
        assert protocol._store.stored_entries() == 0


# -- columnar store: first-wins filing and the level sweep --------------------


def rle_values(report):
    """A report's dense value sequence, in canonical path order."""
    return [value for count, value in report.runs for _ in range(count)]


def file_tree(tree, n, sender, me, relayer, payload, round_):
    """File one received (well-formed) payload into the dense dict
    ``tree`` with its per-item ``setdefault`` semantics written out."""
    level = round_ - 1
    if isinstance(payload, RleReport):
        if payload.level != level:
            return  # a late / early report is dropped whole
        paths = [p for p in paths_of_length(n, sender, level) if relayer not in p]
        items = list(zip(paths, rle_values(payload)))
    else:
        items = payload
    for path, value in items:
        if me not in path:
            tree.setdefault(path + (relayer,), value)


def file_both(store, tree, n, sender, me, relayer, payload, round_):
    """File one received payload into the succinct ``store`` through
    ``src/``'s ingest, and into the dense dict ``tree``."""
    if isinstance(payload, RleReport):
        ingest_rle(store, payload, relayer, me, round_)
    else:
        ingest_dense_items(store, payload, relayer, me, round_)
    file_tree(tree, n, sender, me, relayer, payload, round_)


def addressed(target, relayer, me):
    """Whether a batch entry from ``relayer`` with recipient mask
    ``target`` (``BatchRecord.target`` encoding: ``None`` or an int
    bitmask) reaches ``me``."""
    return relayer != me if target is None else bool(target >> me & 1)


def eager_store(n, t, sender, default="d"):
    """A store in the shape that built every level's dicts up front."""
    store = SuccinctEigStore(n, t, sender, default)
    for table in (store.uniform, store.columns, store.overrides):
        table.update({level: {} for level in range(2, t + 2)})
    return store


def assert_same_reads(store, other, me):
    """Two stores of one tree read the same to ``me``: whole levels,
    reports, entries and the decision, and path by path on every level
    ``store`` never filed."""
    n, t, sender = store.n, store.t, store.sender
    assert store.stored_entries() == other.stored_entries()
    tables = (store.uniform, store.columns, store.overrides)
    for level in range(1, t + 2):
        if level > 1 and not any(level in table for table in tables):
            for path in paths_of_length(n, sender, level):
                if me not in path:
                    assert repr(store.get(path)) == repr(other.get(path))
        reads = []
        for held in (store, other):
            codes = _ValueCodes()
            reads.append([repr(codes.values[c]) for c in held.level_codes(level, codes.code)])
        assert reads[0] == reads[1]
        if level <= t:
            mine, theirs = encode_report(store, me, level), encode_report(other, me, level)
            assert (mine and mine.wire_tuple()) == (theirs and theirs.wire_tuple())
    assert repr(store.resolve(me)) == repr(other.resolve(me))


def assert_store_matches_tree(store, tree, n, t, sender, default, me):
    """``get``, ``encode_report`` and ``resolve`` all read the store the
    way the reference reads its dict."""
    for level in range(1, t + 2):
        visible = [p for p in paths_of_length(n, sender, level) if me not in p]
        held = [tree.get(p, default) for p in visible]
        assert [repr(store.get(p)) for p in visible] == [repr(v) for v in held]
        if level <= t:
            report = encode_report(store, me, level)
            assert [repr(v) for v in rle_values(report)] == [repr(v) for v in held]
            assert report.dense_byte_size() == byte_size(
                (OM_REPORT, tuple(zip(visible, held)))
            )
    expected = reference_resolve(tree, n, t, sender, default, me)
    assert repr(store.resolve(me)) == repr(expected)


class TestFirstFiledReportWins:
    """One relayer, one level, every filing order of the three wire
    shapes: the store must hold what the dense ``setdefault`` dict holds."""

    N, T, ME, RELAYER, ROUND = 10, 3, 1, 4, 3

    def payloads(self):
        n, q = self.N, self.RELAYER
        covered = [p for p in paths_of_length(n, 0, 2) if q not in p]
        count = len(covered)
        return [
            # dense items: partial, one path through ``me``, one repeated
            ((covered[2], "d1"), (covered[0], "d2"), (covered[5], "d3"), (covered[2], "dd")),
            (((0, 7), "e1"), ((0, 2), "e2")),
            RleReport(n, 0, 2, q, ((count, "u"),)),
            RleReport(n, 0, 2, q, ((count, "uu"),)),
            RleReport(n, 0, 2, q, ((2, "m1"), (3, "m2"), (count - 5, "m1"))),
            RleReport(n, 0, 2, q, ((1, "k"), (count - 1, "v"))),
        ]

    def filed(self, order, adopted=False):
        """Store and dict after the relayer's payloads arrive in
        ``order``, on a background of other relayers' reports — filed one
        by one, or (``adopted``) taken over whole from a tick in which
        relayers 2, 5, 6 and ``me`` itself broadcast uniform reports."""
        n, t, me = self.N, self.T, self.ME
        store, tree = SuccinctEigStore(n, t, 0, "d"), {}
        store.set_root("v")
        tree[(0,)] = "v"
        if adopted:
            senders = [me, 2, 5, 6]
            reports = [
                RleReport(n, 0, 2, q, ((8, "w" if q == 5 else "v"),)) for q in senders
            ]
            ingest_rle_batch(store, senders, reports, [None] * 4, me, self.ROUND, {})
            assert type(store.uniform[3]) is _SharedLevel
            for relayer, report in zip(senders[1:], reports[1:]):
                file_tree(tree, n, 0, me, relayer, report, self.ROUND)
        else:
            background = {
                2: RleReport(n, 0, 2, 2, ((8, "v"),)),
                5: RleReport(n, 0, 2, 5, ((3, "v"), (5, "w"))),
                6: (((0, 3), "x"),),
            }
            for relayer, payload in background.items():
                file_both(store, tree, n, 0, me, relayer, payload, self.ROUND)
        payloads = self.payloads()
        for index in order:
            file_both(store, tree, n, 0, me, self.RELAYER, payloads[index], self.ROUND)
        return store, tree

    every_order = pytest.mark.parametrize(
        "order",
        list(itertools.permutations(range(6), 3)) + [(i, i) for i in range(6)],
        ids=lambda order: "".join("ddUUMM"[i] + str(i) for i in order),
    )

    @every_order
    def test_every_order_matches_dense(self, order):
        store, tree = self.filed(order)
        assert_store_matches_tree(store, tree, self.N, self.T, 0, "d", self.ME)

    @every_order
    def test_every_order_matches_dense_on_an_adopted_level(self, order):
        store, tree = self.filed(order, adopted=True)
        # The relayer's first payload made the shared level private.
        assert type(store.uniform[3]) is dict and self.ME not in store.uniform[3]
        assert_store_matches_tree(store, tree, self.N, self.T, 0, "d", self.ME)

    def test_one_targeted_report_and_nobody_adopts(self):
        """One single-bit-targeted report in an otherwise all-broadcast
        batch: it is filed entry by entry into private dicts, and only
        the target holds that report."""
        n, t = self.N, self.T
        senders = [1, 2, 3, 4]
        reports = [RleReport(n, 0, 2, q, ((8, f"v{q}"),)) for q in senders]
        targets = [None, None, 1 << 5, None]
        shared = {}
        for me in range(1, n):
            store, tree = SuccinctEigStore(n, t, 0, "d"), {}
            ingest_rle_batch(store, senders, reports, targets, me, self.ROUND, shared)
            assert type(store.uniform[3]) is dict
            assert (3 in store.uniform[3]) == (me == 5)
            for relayer, report, target in zip(senders, reports, targets):
                if addressed(target, relayer, me):
                    file_tree(tree, n, 0, me, relayer, report, self.ROUND)
            assert_store_matches_tree(store, tree, n, t, 0, "d", me)

    def test_multi_run_report_is_one_entry_not_one_per_path(self):
        store, _ = self.filed((4,))
        assert self.RELAYER in store.columns[3]
        assert not any(path[-1] == self.RELAYER for path in store.overrides[3])

    def test_short_hand_filed_column_is_an_error_not_a_truncated_level(self):
        store = SuccinctEigStore(7, 2, 0, "d")
        store.file_column(3, 2, ((2, "x"), (1, "y")))
        with pytest.raises(ValueError, match="shorter"):
            store.resolve(1)


VALUE_POOL = ["a", "b", "d", None, 0]


@st.composite
def filing_scenarios(draw):
    """A tree shape plus, per round, a list of ``(relayer, payload)``
    arrivals: uniform and multi-run reports, partial dense item lists,
    duplicates of any of them, and reports for the wrong level.  One
    scenario in two leaves one level untouched: nothing arrives in its
    round (late reports for it elsewhere are dropped)."""
    t = draw(st.integers(1, 3))
    n = draw(st.integers(t + 3, 9))
    sender = draw(st.integers(0, n - 1))
    values = st.sampled_from(VALUE_POOL)
    untouched = draw(st.one_of(st.none(), st.integers(2, t + 1)))
    rounds = {}
    for round_ in range(2, t + 2):
        arrivals = []
        if round_ == untouched:
            rounds[round_] = arrivals
            continue
        for _ in range(draw(st.integers(0, 2 * n))):
            relayer = draw(st.integers(0, n - 1).filter(lambda q: q != sender))
            kind = draw(st.sampled_from(["uniform", "multi", "dense", "late"]))
            level = round_ - 1 if kind != "late" else draw(st.integers(1, t))
            covered = [p for p in paths_of_length(n, sender, level) if relayer not in p]
            if kind == "dense":
                items = draw(st.lists(st.tuples(st.sampled_from(covered), values), max_size=6))
                arrivals.append((relayer, tuple(items)))
                continue
            if kind == "uniform":
                column = [draw(values)] * len(covered)
            else:
                column = draw(st.lists(values, min_size=len(covered), max_size=len(covered)))
            runs = tuple(
                (len(list(group)), value)
                for value, group in itertools.groupby(column)
            )
            arrivals.append((relayer, RleReport(n, sender, level, relayer, runs)))
        rounds[round_] = arrivals
    root = draw(st.one_of(st.none(), values))
    return n, t, sender, root, rounds


class TestColumnarSweepEqualsDense:
    @given(scenario=filing_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_every_node_resolves_like_the_dense_engine(self, scenario):
        """Random partial, late and duplicate reports, seen from every
        ``me``: the columnar store answers exactly like a dense dict
        filled item by item.  Run columns carry values for paths through
        ``me`` that the dict never files — equality here is the proof
        that the sweep never consumes them.  A twin store holding every
        level dict from the start reads the same."""
        n, t, sender, root, rounds = scenario
        fresh = SuccinctEigStore(n, t, sender, "d")
        assert fresh.uniform == fresh.columns == fresh.overrides == {}
        for me in range(n):
            if me == sender:
                continue
            store, tree, eager = SuccinctEigStore(n, t, sender, "d"), {}, eager_store(n, t, sender)
            if root is not None:
                store.set_root(root)
                eager.set_root(root)
                tree[(sender,)] = root
            for round_, arrivals in rounds.items():
                for relayer, payload in arrivals:
                    if relayer != me:  # a node never receives its own relay
                        file_both(store, tree, n, sender, me, relayer, payload, round_)
                        file_both(eager, {}, n, sender, me, relayer, payload, round_)
            assert_store_matches_tree(store, tree, n, t, sender, "d", me)
            assert_same_reads(store, eager, me)


@pytest.fixture
def repr_calls(monkeypatch):
    """The values the tree's value identity is computed for, in order."""
    calls = []
    monkeypatch.setattr(eigtree, "_repr_key", lambda value: calls.append(value) or repr(value))
    return calls


class TestValueCodes:
    def test_equal_reprs_share_a_code_and_repeats_skip_repr(self, repr_calls):
        codes = _ValueCodes()
        a, b = ("x", [1]), ("x", [1])
        assert a is not b
        assert [codes.code(a), codes.code(b), codes.code("y")] == [0, 0, 1]
        assert len(repr_calls) == 3
        for _ in range(4):
            assert [codes.code(a), codes.code(b), codes.code("y")] == [0, 0, 1]
        assert len(repr_calls) == 3  # once per distinct object
        assert codes.values == [a, "y"]


# -- columnar ingest: shared levels vs per-entry filing ------------------------


class _StubContext:
    """The slice of ``NodeContext`` one ``on_round`` / ``on_round_batch``
    step touches."""

    def __init__(self, node, round_):
        self.node, self.round = node, round_

    def broadcast(self, payload):
        pass

    decide = broadcast

    def halt(self):
        pass


def rle_is_valid(report, relayer, n, t, sender, level):
    """The ingest's validity rule, written out over the path table."""
    if not 1 <= level <= t or relayer == sender:
        return False
    covered = [p for p in paths_of_length(n, sender, level) if relayer not in p]
    return (report.n, report.sender, report.level, report.exclude, report.item_count) == (
        n, sender, level, relayer, len(covered)
    )  # fmt: skip


@st.composite
def batch_scenarios(draw):
    """A tree shape, one round, and 1-3 consecutive channel batches for
    that round's level, as ``(relayer, payload, target)`` entries.  Three
    batch shapes: *honest* (every relayer broadcasts one uniform report
    of a common value, at most one of them deviating — the shared level
    is adopted and its agreement read), *broadcast* (uniform and invalid
    reports to everyone, relayers missing and repeating) and *mixed*
    (also multi-run reports, dense items and noise, sent to everyone, one
    node or a subset — filed entry by entry, making adopted levels
    private).  One scenario in four files into an out-of-range round."""
    t = draw(st.integers(1, 2))
    n = draw(st.integers(3 * t + 1, 3 * t + 3))
    sender = draw(st.integers(0, n - 1))
    in_range = draw(st.sampled_from([True, True, True, False]))
    round_ = draw(st.integers(2, t + 1)) if in_range else t + 2
    level = round_ - 1
    values = st.sampled_from(VALUE_POOL)
    nodes = st.integers(0, n - 1)

    def report(relayer, kind, value):
        count = sum(relayer not in p for p in paths_of_length(n, sender, min(level, t)))
        if kind == "uniform" or count < 2:
            runs = ((max(count, 1), value),)
        else:
            runs = ((1, value), (count - 1, draw(values)))
        if kind == "invalid":
            bad = draw(st.sampled_from(["count", "exclude", "level", "n"]))
            if bad == "count":
                runs = ((runs[0][0] + 1, value),) + runs[1:]
            return RleReport(
                n + (bad == "n"),
                sender,
                level + (bad == "level"),
                (relayer + (bad == "exclude")) % n,
                runs,
            )
        return RleReport(n, sender, level, relayer, runs)

    def entry(relayer, kinds, targeted):
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            prefixes = paths_of_length(n, sender, level)
            items = st.lists(st.tuples(st.sampled_from(prefixes), values), max_size=4)
            payload = (OM_REPORT, tuple(draw(items)))
        elif kind == "noise":
            payload = draw(st.sampled_from([("unrelated", 7), b"raw", (OM_VALUE, "x")]))
        else:
            payload = report(relayer, kind, draw(values))
        others = [node for node in range(n) if node != relayer]
        target = None
        if targeted:
            target = draw(
                st.one_of(
                    st.none(),
                    st.sampled_from(others).map(lambda node: 1 << node),
                    st.frozensets(st.sampled_from(others), max_size=n).map(
                        lambda members: sum(1 << node for node in members)
                    ),
                )
            )
        return relayer, payload, target

    batches = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["honest", "broadcast", "mixed"]))
        if shape == "honest":
            common, odd = draw(values), draw(st.one_of(st.none(), nodes))
            batch = [
                (q, report(q, "uniform", draw(values) if q == odd else common), None)
                for q in range(n)
                if q != sender
            ]
        else:
            kinds = ["uniform", "uniform", "uniform", "invalid"]
            if shape == "mixed":
                kinds += ["multi", "noise"] + ["dense"] * in_range
            batch = [
                entry(relayer, kinds, targeted=shape == "mixed")
                for relayer in draw(st.lists(nodes, max_size=n + 2))
            ]
        batches.append((batch, draw(st.permutations(range(n)))))
    root = draw(st.one_of(st.none(), values))
    return n, t, sender, round_, root, batches


class TestIngestRleBatch:
    """``ingest_rle_batch`` — through its one caller, ``on_round_batch`` —
    files exactly what per-entry ingest in array order files, whether a
    receiver adopts the tick's shared level, keeps it, or makes it
    private; and into a store whose level dicts exist untouched up front
    (every level but the batch's stays untouched) exactly what it files
    into one that creates them on first filing."""

    @given(scenario=batch_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_batch_ingest_equals_per_entry_ingest(self, scenario):
        n, t, sender, round_, root, batches = scenario

        def protocols(eager=False):
            made = [
                OralAgreementProtocol(n, t, default="d", sender=sender) for _ in range(n)
            ]
            for protocol in made:
                if eager:
                    protocol._store = eager_store(n, t, sender)
                if root is not None:
                    protocol._ingest_one(None, sender, (OM_VALUE, root), 1)
            return made

        batched, filed, eagerly = protocols(), protocols(), protocols(eager=True)
        trees = [{} if root is None else {(sender,): root} for _ in range(n)]
        for batch, receiver_order in batches:
            group = ChannelBatch()
            for relayer, payload, target in batch:
                group.senders.append(relayer)
                group.payloads.append(payload)
                group.targets.append(target)
                group.rounds.append(round_ - 1)
            for me in receiver_order:  # one ``group.shared`` for all of them
                batched[me].on_round_batch(_StubContext(me, round_), group)
                eagerly[me].on_round_batch(_StubContext(me, round_), group)
                for relayer, payload, target in batch:
                    if not addressed(target, relayer, me):
                        continue
                    if not isinstance(payload, RleReport):
                        filed[me]._ingest_one(me, relayer, payload, round_)
                        if payload[0] == OM_REPORT:
                            file_items(trees[me], n, sender, me, relayer, payload[1], round_)
                        continue
                    ingest_rle(filed[me]._store, payload, relayer, me, round_)
                    if rle_is_valid(payload, relayer, n, t, sender, round_ - 1):
                        file_tree(trees[me], n, sender, me, relayer, payload, round_)
        for me in range(n):
            if me == sender:
                continue  # holds no path avoiding itself: nothing to read
            store, tree = batched[me]._store, trees[me]
            assert store.stored_entries() == filed[me]._store.stored_entries()
            assert_store_matches_tree(store, tree, n, t, sender, "d", me)
            assert_store_matches_tree(filed[me]._store, tree, n, t, sender, "d", me)
            assert_same_reads(store, eagerly[me]._store, me)

    def test_report_behind_its_relayers_dense_items_waits_its_turn(self):
        """First-wins is array order per relayer across wire shapes: the
        batch ingest used to file every report before any leftover, so
        relayer 1's later report beat its own earlier dense item (found
        by the property above; the object mux engine never did this)."""
        group = ChannelBatch()
        group.senders = [1, 1, 3]
        group.payloads = [
            (OM_REPORT, (((0,), "dense-first"),)),
            RleReport(4, 0, 1, 1, ((1, "report-second"),)),
            RleReport(4, 0, 1, 3, ((1, "v"),)),
        ]
        group.targets = [None, None, None]
        group.rounds = [1, 1, 1]
        protocol = OralAgreementProtocol(4, 1, default="d")
        protocol.on_round_batch(_StubContext(2, 2), group)
        assert protocol._store.get((0, 1)) == "dense-first"
        assert protocol._store.get((0, 3)) == "v"

    N, T = 7, 1

    def failure_free_tick(self, value_of=lambda q: "v"):
        """Every node's store after one synchronous tick of level-1
        reports from all six relayers."""
        n, t = self.N, self.T
        senders = list(range(1, n))
        reports = [RleReport(n, 0, 1, q, ((1, value_of(q)),)) for q in senders]
        stores = [SuccinctEigStore(n, t, 0, "d") for _ in range(n)]
        shared = {}
        for me in (3, 0, 6, 1, 5, 2, 4):
            stores[me].set_root("v")
            assert ingest_rle_batch(stores[me], senders, reports, [None] * 6, me, 2, shared) is None
        return stores

    def test_receivers_of_a_failure_free_tick_alias_one_level(self):
        stores = self.failure_free_tick()
        column = stores[0].uniform[2]
        assert type(column) is _SharedLevel and list(column) == list(range(1, self.N))
        assert all(store.uniform[2] is column for store in stores)
        assert [store.owner for store in stores] == list(range(self.N))
        # One more report for one receiver: its level turns private (own
        # relay dropped, first-wins kept); the others and the column stay.
        late = RleReport(self.N, 0, 1, 4, ((1, "late"),))
        ingest_rle(stores[3], late, relayer=4, me=3, round_=2)
        assert type(stores[3].uniform[2]) is dict
        assert stores[3].uniform[2] == {q: "v" for q in (1, 2, 4, 5, 6)}
        assert all(stores[me].uniform[2] is column for me in range(self.N) if me != 3)
        assert dict(column) == {q: "v" for q in range(1, self.N)}

    def test_a_failure_free_tick_is_decided_by_identity(self, repr_calls):
        """Every receiver adopts one shared level and resolves it through
        the unanimity fast path: one value object, no ``repr`` at all."""
        stores = self.failure_free_tick()
        assert [stores[me].resolve(me) for me in range(1, self.N)] == ["v"] * (self.N - 1)
        assert repr_calls == []

    def test_readers_ignore_the_owners_own_relay(self):
        """A shared level holds the owner's relay; a private dict never
        did.  Unanimous only *except for* / *counting* ``me``'s entry."""
        n, t = self.N, self.T
        for me, odd in [(3, 3), (3, 5)]:
            store = self.failure_free_tick(lambda q: "x" if q == odd else "v")[me]
            assert store.stored_entries() == 1 + (n - 2)
            report = encode_report(store, me, 2)
            # me's own "x" is invisible to me; relayer 5's is not.
            assert len(report.runs) == (1 if odd == me else 3)
            assert repr(store.resolve(me)) == repr("v")
            # file_column / file_override probe the owner's view: the
            # owner's relay blocks nothing (and is never consumed).
            store.file_override(2, (0, me), "o")
            assert store.overrides[2] == {(0, me): "o"}
            assert me not in store.uniform[2]
        # ``level_codes`` may read the owner's relay at paths through the
        # owner; no consumer of it does (``resolve`` / ``encode_report``
        # above).  A store asked on another node's behalf takes the walk.
        store = self.failure_free_tick()[3]
        assert repr(store._level_uniform_value(2, 4)) != repr("v")
