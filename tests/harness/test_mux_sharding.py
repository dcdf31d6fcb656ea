"""The pipelined instance-shard executor: bit-for-bit equivalence.

The acceptance property of the mux subsystem: running the K instances of
one agreement-based key-distribution execution as shards — any shard
count, built in-process or pooled through
:func:`repro.harness.parallel.run_mux_shards` — produces *identical*
per-instance decisions, rounds and envelope/byte metrics to the single
in-process :class:`~repro.sim.multiplex.InstanceMux` run, including
under random Byzantine behaviour.  "Identical" is dataclass value
equality on :class:`~repro.sim.multiplex.InstanceAggregate`, i.e. every
decision, every counter, every byte — bit-for-bit.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auth import run_agreement_key_distribution
from repro.harness import run_mux_shards, shard_instances
from repro.harness.workloads import akd_shard_point
from repro.sim.multiplex import merge_instance_aggregates

N, T = 7, 2
SCHEME = "simulated-hmac"


def full_run(seed, adversary=None):
    return run_agreement_key_distribution(
        N, T, scheme=SCHEME, seed=seed, adversary=adversary
    )


def sharded(seed, adversary=None, workers=3):
    """The shards :func:`run_mux_shards` would run, built in this process:
    the same partition, shard workload and merge, no pool."""
    return merge_instance_aggregates(
        akd_shard_point(
            N, T, seed=seed, scheme=SCHEME, instances=shard, adversary=adversary
        )
        for shard in shard_instances(range(N), workers)
    )


def liar(instances=(), **params):
    """A shard workload claiming an instance no shard owns."""
    return {99: "not-yours"}


@st.composite
def adversary_specs(draw):
    """Up to T faulty nodes, each silent or mux-noise — as an
    adversary-plane spec string, the picklable form shard workers
    rebuild from (``None`` for the failure-free run)."""
    faulty = draw(
        st.sets(st.integers(min_value=0, max_value=N - 1), max_size=T)
    )
    items = [
        f"{node}={draw(st.sampled_from(['silent', 'noise']))}"
        for node in sorted(faulty)
    ]
    return ";".join(items) or None


class TestShardInstances:
    def test_partition_is_contiguous_and_balanced(self):
        assert shard_instances(range(7), 3) == [(0, 1, 2), (3, 4), (5, 6)]

    def test_never_more_shards_than_instances(self):
        assert shard_instances([5, 9], 8) == [(5,), (9,)]

    def test_empty(self):
        assert shard_instances([], 4) == []


class TestEquivalenceProperty:
    @given(spec=adversary_specs(), seed=st.integers(0, 2**16),
           workers=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_sharded_equals_in_process_mux(self, spec, seed, workers):
        """The engine-equivalence property: decisions, rounds and
        per-instance envelope/byte metrics, bit-for-bit, under random
        Byzantine behaviour and any shard count."""
        full = full_run(seed, adversary=spec)
        shards = sharded(seed, adversary=spec, workers=workers)
        assert shards == full.per_instance, (
            f"shard divergence; adversary {spec!r}, workers={workers}"
        )

    def test_process_pool_transport_is_value_preserving(self):
        """One pooled run (in-process where pools cannot start): crossing
        the process boundary changes no value."""
        spec = "2=noise;5=silent"
        full = full_run(31, adversary=spec)
        pooled = run_mux_shards(
            "akd-shard",
            {"n": N, "t": T, "seed": 31, "scheme": SCHEME, "adversary": spec},
            range(N),
            workers=3,
        )
        assert pooled == full.per_instance

    def test_every_shard_count_gives_the_same_merge(self):
        full = full_run(8)
        results = [sharded(8, workers=w) for w in (1, 2, 3, 7)]
        for result in results:
            assert result == full.per_instance


class TestMergeSafety:
    def test_foreign_instance_rejected(self):
        with pytest.raises(ValueError, match="foreign instance"):
            run_mux_shards(liar, {}, range(4), workers=2)

    def test_unpicklable_fn_raises_and_runs_nothing(self):
        captured = []

        def closure(instances=(), **params):  # closes over `captured`
            captured.append(tuple(instances))
            return {}

        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            run_mux_shards(closure, {"seed": 4}, range(N), workers=3)
        assert captured == []


class TestDirectoriesSurvivePort:
    """The mux port must not change what AKD *means*."""

    def test_full_run_directories_complete_and_uniform(self):
        result = full_run(12)
        for observer in range(N):
            for subject in range(N):
                assert result.directories[observer].predicates_for(subject) == (
                    result.keypairs[subject].predicate,
                )

    def test_subset_run_binds_only_its_slice(self):
        result = run_agreement_key_distribution(
            N, T, scheme=SCHEME, seed=12, instances=(1, 3)
        )
        directory = result.directories[0]
        assert directory.predicates_for(1) == (result.keypairs[1].predicate,)
        assert directory.predicates_for(4) == ()
