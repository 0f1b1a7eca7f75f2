"""Property/invariant tests for SelectionService internals.

- the in-memory LRU must evict in exact least-recently-used order under
  arbitrary access sequences (checked against a reference model);
- the latency histogram behind ``ServiceStats``/``RouterStats``:
  ``since`` and ``merge`` are exact count arithmetic, and every
  percentile read brackets numpy's nearest-rank value within one bucket;
- cache keys must isolate configs: two services with different config
  fingerprints sharing one registry never serve each other's artifacts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeatureSet, TransferGraphConfig
from repro.obs.metrics import PERCENTILE_BUCKETS_MS, Histogram
from repro.serving import ArtifactRegistry, SelectionService, ServiceStats
from repro.strategies.fingerprint import config_fingerprint

from serving_stubs import StubFitted, StubZoo, stub_service

_TARGETS = ("t0", "t1", "t2", "t3", "t4", "t5")


# ---------------------------------------------------------------------- #
# LRU eviction order
# ---------------------------------------------------------------------- #
class TestLRUInvariants:
    @settings(max_examples=60, deadline=None)
    @given(accesses=st.lists(st.sampled_from(_TARGETS), max_size=50),
           cache_size=st.integers(min_value=1, max_value=4))
    def test_eviction_order_matches_reference_lru(self, accesses, cache_size):
        service = SelectionService(StubZoo(_TARGETS), TransferGraphConfig(),
                                   cache_size=cache_size)
        service.strategy.fit = lambda zoo, target: StubFitted(target)

        reference: OrderedDict[str, None] = OrderedDict()
        hits = misses = evictions = 0
        for target in accesses:
            if target in reference:
                reference.move_to_end(target)
                hits += 1
            else:
                reference[target] = None
                misses += 1
                while len(reference) > cache_size:
                    reference.popitem(last=False)
                    evictions += 1
            service._answer(target)

            assert service.cached_targets() == list(reference)

        stats = service.stats()
        assert stats["cache_hits"] == hits
        assert stats["cache_misses"] == misses
        assert stats["evictions"] == evictions
        assert stats["fits"] == misses  # every miss was a cold fit
        assert len(service.cached_targets()) <= cache_size

    def test_cached_pipeline_identity_preserved(self):
        """A hit returns the very object inserted at fit time."""
        service = stub_service(_TARGETS)
        first = service._answer("t0")
        again = service._answer("t0")
        assert again is first


# ---------------------------------------------------------------------- #
# the latency histogram: exact count arithmetic, bracketed percentiles
# ---------------------------------------------------------------------- #
#: latencies from 0.1 us (under the first bound) to 100 s (the +Inf bucket)
_LATENCY = st.floats(min_value=-4.0, max_value=5.0).map(lambda e: 10.0**e)
_QS = (0, 1, 25, 50, 90, 95, 99, 100)


def _histogram(samples) -> Histogram:
    hist = Histogram()
    for value in samples:
        hist.observe(value)
    return hist


def _bucket_edge(value: float) -> float:
    """Upper edge of the bucket ``value`` falls in (+Inf past the last)."""
    index = bisect_left(PERCENTILE_BUCKETS_MS, value)
    return PERCENTILE_BUCKETS_MS[index] if index < len(PERCENTILE_BUCKETS_MS) \
        else math.inf


def _reads(hist: Histogram, samples) -> list[tuple[float, float]]:
    """(numpy's exact nearest-rank value, the histogram's read) per q."""
    return [(float(np.percentile(samples, q, method="inverted_cdf")), got)
            for q, got in zip(_QS, hist.percentiles(_QS))]


class TestLatencyHistogram:
    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(_LATENCY, max_size=60), data=st.data())
    def test_since_is_exactly_the_later_samples(self, samples, data):
        split = data.draw(st.integers(min_value=0, max_value=len(samples)))
        later = samples[split:]
        stats = ServiceStats()
        for value in samples[:split]:
            stats.queries += 1
            stats.latencies_ms.observe(value)
        earlier = stats.copy()
        for value in later:
            stats.queries += 1
            stats.latencies_ms.observe(value)

        delta = stats.since(earlier)
        counts, total, count = delta.latencies_ms.snapshot()
        want_counts, want_total, want_count = _histogram(later).snapshot()
        assert delta.queries == count == want_count == len(later)
        assert counts == want_counts
        assert total == pytest.approx(want_total)
        if later:
            # the delta's max is estimated: at most one bucket high
            top = max(later)
            assert top <= delta.latencies_ms.max <= _bucket_edge(top)
            for exact, got in _reads(delta.latencies_ms, later):
                assert exact <= got <= _bucket_edge(exact)
        else:
            assert delta.latency_summary() == {"p50_ms": 0.0, "p95_ms": 0.0,
                                               "max_ms": 0.0}

    @settings(max_examples=80, deadline=None)
    @given(first=st.lists(_LATENCY, max_size=40),
           second=st.lists(_LATENCY, max_size=40))
    def test_merge_equals_one_histogram_of_both(self, first, second):
        merged = _histogram(first).merge(_histogram(second))
        both = _histogram(first + second)
        counts, total, count = merged.snapshot()
        want_counts, want_total, want_count = both.snapshot()
        assert (counts, count) == (want_counts, want_count)
        assert total == pytest.approx(want_total)
        assert merged.max == both.max
        assert merged.percentiles(_QS) == both.percentiles(_QS)

    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(_LATENCY, min_size=1, max_size=60))
    def test_percentiles_bracket_numpy_nearest_rank(self, samples):
        for exact, got in _reads(_histogram(samples), samples):
            assert exact <= got <= min(_bucket_edge(exact), max(samples))

    @settings(max_examples=60, deadline=None)
    @given(value=_LATENCY, repeats=st.integers(min_value=1, max_value=30))
    def test_one_repeated_value_reads_back_exactly(self, value, repeats):
        hist = _histogram([value] * repeats)
        assert hist.percentiles(_QS) == (value,) * len(_QS)
        assert hist.max == value

    def test_empty_histogram_reads_zero(self):
        assert Histogram().percentiles((50, 95)) == (0.0, 0.0)
        assert Histogram().max == 0.0


# ---------------------------------------------------------------------- #
# cache-key isolation across config fingerprints
# ---------------------------------------------------------------------- #
class TestConfigIsolation:
    def test_two_configs_never_share_artifacts(self, tiny_image_zoo,
                                               tmp_path):
        config_a = TransferGraphConfig(predictor="lr", embedding_dim=16,
                                       features=FeatureSet.everything())
        config_b = TransferGraphConfig(predictor="lr", embedding_dim=16,
                                       features=FeatureSet.everything(),
                                       seed=99)
        assert config_fingerprint(config_a) != config_fingerprint(config_b)

        registry = ArtifactRegistry(tmp_path)
        target = tiny_image_zoo.target_names()[0]

        service_a = SelectionService(tiny_image_zoo, config_a,
                                     registry=registry)
        service_a.rank(target)
        assert registry.targets(config_a) == [target]
        assert registry.targets(config_b) == []

        # B must fit from scratch: A's artifact lives in another namespace.
        service_b = SelectionService(tiny_image_zoo, config_b,
                                     registry=registry)
        service_b.rank(target)
        stats_b = service_b.stats()
        assert stats_b["fits"] == 1
        assert stats_b["registry_hits"] == 0

        # A's namespace still revives warm — B's fit didn't clobber it.
        service_a2 = SelectionService(tiny_image_zoo, config_a,
                                      registry=registry)
        service_a2.rank(target)
        assert service_a2.stats()["registry_hits"] == 1
        assert service_a2.stats()["fits"] == 0

    def test_in_memory_keys_carry_the_fingerprint(self):
        service = stub_service(_TARGETS)
        service._answer("t0")
        (key,) = service._cache
        assert key == ("t0", service.config_fp)
