"""Property/invariant tests for SelectionService internals.

- the in-memory LRU must evict in exact least-recently-used order under
  arbitrary access sequences (checked against a reference model);
- ``ServiceStats.since`` must stay correct when the latency deque wraps
  at the ``LATENCY_WINDOW`` boundary;
- cache keys must isolate configs: two services with different config
  fingerprints sharing one registry never serve each other's artifacts.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeatureSet, TransferGraphConfig
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
# ServiceStats.since at the latency-window boundary
# ---------------------------------------------------------------------- #
def _stats_with_window(window: int) -> ServiceStats:
    stats = ServiceStats()
    stats.latencies_ms = deque(maxlen=window)
    return stats


class TestStatsWindowBoundary:
    @settings(max_examples=80, deadline=None)
    @given(window=st.integers(min_value=1, max_value=16),
           n_before=st.integers(min_value=0, max_value=40),
           n_after=st.integers(min_value=0, max_value=40))
    def test_since_slices_exactly_the_new_latencies(self, window, n_before,
                                                    n_after):
        stats = _stats_with_window(window)
        values = [float(i) for i in range(n_before + n_after)]
        for v in values[:n_before]:
            stats.queries += 1
            stats.latencies_ms.append(v)
        earlier = stats.copy()
        for v in values[n_before:]:
            stats.queries += 1
            stats.latencies_ms.append(v)

        delta = stats.since(earlier)
        assert delta.queries == n_after
        expected = values[-min(n_after, window):] if n_after else []
        assert list(delta.latencies_ms) == expected

    def test_window_overflow_keeps_most_recent(self):
        """More new queries than the window: since() returns the newest
        ``window`` latencies, never stale pre-snapshot entries."""
        window = 8
        stats = _stats_with_window(window)
        earlier = stats.copy()
        for i in range(3 * window):
            stats.queries += 1
            stats.latencies_ms.append(float(i))
        delta = stats.since(earlier)
        assert delta.queries == 3 * window
        assert list(delta.latencies_ms) == [float(i) for i in
                                            range(2 * window, 3 * window)]

    def test_real_window_constant_bounds_the_deque(self):
        from repro.serving.service import LATENCY_WINDOW

        stats = ServiceStats()
        assert stats.latencies_ms.maxlen == LATENCY_WINDOW


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
