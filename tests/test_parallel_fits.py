"""Parallel cold fits + adaptive backpressure.

`TransferGraphStrategy.fit` lazily records derived similarity/transferability
scores into the *shared* zoo catalog; since that recording is
lock-guarded (scoped batches merged under ``ZooCatalog.lock``), distinct
targets may fit concurrently.  These tests prove the results are
identical to serial fits even when the derived tables start empty, that
the router actually overlaps fits, and that the shed-retry hint tracks
the stats-window p95 fit latency.
"""

from __future__ import annotations

import asyncio
import copy
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import AsyncSelectionRouter, QueueFullError
from repro.store import ZooCatalog
from repro.strategies import TransferGraphStrategy

from serving_stubs import stub_service


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


def _zoo_with_cold_catalog(zoo):
    """A shallow zoo clone whose derived score tables start empty.

    Ground truth (models/datasets/history) is copied; similarity and
    transferability are dropped so concurrent fits must race on the
    lazy check-and-fill paths the catalog lock guards.
    """
    catalog = ZooCatalog()
    for table in ("models", "datasets", "history"):
        getattr(catalog, table).load_records(
            getattr(zoo.catalog, table).to_records())
    clone = copy.copy(zoo)
    clone.catalog = catalog
    return clone


class TestConcurrentFitCorrectness:
    def test_concurrent_cold_fits_match_serial(self, tiny_image_zoo,
                                               lr_config):
        """Two threads fitting distinct targets against a cold catalog
        produce the same pipelines a serial pass does."""
        targets = tiny_image_zoo.target_names()[:2]
        model_ids = tiny_image_zoo.model_ids()

        serial_zoo = _zoo_with_cold_catalog(tiny_image_zoo)
        serial = {t: TransferGraphStrategy(lr_config).fit(serial_zoo, t)
                  for t in targets}

        concurrent_zoo = _zoo_with_cold_catalog(tiny_image_zoo)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {t: pool.submit(TransferGraphStrategy(lr_config).fit,
                                      concurrent_zoo, t) for t in targets}
            concurrent = {t: f.result() for t, f in futures.items()}

        for target in targets:
            assert concurrent[target].predict(model_ids) == pytest.approx(
                serial[target].predict(model_ids), rel=1e-12)

        # Both catalogs converged to the same derived-score tables.
        assert len(concurrent_zoo.catalog.transferability) == \
            len(serial_zoo.catalog.transferability)
        assert len(concurrent_zoo.catalog.similarity) == \
            len(serial_zoo.catalog.similarity)

    def test_router_default_enables_parallel_fits(self):
        assert AsyncSelectionRouter(stub_service()).fit_workers > 1

    def test_distinct_targets_fit_in_parallel(self):
        """Wall-clock proof: two 0.2 s fits overlap on two workers."""
        service = stub_service(fit_seconds=0.2)
        router = AsyncSelectionRouter(service, fit_workers=2)

        async def storm():
            started = time.perf_counter()
            await asyncio.gather(router.rank("t0"), router.rank("t1"))
            return time.perf_counter() - started

        elapsed = asyncio.run(storm())
        stats = router.stats()
        router.close()
        assert stats["fits"] == 2
        assert elapsed < 0.35  # serial would be >= 0.4

    def test_single_worker_still_serialises(self):
        service = stub_service(fit_seconds=0.1)
        router = AsyncSelectionRouter(service, fit_workers=1)

        async def storm():
            started = time.perf_counter()
            await asyncio.gather(router.rank("t0"), router.rank("t1"))
            return time.perf_counter() - started

        elapsed = asyncio.run(storm())
        router.close()
        assert elapsed >= 0.2


class TestAdaptiveBackpressure:
    def test_hint_floors_until_window_has_samples(self):
        router = AsyncSelectionRouter(stub_service(), retry_after_s=0.4)
        assert router._retry_after_hint() == 0.4
        router.close()

    def test_hint_tracks_p95_times_drain_rounds(self):
        router = AsyncSelectionRouter(stub_service(), retry_after_s=0.1,
                                      fit_workers=2)
        for _ in range(20):
            router._stats.record_latency("fit_ms", 1000.0)
        router._pending_fits = 4
        # p95 = 1 s, 4 pending over 2 workers -> 2 drain rounds -> 2 s
        assert router._retry_after_hint() == pytest.approx(2.0)
        router._pending_fits = 0
        router.close()

    def test_p95_not_mean_drives_the_hint(self):
        """One slow outlier must dominate the hint (a mean would hide
        it and shed clients would come back too early)."""
        router = AsyncSelectionRouter(stub_service(), retry_after_s=0.01,
                                      fit_workers=1)
        for _ in range(18):
            router._stats.record_latency("fit_ms", 10.0)
        for _ in range(2):
            router._stats.record_latency("fit_ms", 2000.0)
        router._pending_fits = 1
        hint = router._retry_after_hint()
        mean_s = (18 * 10.0 + 2 * 2000.0) / 20 / 1e3
        # p95 = 2 s under nearest rank or interpolation; mean = 0.209 s
        assert hint > mean_s
        assert 2.0 <= hint <= 2.0 * 2 ** (1 / 8)  # within one bucket
        router._pending_fits = 0
        router.close()

    def test_shed_requests_carry_the_adaptive_hint(self):
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=1,
                                      retry_after_s=0.01, fit_workers=1)

        async def scenario():
            await router.rank("t0")  # seeds the fit_ms window (~50 ms)
            blocker = asyncio.ensure_future(router.rank("t1"))
            await asyncio.sleep(0.01)  # t1 occupies the only slot
            with pytest.raises(QueueFullError) as exc_info:
                await router.rank("t2")
            await blocker
            return exc_info.value

        exc = asyncio.run(scenario())
        router.close()
        # hint ~= observed p95 fit latency (>= the 50 ms sleep), not the
        # 10 ms floor
        assert exc.retry_after_s >= 0.04
