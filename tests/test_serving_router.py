"""AsyncSelectionRouter: coalescing, backpressure, result correctness.

The deterministic concurrency tests (admission, error propagation) run
against a stub service whose "fit" is a controllable sleep, so queue
states are forced rather than raced; the integration tests run real fits
on the shared tiny zoo.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    AsyncSelectionRouter,
    QueueFullError,
    RouterStats,
    SelectionService,
    ServiceStats,
)

from serving_stubs import stub_service


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------- #
# coalescing
# ---------------------------------------------------------------------- #
class TestCoalescing:
    def test_fifty_concurrent_cold_ranks_fit_once(self, tiny_image_zoo,
                                                  lr_config):
        """The headline invariant: N concurrent misses, exactly one fit."""
        service = SelectionService(tiny_image_zoo, lr_config)
        router = AsyncSelectionRouter(service)
        target = tiny_image_zoo.target_names()[0]

        async def storm():
            return await asyncio.gather(
                *(router.rank(target, top_k=3) for _ in range(50)))

        rankings = run(storm())
        stats = router.stats()
        router.close()
        assert stats["fits"] == 1
        assert stats["cold_fits"] == 1
        assert stats["coalesced"] == 49
        assert stats["queries"] == 50
        assert all(r == rankings[0] for r in rankings)

    def test_mixed_target_storm_fits_once_per_target(self, tiny_image_zoo,
                                                     lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        router = AsyncSelectionRouter(service)
        targets = tiny_image_zoo.target_names()

        async def storm():
            requests = [router.rank(t) for t in targets for _ in range(10)]
            return await asyncio.gather(*requests)

        run(storm())
        stats = router.stats()
        router.close()
        assert stats["fits"] == len(targets)
        assert stats["coalesced"] == 9 * len(targets)
        assert stats["queries"] == 10 * len(targets)

    def test_coalesced_waiters_hold_no_queue_slot(self):
        """Same-key waiters must never trip the cold-fit bound."""
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=1)

        async def storm():
            return await asyncio.gather(
                *(router.rank("t0") for _ in range(10)))

        run(storm())
        stats = router.stats()
        router.close()
        assert stats["fits"] == 1
        assert stats["rejections"] == 0
        assert stats["coalesced"] == 9
        assert stats["peak_pending_fits"] == 1

    def test_fit_failure_propagates_then_recovers(self):
        """All coalesced waiters see the originator's error; the key is
        not poisoned — the next request refits."""
        service = stub_service(fit_seconds=0.02, fail_first=1)
        router = AsyncSelectionRouter(service)

        async def storm():
            return await asyncio.gather(
                *(router.rank("t0") for _ in range(5)),
                return_exceptions=True)

        results = run(storm())
        assert all(isinstance(r, RuntimeError) for r in results)

        recovered = run(router.rank("t0"))
        router.close()
        assert recovered[0][0] == "m0"

    def test_unknown_target_raises(self, tiny_image_zoo, lr_config):
        service = SelectionService(tiny_image_zoo, lr_config)
        router = AsyncSelectionRouter(service)
        with pytest.raises(KeyError):
            run(router.rank("not_a_dataset"))
        router.close()


# ---------------------------------------------------------------------- #
# backpressure
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_reject_overflow_sheds_with_retry_hint(self):
        service = stub_service(fit_seconds=0.1)
        router = AsyncSelectionRouter(service, max_pending_fits=1,
                                      retry_after_s=0.25)

        async def storm():
            return await asyncio.gather(
                router.rank("t0"), router.rank("t1"), router.rank("t2"),
                return_exceptions=True)

        results = run(storm())
        stats = router.stats()
        router.close()
        shed = [r for r in results if isinstance(r, QueueFullError)]
        served = [r for r in results if isinstance(r, list)]
        assert len(shed) == 2 and len(served) == 1
        assert all(exc.retry_after_s >= 0.25 for exc in shed)
        assert stats["rejections"] == 2
        assert stats["fits"] == 1
        assert stats["peak_pending_fits"] == 1

    def test_wait_overflow_coalesces_same_key(self):
        """Same-key warmups arriving while the originator waits for a
        queue slot must coalesce, never start a second fit (regression:
        the future used to be registered only after admission, so the
        capacity wait opened a double-fit + KeyError window)."""
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=1)

        # "t1" twice and "t2" twice, while "t0" occupies the only slot.
        timings = run(router.warmup(["t0", "t1", "t1", "t2", "t2"]))
        stats = router.stats()
        router.close()
        assert sorted(timings) == ["t0", "t1", "t2"]
        assert stats["fits"] == 3          # one per distinct target
        assert stats["coalesced"] == 2
        assert stats["rejections"] == 0
        assert stats["peak_pending_fits"] == 1

    def test_rejection_leaves_no_poisoned_inflight_entry(self):
        """A shed request must clean up its pre-registered future so the
        key refits normally once capacity frees up."""
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=1)

        async def scenario():
            blocker = asyncio.ensure_future(router.rank("t0"))
            await asyncio.sleep(0.01)       # t0 now holds the only slot
            with pytest.raises(QueueFullError):
                await router.rank("t1")     # shed at admission
            await blocker                   # slot frees
            return await router.rank("t1")  # must fit cleanly now

        ranking = run(scenario())
        stats = router.stats()
        router.close()
        assert ranking[0][0] == "m0"
        assert stats["fits"] == 2
        assert stats["rejections"] == 1

    def test_wait_overflow_serves_everyone(self):
        """Warmup beyond the bound waits for slots: everyone is served
        and the bound still holds."""
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=1)

        timings = run(router.warmup(["t0", "t1", "t2", "t3"]))
        stats = router.stats()
        router.close()
        assert len(timings) == 4
        assert stats["fits"] == 4
        assert stats["rejections"] == 0
        assert stats["peak_pending_fits"] == 1  # the bound held

    def test_never_sheds_below_the_cliff(self):
        """Admission is a hard cliff: below ``max_pending_fits`` pending
        fits every cold request is admitted."""
        service = stub_service(fit_seconds=0.05)
        router = AsyncSelectionRouter(service, max_pending_fits=4)

        async def storm():
            return await asyncio.gather(
                *(router.rank(f"t{i}") for i in range(3)),
                return_exceptions=True)

        results = run(storm())
        stats = router.stats()
        router.close()
        assert all(isinstance(r, list) for r in results)
        assert stats["rejections"] == 0

    def test_warmup_never_sheds(self):
        service = stub_service(fit_seconds=0.02)
        router = AsyncSelectionRouter(service, max_pending_fits=1)
        timings = run(router.warmup())
        stats = router.stats()
        router.close()
        assert sorted(timings) == ["t0", "t1", "t2", "t3"]
        assert stats["rejections"] == 0
        assert stats["fits"] == 4
        assert stats["queries"] == 0  # warmup is not traffic

    def test_rejects_bad_parameters(self):
        service = stub_service()
        with pytest.raises(ValueError):
            AsyncSelectionRouter(service, max_pending_fits=0)
        with pytest.raises(ValueError):
            AsyncSelectionRouter(service, fit_workers=0)


# ---------------------------------------------------------------------- #
# result correctness vs the serial facade
# ---------------------------------------------------------------------- #
class TestCorrectness:
    def test_rank_matches_serial_service(self, tiny_image_zoo, lr_config):
        target = tiny_image_zoo.target_names()[0]
        serial = SelectionService(tiny_image_zoo, lr_config)
        expected = serial.rank(target, top_k=4)

        router = AsyncSelectionRouter(
            SelectionService(tiny_image_zoo, lr_config))
        got = run(router.rank(target, top_k=4))
        router.close()
        assert [m for m, _ in got] == [m for m, _ in expected]
        assert [s for _, s in got] == pytest.approx(
            [s for _, s in expected], rel=1e-12)

    def test_score_batch_matches_serial_service(self, tiny_image_zoo,
                                                lr_config):
        t1, t2 = tiny_image_zoo.target_names()[:2]
        models = tiny_image_zoo.model_ids()
        pairs = [(models[0], t1), (models[1], t2), (models[2], t1)]
        expected = SelectionService(tiny_image_zoo, lr_config).score_batch(
            pairs)

        router = AsyncSelectionRouter(
            SelectionService(tiny_image_zoo, lr_config))
        got = run(router.score_batch(pairs))
        router.close()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_score_batch_empty(self):
        router = AsyncSelectionRouter(stub_service())
        assert run(router.score_batch([])).shape == (0,)
        router.close()

    def test_stats_merge_service_and_router_fields(self):
        router = AsyncSelectionRouter(stub_service())
        run(router.rank("t0"))
        stats = router.stats()
        router.close()
        for key in ("queries", "hit_rate", "p50_ms",          # service
                    "coalesced", "rejections", "peak_pending_fits",
                    "fit_p95_ms", "predict_p95_ms"):          # router
            assert key in stats

    def test_router_reusable_across_event_loops(self):
        """Sequential asyncio.run calls on one router, as a script makes."""
        router = AsyncSelectionRouter(stub_service())
        first = run(router.rank("t0"))
        second = run(router.rank("t0"))
        stats = router.stats()
        router.close()
        assert first == second
        assert stats["fits"] == 1
        assert stats["cache_hits"] == 1

    def test_closed_router_refuses_requests(self):
        router = AsyncSelectionRouter(stub_service())
        router.close()
        with pytest.raises(RuntimeError):
            run(router.rank("t0"))


# ---------------------------------------------------------------------- #
# stats arithmetic
# ---------------------------------------------------------------------- #
class TestRouterStats:
    def test_since_survives_window_wrap(self):
        """A router's paired snapshot diffs its service half through
        ``ServiceStats.since`` (the served evaluation's warm-latency
        window): 10,000 samples before the snapshot (a full former
        rolling window) must not leak into the delta's counts or
        percentiles."""
        stats = ServiceStats()
        for i in range(10_000):
            stats.latencies_ms.observe(float(i))
        earlier = stats.copy()
        for i in range(500):
            stats.latencies_ms.observe(1000.0 + i)
        delta = stats.since(earlier)
        assert delta.latencies_ms.count == 500
        summary = delta.latency_summary()
        # nearest rank over 1000..1499: p50 = 1249, p95 = 1474
        assert 1249.0 <= summary["p50_ms"] <= 1249.0 * 2 ** (1 / 8)
        assert 1474.0 <= summary["p95_ms"] <= 1474.0 * 2 ** (1 / 8)

    def test_summary_handles_empty_latencies(self):
        summary = RouterStats().summary()
        assert summary["fit_p95_ms"] == 0.0
        assert summary["router_requests"] == 0

    def test_warm_inline_answers_read_below_ten_microseconds(self):
        """Warm answers take a few microseconds; the percentile layout's
        1 us floor must resolve them, not round them up to a coarse
        first bucket."""
        router = AsyncSelectionRouter(stub_service())

        async def warm_ranks():
            for _ in range(200):
                await router.rank("t0")

        run(warm_ranks())
        # one slow answer, as real traffic has: the cap at the max must
        # not be what keeps the p50 low
        router._stats.record_latency("predict_ms", 1.0)
        stats = router.stats()
        router.close()
        assert stats["predict_p50_ms"] < 0.01


class TestCancellation:
    def test_cancelled_waiter_does_not_cancel_the_group(self):
        """One impatient client must not take down the originator or the
        other coalesced waiters (regression: the shared future was
        awaited unshielded, so Task.cancel() cancelled it and the
        originator crashed on set_result with InvalidStateError)."""
        service = stub_service(fit_seconds=0.1)
        router = AsyncSelectionRouter(service)

        async def scenario():
            originator = asyncio.ensure_future(router.rank("t0"))
            await asyncio.sleep(0.01)  # fit now in flight
            impatient = asyncio.ensure_future(router.rank("t0"))
            patient = asyncio.ensure_future(router.rank("t0"))
            await asyncio.sleep(0.01)
            impatient.cancel()
            results = await asyncio.gather(originator, impatient, patient,
                                           return_exceptions=True)
            return results

        originator, impatient, patient = run(scenario())
        stats = router.stats()
        router.close()
        assert isinstance(originator, list)      # unharmed
        assert isinstance(impatient, asyncio.CancelledError)
        assert isinstance(patient, list)         # unharmed
        assert originator == patient
        assert stats["fits"] == 1


# ---------------------------------------------------------------------- #
# regressions: refit after eviction, failed coalesced waits
# ---------------------------------------------------------------------- #
class TestEviction:
    def test_evicted_target_refits_and_serves(self):
        service = stub_service(targets=("t0", "t1", "t2"), cache_size=1)
        router = AsyncSelectionRouter(service)
        try:
            assert run(router.rank("t0"))[0][0] == "m0"
            assert run(router.rank("t1"))[0][0] == "m0"  # evicts t0
            assert run(router.rank("t0"))[0][0] == "m0"  # refits fine
            assert service.cached_targets() == ["t0"]
            assert router.stats()["fits"] == 3
        finally:
            router.close()


class TestFailedWaits:
    def test_generic_fit_failure_counts_failed_waits(self):
        """Regression: a waiter whose originator's fit *failed* (not
        shed) kept outcome 'coalesced' and no counter recorded the
        group-wide failure."""
        service = stub_service(fit_seconds=0.05, fail_first=1)
        router = AsyncSelectionRouter(service)

        async def storm():
            return await asyncio.gather(
                *(router.rank("t0") for _ in range(4)),
                return_exceptions=True)

        results = run(storm())
        stats = router.stats()
        router.close()
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats["failed_waits"] == 3     # everyone but the originator
        assert stats["coalesced"] == 3        # they did coalesce first
        assert stats["rejections"] == 0       # a failure is not a shed

    def test_shed_originator_still_counts_rejections_not_failed_waits(self):
        service = stub_service(fit_seconds=0.2)
        router = AsyncSelectionRouter(service, max_pending_fits=1)

        async def storm():
            originator = asyncio.ensure_future(router.rank("t0"))
            await asyncio.sleep(0.05)
            waiter = asyncio.ensure_future(router.rank("t0"))
            await asyncio.sleep(0.01)
            shed = await asyncio.gather(router.rank("t1"),
                                        return_exceptions=True)
            assert isinstance(shed[0], QueueFullError)
            await asyncio.gather(originator, waiter)

        run(storm())
        stats = router.stats()
        router.close()
        assert stats["failed_waits"] == 0
        assert stats["rejections"] == 1

    def test_failed_waits_in_summary_and_since(self):
        later = RouterStats(failed_waits=2, coalesced=5)
        assert later.summary()["failed_waits"] == 2
        merged = RouterStats().merge(later)
        assert merged.failed_waits == 2
