"""Process fit plane: thread/process parity, crash semantics, warmup.

The parity tests are the tentpole contract: a fit executed in a worker
process — shipped back as a packed artifact, unpacked in the parent —
must serve byte-identical rankings and write byte-identical registry
artifacts to the in-process thread path, for every strategy family.

The failure tests use stub strategies (picklable, so they cross the
spawn boundary) whose fits kill their own worker or oversleep a
timeout, proving plane failures surface as typed errors that shed the
coalesced group while the router itself stays serviceable.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    ArtifactRegistry,
    AsyncSelectionRouter,
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    ProcessFitExecutor,
    RankRequest,
    SelectionService,
)
from repro.fleet import zoo_ref_for

from serving_stubs import STUB_SCORES, StubStrategy, StubZoo, stub_service


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def cached_zoo(tiny_image_zoo, tmp_path_factory):
    """The tiny zoo, saved where spawn workers can re-hydrate it.

    Worker processes resolve the zoo cache through ``REPRO_CACHE_DIR``
    (inherited via the environment), so the fixture saves the shared
    session zoo into a temp cache and points the variable there for the
    module.  Without this every worker would *rebuild* the zoo —
    correct, but minutes instead of milliseconds.
    """
    from repro.zoo.cache import save_zoo

    cache_dir = tmp_path_factory.mktemp("fit_plane_zoo_cache")
    save_zoo(tiny_image_zoo, cache_dir)
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield tiny_image_zoo
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


# ---------------------------------------------------------------------- #
# crash/timeout doubles (module-level: spawn pickles them by reference)
# ---------------------------------------------------------------------- #
class KillWorkerStrategy(StubStrategy):
    """SIGKILLs its own worker for selected targets; fits normally else."""

    def __init__(self, crash_targets=("t0",)):
        super().__init__("kill", STUB_SCORES["agree"])
        self.crash_targets = set(crash_targets)

    def fit(self, zoo, target):
        if target in self.crash_targets:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().fit(zoo, target)


class SlowStrategy(StubStrategy):
    """Fits sleep long enough to overrun any sub-second fit timeout."""

    def __init__(self, sleep_s=5.0):
        super().__init__("slow", STUB_SCORES["agree"])
        self.sleep_s = sleep_s

    def fit(self, zoo, target):
        time.sleep(self.sleep_s)
        return super().fit(zoo, target)


class FailingStrategy(StubStrategy):
    """An ordinary fit exception (not a plane failure)."""

    def __init__(self):
        super().__init__("failing", STUB_SCORES["agree"])

    def fit(self, zoo, target):
        raise ValueError(f"no fit for {target!r}")


def process_router(service, **kwargs):
    kwargs.setdefault("fit_workers", 2)
    return AsyncSelectionRouter(service, fit_executor="process", **kwargs)


# ---------------------------------------------------------------------- #
# parity: one test per strategy family
# ---------------------------------------------------------------------- #
#: a graph-features TG variant, a dataset-similarity LR baseline, and a
#: transferability score table — the three artifact shapes that exist
PARITY_SPECS = [
    pytest.param(TransferGraphConfig(predictor="lr", embedding_dim=16,
                                     features=FeatureSet.everything()),
                 id="tg"),
    pytest.param("lr:all", id="lr-baseline"),
    pytest.param("logme", id="score-table"),
]


def _serve_all(zoo, strategy, executor, registry_root):
    """Rank every target through a fresh router; response JSON per target."""
    service = SelectionService(zoo, strategy,
                               registry=ArtifactRegistry(registry_root))
    router = AsyncSelectionRouter(service, fit_executor=executor)
    try:
        responses = {}
        for target in zoo.target_names():
            response = run(router.handle(RankRequest(target=target)))
            responses[target] = response.to_json()
        stats = router.stats()
    finally:
        router.close()
    assert stats["fits"] == len(zoo.target_names())
    return responses


class TestParity:
    @pytest.mark.parametrize("strategy", PARITY_SPECS)
    def test_rankings_and_artifacts_byte_identical(self, cached_zoo,
                                                   tmp_path, strategy):
        thread = _serve_all(cached_zoo, strategy, "thread",
                            tmp_path / "thread_reg")
        process = _serve_all(cached_zoo, strategy, "process",
                             tmp_path / "process_reg")
        # Wire parity: the serialized rank responses are byte-identical.
        assert thread == process

        # Registry parity: every artifact file is byte-identical.
        thread_reg = ArtifactRegistry(tmp_path / "thread_reg")
        process_reg = ArtifactRegistry(tmp_path / "process_reg")
        for target in cached_zoo.target_names():
            assert thread_reg.path_for(target, strategy).read_bytes() == \
                process_reg.path_for(target, strategy).read_bytes()

    def test_registry_artifact_revives_into_thread_service(self, cached_zoo,
                                                           tmp_path):
        """A process-fitted artifact serves a later thread-mode process."""
        target = cached_zoo.target_names()[0]
        registry = ArtifactRegistry(tmp_path / "reg")
        service = SelectionService(cached_zoo, "logme", registry=registry)
        router = process_router(service)
        try:
            fresh = run(router.rank(target))
        finally:
            router.close()

        revived_service = SelectionService(cached_zoo, "logme",
                                           registry=registry)
        assert revived_service.rank(target) == fresh
        assert revived_service.stats()["registry_hits"] == 1
        assert revived_service.stats()["fits"] == 0


# ---------------------------------------------------------------------- #
# stats parity between executors
# ---------------------------------------------------------------------- #
class TestStatsParity:
    def _drive(self, executor):
        # fit_seconds: an instant fit can win the race against the
        # waiters' first step and serve them from cache instead of
        # coalescing them; a deterministic counter comparison needs the
        # fit to outlive the gather's scheduling.
        service = SelectionService(StubZoo(),
                                   StubStrategy("agree",
                                                STUB_SCORES["agree"],
                                                fit_seconds=0.3))
        router = AsyncSelectionRouter(service, fit_executor=executor)

        async def traffic():
            await asyncio.gather(*(router.rank("t0") for _ in range(5)))
            await router.rank("t1")
            before, router_before = router.stats_snapshot()
            await router.rank("t2")
            return (router.service.stats_snapshot().since(before),
                    router.router_stats().since(router_before))

        try:
            return run(traffic()), router.stats()
        finally:
            router.close()

    def test_counters_identical_across_executors(self):
        (t_delta, t_router_delta), t_stats = self._drive("thread")
        (p_delta, p_router_delta), p_stats = self._drive("process")
        for field in ("queries", "cache_hits", "cache_misses", "fits"):
            assert getattr(t_delta, field) == getattr(p_delta, field)
        for field in ("requests", "coalesced", "cold_fits", "rejections"):
            assert getattr(t_router_delta, field) == \
                getattr(p_router_delta, field)
        for key in ("fits", "cold_fits", "coalesced", "queries",
                    "failed_waits"):
            assert t_stats[key] == p_stats[key], key
        assert p_stats["coalesced"] == 4
        assert p_stats["fits"] == 3


# ---------------------------------------------------------------------- #
# plane failures
# ---------------------------------------------------------------------- #
class TestWorkerCrash:
    def test_crash_sheds_group_and_router_recovers(self):
        service = SelectionService(StubZoo(), KillWorkerStrategy(("t0",)))
        router = process_router(service)

        async def crash_then_recover():
            first = router.rank("t0")
            second = router.rank("t0")
            results = await asyncio.gather(first, second,
                                           return_exceptions=True)
            # Whole coalesced group fails typed; queue slot released.
            assert all(isinstance(r, FitWorkerCrashError) for r in results)
            assert router.pending_fits == 0
            # The pool was discarded and rebuilds: the router stays
            # serviceable for targets whose fits don't crash.
            ranking = await router.rank("t1")
            assert ranking[0][0] == "m0"

        try:
            run(crash_then_recover())
            stats = router.stats()
        finally:
            router.close()
        assert stats["fits"] == 1          # only the surviving target
        assert stats["failed_waits"] == 1  # the coalesced waiter
        assert stats["cold_fits"] == 2     # t0's originator + t1

    def test_timeout_is_typed_and_bounded(self):
        service = SelectionService(StubZoo(), SlowStrategy(sleep_s=5.0))
        router = process_router(service, fit_timeout_s=0.5)
        try:
            router.prestart_fit_plane()  # exclude spawn from the bound
            started = time.perf_counter()
            with pytest.raises(FitTimeoutError):
                run(router.rank("t0"))
            assert time.perf_counter() - started < 4.0
            assert router.pending_fits == 0
        finally:
            router.close()

    def test_ordinary_fit_exception_keeps_its_type(self):
        service = SelectionService(StubZoo(), FailingStrategy())
        router = process_router(service)
        try:
            with pytest.raises(ValueError, match="no fit for 't0'"):
                run(router.rank("t0"))
            assert router.pending_fits == 0
        finally:
            router.close()

    def test_unpicklable_strategy_is_a_typed_submit_error(self):
        # install_stub_fit patches fit with a closure — exactly the
        # shape that cannot cross the process boundary.
        service = stub_service()
        router = process_router(service)
        try:
            with pytest.raises(FitPlaneError, match="not.*picklable"):
                run(router.rank("t0"))
        finally:
            router.close()


# ---------------------------------------------------------------------- #
# pool warmup / lifecycle
# ---------------------------------------------------------------------- #
class TestPrestart:
    def test_thread_mode_prestart_is_a_noop(self):
        router = AsyncSelectionRouter(stub_service(), fit_executor="thread")
        try:
            assert router.prestart_fit_plane() == 0
        finally:
            router.close()

    def test_process_prestart_spawns_all_workers(self):
        service = SelectionService(StubZoo(),
                                   StubStrategy("agree",
                                                STUB_SCORES["agree"]))
        router = process_router(service, fit_workers=2)
        try:
            assert router.prestart_fit_plane() == 2
            assert run(router.rank("t0"))[0][0] == "m0"
        finally:
            router.close()

    def test_executor_rebuilds_after_close_refuses(self):
        executor = ProcessFitExecutor(workers=1)
        executor.close()
        with pytest.raises(FitPlaneError, match="closed"):
            executor.submit_fit(StubStrategy("agree", STUB_SCORES["agree"]),
                                StubZoo(), "t0")

    def test_env_default_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "process")
        router = AsyncSelectionRouter(stub_service())
        try:
            assert router.fit_executor == "process"
        finally:
            router.close()
        monkeypatch.setenv("REPRO_FIT_EXECUTOR", "bogus")
        with pytest.raises(ValueError, match="fit_executor"):
            AsyncSelectionRouter(stub_service())


class TestEnvDefaultIntegration:
    def test_router_serves_under_ambient_executor(self, cached_zoo,
                                                  tmp_path):
        """A router built with no explicit executor follows
        ``REPRO_FIT_EXECUTOR`` — CI runs this file once with the
        variable set to ``process``, driving a real-zoo fit through
        whichever plane the environment selects."""
        service = SelectionService(cached_zoo, "logme",
                                   registry=ArtifactRegistry(tmp_path))
        router = AsyncSelectionRouter(service)
        try:
            assert router.fit_executor == os.environ.get(
                "REPRO_FIT_EXECUTOR", "thread")
            router.prestart_fit_plane()
            target = cached_zoo.target_names()[0]
            ranking = run(router.rank(target))
            stats = router.stats()
        finally:
            router.close()
        assert stats["fits"] == 1
        serial = SelectionService(cached_zoo, "logme")
        assert ranking == serial.rank(target)


class TestZooRefs:
    def test_config_zoos_ship_by_reference(self, tiny_image_zoo):
        ref = zoo_ref_for(tiny_image_zoo)
        assert ref.key  # the zoo fingerprint keys the worker-side cache
        assert not hasattr(ref, "payload")

    def test_stub_zoos_ship_whole(self):
        ref = zoo_ref_for(StubZoo())
        assert ref.key.startswith("pickled-")

    def test_unpicklable_zoo_is_typed(self):
        class Unpicklable(StubZoo):
            def __init__(self):
                super().__init__()
                self.lock = __import__("threading").Lock()

        with pytest.raises(FitPlaneError, match="cannot be pickled"):
            zoo_ref_for(Unpicklable())
