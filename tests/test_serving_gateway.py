"""SelectionGateway: namespace routing, shard and strategy isolation,
fleet stats."""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.fleet import FleetCoordinator
from repro.serving import (
    AsyncSelectionRouter,
    QueueFullError,
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    SelectionGateway,
    UnknownModelError,
    UnknownNamespaceError,
    UnknownTargetError,
)

from serving_stubs import (
    STUB_SCORES,
    StubStrategy,
    StubZoo,
    stub_gateway,
    stub_service,
)


@pytest.fixture(scope="module")
def lr_config():
    return TransferGraphConfig(predictor="lr", embedding_dim=16,
                               features=FeatureSet.everything())


def run(coro):
    return asyncio.run(coro)


class TestRouting:
    def test_requests_route_to_their_namespace(self):
        gateway = stub_gateway(names=("alpha", "beta"))
        try:
            a = run(gateway.rank(RankRequest(target="t0",
                                             namespace="alpha")))
            b = run(gateway.rank(RankRequest(target="t0", namespace="beta")))
            assert a.namespace == "alpha" and b.namespace == "beta"
            assert a.ranking == b.ranking  # identical stub zoos
            stats = gateway.stats()
            assert stats.namespaces["alpha"]["queries"] == 1
            assert stats.namespaces["beta"]["queries"] == 1
            assert stats.fleet["queries"] == 2
            assert stats.fleet["namespaces"] == 2.0
        finally:
            gateway.close()

    def test_handle_dispatches_by_request_type(self):
        gateway = stub_gateway(names=("alpha",))
        try:
            rank = run(gateway.handle(RankRequest(target="t0",
                                                  namespace="alpha")))
            batch = run(gateway.handle(ScoreBatchRequest(
                pairs=(("m0", "t0"), ("m1", "t1")), namespace="alpha")))
            assert isinstance(rank, RankResponse)
            assert len(batch.scores) == 2
        finally:
            gateway.close()

    def test_unknown_namespace_is_typed(self):
        gateway = stub_gateway(names=("alpha",))
        try:
            with pytest.raises(UnknownNamespaceError) as exc_info:
                run(gateway.rank(RankRequest(target="t0", namespace="nope")))
            assert exc_info.value.namespace == "nope"
            assert "alpha" in str(exc_info.value)
        finally:
            gateway.close()

    def test_unknown_target_and_model_are_typed(self):
        gateway = stub_gateway(names=("alpha",))
        try:
            with pytest.raises(UnknownTargetError):
                run(gateway.rank(RankRequest(target="zzz",
                                             namespace="alpha")))
            with pytest.raises(UnknownModelError):
                run(gateway.score_batch(ScoreBatchRequest(
                    pairs=(("not_a_model", "t0"),), namespace="alpha")))
        finally:
            gateway.close()

    def test_rejects_duplicate_and_bad_names(self):
        gateway = stub_gateway(names=("alpha",))
        try:
            from serving_stubs import StubZoo
            # '..'/'.' would escape the registry shard root as a path
            # segment; slugs must start alphanumeric.
            for bad in ("", "a/b", " padded ", "..", ".", ".hidden",
                        "a\\b"):
                with pytest.raises(ValueError):
                    gateway.add_namespace(bad, StubZoo())
            with pytest.raises(ValueError):
                gateway.add_namespace("alpha", StubZoo())
        finally:
            gateway.close()

    def test_source_datasets_are_not_servable_targets(self, tiny_image_zoo,
                                                      lr_config):
        """The gateway enforces the CLI's contract: only *target*
        datasets rank; a source dataset must not burn a cold fit."""
        gateway = SelectionGateway()
        gateway.add_namespace("image", tiny_image_zoo, lr_config)
        source = tiny_image_zoo.source_names()[0]
        try:
            with pytest.raises(UnknownTargetError):
                run(gateway.rank(RankRequest(target=source,
                                             namespace="image")))
            assert gateway.stats().fleet["fits"] == 0
        finally:
            gateway.close()


class TestRegistrySharding:
    def test_namespaces_get_disjoint_shards(self, tiny_image_zoo, lr_config,
                                            tmp_path):
        """Two namespaces over one zoo+config never share artifacts:
        shards are keyed by (namespace, config fingerprint)."""
        gateway = SelectionGateway(registry_root=tmp_path)
        gateway.add_namespace("one", tiny_image_zoo, lr_config)
        gateway.add_namespace("two", tiny_image_zoo, lr_config)
        target = tiny_image_zoo.target_names()[0]
        try:
            run(gateway.rank(RankRequest(target=target, namespace="one")))
            one, two = gateway.service("one"), gateway.service("two")
            assert one.registry.root == tmp_path / "one"
            assert two.registry.root == tmp_path / "two"
            assert one.registry.targets(lr_config) == [target]
            assert two.registry.targets(lr_config) == []

            # namespace "two" must cold-fit despite "one"'s artifact
            run(gateway.rank(RankRequest(target=target, namespace="two")))
            stats = gateway.stats()
            assert stats.namespaces["two"]["fits"] == 1
            assert stats.namespaces["two"]["registry_hits"] == 0
        finally:
            gateway.close()


class TestWarmPathParity:
    def test_gateway_matches_selection_service_exactly(self, tiny_image_zoo,
                                                       tiny_text_zoo,
                                                       lr_config):
        """Acceptance: two live namespaces (distinct zoos), warm-path
        rankings identical to the namespace's SelectionService.rank."""
        gateway = SelectionGateway()
        gateway.add_namespace("image", tiny_image_zoo, lr_config)
        gateway.add_namespace("text", tiny_text_zoo, lr_config)
        try:
            for namespace, zoo in (("image", tiny_image_zoo),
                                   ("text", tiny_text_zoo)):
                target = zoo.target_names()[0]
                request = RankRequest(target=target, namespace=namespace)
                cold = run(gateway.rank(request))      # fits the pipeline
                warm = run(gateway.rank(request))      # served from memory
                expected = gateway.service(namespace).rank(target)
                assert warm.ranking == tuple(expected)  # bit-exact floats
                assert cold.ranking == warm.ranking
        finally:
            gateway.close()


class TestLifecycle:
    def test_close_closes_every_router(self):
        gateway = stub_gateway(names=("alpha", "beta"))
        gateway.close()
        with pytest.raises(RuntimeError):
            run(gateway.rank(RankRequest(target="t0", namespace="alpha")))

    def test_async_context_manager(self):
        async def scenario():
            async with stub_gateway(names=("alpha",)) as gateway:
                return await gateway.rank(RankRequest(target="t0",
                                                      namespace="alpha"))

        response = run(scenario())
        assert response.ranking[0][0] == "m0"


class TestSharedFitPools:
    """Without a fleet, routers of one strategy share one gateway fit pool."""

    def test_fit_threads_bounded_across_namespaces(self):
        fit_threads = set()
        lock = threading.Lock()

        def recording(fit):
            def fit_on_thread(zoo, target):
                with lock:
                    fit_threads.add(threading.current_thread())
                return fit(zoo, target)
            return fit_on_thread

        names = [f"ns{i}" for i in range(12)]
        extra = StubStrategy("agree", STUB_SCORES["agree"], fit_seconds=0.01)
        gateway = stub_gateway(names=names, strategies=(extra,),
                               fit_seconds=0.01, fit_workers=2)
        wrapped = set()
        for name in names:
            for spec in gateway.strategies(name):
                strategy = gateway.service(name, spec).strategy
                if id(strategy) not in wrapped:
                    wrapped.add(id(strategy))
                    strategy.fit = recording(strategy.fit)

        async def one_cold_fit_each():
            return await asyncio.gather(*(
                gateway.rank(RankRequest(target="t0", namespace=name,
                                         strategy=spec))
                for name in names for spec in gateway.strategies(name)))

        try:
            responses = run(one_cold_fit_each())
            assert len(responses) == 24
            assert gateway.stats().fleet["fits"] == 24
        finally:
            gateway.close()
        # 2 strategies x fit_workers threads, not one pool per router
        assert 1 < len(fit_threads) <= 2 * 2
        assert not any(thread.is_alive() for thread in fit_threads)

    def test_standalone_router_shuts_its_own_pool(self):
        fit_threads = []
        service = stub_service()
        fit = service.strategy.fit

        def fit_on_thread(zoo, target):
            fit_threads.append(threading.current_thread())
            return fit(zoo, target)

        service.strategy.fit = fit_on_thread
        router = AsyncSelectionRouter(service)
        run(router.rank("t0"))
        router.close()
        assert fit_threads and not fit_threads[0].is_alive()

    def test_router_leaves_an_injected_pool_running(self):
        pool = ThreadPoolExecutor(max_workers=1)
        router = AsyncSelectionRouter(stub_service(), fit_pool=pool)
        try:
            assert run(router.rank("t0"))[0][0] == "m0"
            router.close()
            assert pool.submit(lambda: 7).result() == 7
        finally:
            pool.shutdown(wait=True)

    def test_only_thread_mode_routers_share(self):
        gateway = SelectionGateway()
        try:
            for name in ("a", "b"):
                gateway.add_namespace(name, StubZoo(), TransferGraphConfig())
            gateway.add_namespace("w", StubZoo(), TransferGraphConfig(),
                                  fit_workers=3)
            shared = gateway.router("a")._fit_pool
            assert gateway.router("b")._fit_pool is shared
            # fit_workers is part of the pool's identity
            assert gateway.router("w")._fit_pool is not shared
        finally:
            gateway.close()

        # with a fleet, a router's threads only wait on remote fits
        fleet_gateway = SelectionGateway(fleet=FleetCoordinator())
        try:
            for name in ("a", "b"):
                fleet_gateway.add_namespace(name, StubZoo(),
                                            TransferGraphConfig())
            own = fleet_gateway.router("a")._fit_pool
            assert fleet_gateway.router("b")._fit_pool is not own
        finally:
            fleet_gateway.close()
        # each fleet router owned (and shut) its pool
        assert own._shutdown


class TestStatsPooling:
    def test_namespace_row_pools_two_strategies(self):
        """/v1/stats reads each strategy's one record: a namespace row
        adds their counts, keeps the highest peak, and the strategies
        block gives each its own fit cost."""
        fast = StubStrategy("fast", STUB_SCORES["agree"])
        gateway = stub_gateway(names=("alpha",), strategies=(fast,))
        records = {"tg:lr,n2v,all": (2, 3, 10.0), "fast": (5, 1, 20.0)}
        try:
            for spec, (coalesced, peak, fit_ms) in records.items():
                with gateway.service("alpha", spec).locked_stats() as stats:
                    stats.coalesced = coalesced
                    stats.peak_pending_fits = peak
                    stats.fit_ms.observe(fit_ms)
            stats = gateway.stats()
            for row in (stats.namespaces["alpha"], stats.fleet):
                assert row["coalesced"] == 7
                assert row["peak_pending_fits"] == 3
            costs = stats.strategies["alpha"]
            assert list(costs) == list(records)   # default first
            assert costs["fast"]["fits_timed"] == 1.0
            assert costs["fast"]["fit_ms_p50"] == 20.0
            assert gateway.fit_costs() == stats.strategies
        finally:
            gateway.close()


class TestStrategyIsolation:
    """Every strategy of a namespace admits cold fits through its own
    router: one bound, its own queue slots and its own fit threads."""

    TARGETS = tuple(f"t{i}" for i in range(8))

    def gateway(self):
        """One namespace, ``max_pending_fits=4``: the default strategy
        fits in 0.3 s, ``fast`` in 0.01 s."""
        fast = StubStrategy("fast", STUB_SCORES["agree"], fit_seconds=0.01)
        return stub_gateway(names=("alpha",), targets=self.TARGETS,
                            fit_seconds=0.3, max_pending_fits=4,
                            strategies=(fast,))

    def burst(self, slow_targets):
        """(ok, shed) counts of 4 concurrent cold ``fast`` ranks and of
        concurrent cold default-strategy ranks for ``slow_targets``."""
        gateway = self.gateway()

        async def scenario():
            slow = [gateway.rank(RankRequest(target=t, namespace="alpha"))
                    for t in slow_targets]
            fast = [gateway.rank(RankRequest(target=t, namespace="alpha",
                                             strategy="fast"))
                    for t in self.TARGETS[:4]]
            return await asyncio.gather(*slow, *fast, return_exceptions=True)

        try:
            results = run(scenario())
        finally:
            gateway.close()

        def counts(answers):
            ok = sum(isinstance(a, RankResponse) for a in answers)
            shed = sum(isinstance(a, QueueFullError) for a in answers)
            assert ok + shed == len(answers)
            return ok, shed

        return counts(results[len(slow_targets):]), \
            counts(results[:len(slow_targets)])

    def test_every_strategy_router_gets_the_namespace_bound(self):
        gateway = self.gateway()
        try:
            for spec in gateway.strategies("alpha"):
                assert gateway.router("alpha", spec).max_pending_fits == 4
        finally:
            gateway.close()

    def test_slow_storm_leaves_fast_admissions_unchanged(self):
        alone, _ = self.burst(())
        beside_storm, storm = self.burst(self.TARGETS)
        assert alone == (4, 0)
        assert beside_storm == alone
        assert storm == (4, 4)  # the storm sheds only its own overflow
