"""Process mode: cold fits on a router's loopback fleet of fit-workers.

``fit_executor="process"`` gives each router a
:class:`~repro.fleet.LocalFleet`: a coordinator on ``127.0.0.1:0`` and
``fit_workers`` spawned ``FitWorker`` processes.  The parity tests are
the contract: a fit executed in a worker process — shipped back as a
packed artifact over the fleet wire, unpacked in the parent — must
serve byte-identical rankings and write byte-identical registry
artifacts to the in-process thread path, for every strategy family.

The crash test uses a stub strategy (picklable, so it crosses the spawn
boundary) whose fit kills its own worker, proving a dead worker sheds
the coalesced group typed and is replaced before the next dispatch.
The timeout, fit-exception and unpicklable-strategy semantics are the
socket fleet's and are tested once, in ``tests/test_fleet.py``.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    ArtifactRegistry,
    AsyncSelectionRouter,
    FitPlaneError,
    FitWorkerCrashError,
    RankRequest,
    SelectionService,
)
from repro.fleet import FitWorker, LocalFleet, wire, zoo_ref_for

from serving_stubs import STUB_SCORES, StubStrategy, StubZoo, stub_service


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def cached_zoo(tiny_image_zoo, tmp_path_factory):
    """The tiny zoo, saved where fit-worker processes can re-hydrate it.

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
# crash double (module-level: workers unpickle it by reference)
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


def process_router(service, **kwargs):
    kwargs.setdefault("fit_workers", 2)
    return AsyncSelectionRouter(service, fit_executor="process", **kwargs)


def _worker_pids(fleet):
    return {d["pid"] for d in fleet.fleet_summary()["details"]}


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
# plane failures
# ---------------------------------------------------------------------- #
class TestWorkerCrash:
    def test_crash_sheds_group_and_router_recovers(self):
        service = SelectionService(StubZoo(), KillWorkerStrategy(("t0",)))
        router = process_router(service)
        fleet = router._fit_plane

        async def crash_then_recover():
            first = router.rank("t0")
            second = router.rank("t0")
            results = await asyncio.gather(first, second,
                                           return_exceptions=True)
            # The fit was retried once on the other worker, which died
            # too: the whole coalesced group fails typed, slot released.
            assert all(isinstance(r, FitWorkerCrashError) for r in results)
            assert router.pending_fits == 0
            # Both workers are replaced before the next dispatch.
            ranking = await router.rank("t1")
            assert ranking[0][0] == "m0"

        try:
            assert router.prestart_fit_plane() == 2
            before = _worker_pids(fleet)
            run(crash_then_recover())
            after = _worker_pids(fleet)
            stats = router.stats()
        finally:
            router.close()
        assert len(after) == 2 and not after & before
        assert stats["fits"] == 1          # only the surviving target
        assert stats["failed_waits"] == 1  # the coalesced waiter
        assert stats["cold_fits"] == 2     # t0's originator + t1


# ---------------------------------------------------------------------- #
# observability
# ---------------------------------------------------------------------- #
class TestObservability:
    def test_gateway_metrics_count_local_fleet_dispatches(self):
        """A process-mode namespace's local fleet reports to the gateway's
        metrics; healthz's ``fleet`` block stays the socket fleet's."""
        from repro.obs import Observability
        from repro.serving import SelectionGateway

        obs = Observability()
        gateway = SelectionGateway(obs=obs)
        try:
            gateway.add_namespace(
                "alpha", StubZoo(), StubStrategy("agree", STUB_SCORES["agree"]),
                fit_executor="process", fit_workers=1)
            response = run(gateway.rank(RankRequest(target="t0",
                                                    namespace="alpha")))
            metrics = obs.render_metrics()
            assert gateway.fleet_summary() is None
        finally:
            gateway.close()
        assert response.ranking[0][0] == "m0"
        assert 'repro_fleet_dispatch_total{outcome="ok"} 1' in metrics
        assert "repro_fleet_workers 1" in metrics
        # closed fleets drop out of the summed gauge
        assert "repro_fleet_workers 0" in obs.render_metrics()


# ---------------------------------------------------------------------- #
# prestart / lifecycle
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
            assert router._fit_plane.worker_count == 2
            assert run(router.rank("t0"))[0][0] == "m0"
        finally:
            router.close()

    def test_executor_rebuilds_after_close_refuses(self):
        fleet = LocalFleet(workers=1)
        fleet.close()
        with pytest.raises(FitPlaneError, match="closed"):
            fleet.submit_fit(StubStrategy("agree", STUB_SCORES["agree"]),
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
        whichever executor the environment selects."""
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


# ---------------------------------------------------------------------- #
# the fleet secret: only the fleet's own workers may register
# ---------------------------------------------------------------------- #
class TestLocalSecret:
    def test_outsider_is_refused_before_register_and_gets_no_fit(self):
        fleet = LocalFleet(workers=1)
        try:
            assert fleet.prestart(zoo=StubZoo()) == 1
            host, port = fleet.address

            # a FitWorker without the fleet's secret is told to bring one
            outsider = FitWorker(host, port, name="outsider")
            with pytest.raises(FitPlaneError, match="requires a fleet secret"):
                run(outsider.run())
            assert outsider.worker_id is None

            async def forged_auth():
                reader, writer = await asyncio.open_connection(host, port)
                await wire.write_frame(writer, wire.Hello(
                    "forger", os.getpid(), nonce=wire.new_nonce()))
                assert isinstance(await wire.read_frame(reader),
                                  wire.Challenge)
                await wire.write_frame(writer, wire.Auth(proof="0" * 64))
                # dropped: neither REGISTER nor any FIT frame follows
                with pytest.raises(asyncio.IncompleteReadError):
                    await wire.read_frame(reader)
                writer.close()

            run(forged_auth())
            # a fit still lands on the fleet's own worker, and only there
            meta, _, _ = fleet.submit_fit(
                StubStrategy("agree", STUB_SCORES["agree"]), StubZoo(), "t0")
            assert meta["target"] == "t0"
            summary = fleet.fleet_summary()
            assert summary["workers"] == 1
            assert summary["details"][0]["fits_done"] == 1
        finally:
            fleet.close()

    def test_secret_never_reaches_a_worker_command_line(self):
        fleet = LocalFleet(workers=2)
        try:
            fleet.prestart(zoo=StubZoo())
            secret = fleet._secret.encode()
            pids = _worker_pids(fleet)
            assert len(pids) == 2
            for pid in pids:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read()
                assert b"multiprocessing" in cmdline  # the spawned child
                assert secret not in cmdline
                with open(f"/proc/{pid}/environ", "rb") as fh:
                    assert secret not in fh.read()
        finally:
            fleet.close()
