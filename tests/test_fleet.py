"""The distributed fit fleet: wire protocol, dispatch, typed failover.

Four layers of coverage:

- property-based round-trips (hypothesis) for every fleet wire frame —
  encode/decode must be lossless and byte-stable, arrays must survive
  with dtype/shape/order intact;
- in-thread worker integration: coalescing, typed timeout/no-workers/
  fit-error semantics, heartbeat reaping, and version-skew refusal;
- real-daemon failover: two ``repro fit-worker`` subprocesses, one
  SIGKILLed mid-fit — the coalesced group must land on the survivor
  with zero lost requests;
- cross-interpreter parity: a fit run in a ``repro fit-worker``
  subprocess — shipped back as a packed artifact over the fleet wire,
  unpacked in the parent — must serve byte-identical rankings and write
  byte-identical registry artifacts to the in-process thread path, for
  every strategy family.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core import FeatureSet, TransferGraphConfig
from repro.fleet import (
    FitPlaneError,
    FitTimeoutError,
    FitWorker,
    FleetCoordinator,
    NoWorkersError,
    WireError,
    zoo_ref_for,
)
from repro.fleet import wire
from repro.obs import Observability
from repro.serving import (
    ArtifactRegistry,
    AsyncSelectionRouter,
    GatewayHTTPServer,
    RankRequest,
    SelectionGateway,
    SelectionService,
)

from serving_stubs import STUB_SCORES, StubStrategy, StubZoo, stub_service
from test_obs_http import http_request

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------- #
# fit doubles (module-level: fleet subprocesses unpickle by reference)
# ---------------------------------------------------------------------- #
class SlowFleetStrategy(StubStrategy):
    """Fits sleep so tests get a window to observe/kill the worker."""

    def __init__(self, sleep_s=1.0):
        super().__init__("slow-fleet", STUB_SCORES["agree"])
        self.sleep_s = sleep_s

    def fit(self, zoo, target):
        time.sleep(self.sleep_s)
        return super().fit(zoo, target)


class FailingFleetStrategy(StubStrategy):
    """An ordinary fit exception (not a plane failure)."""

    def __init__(self):
        super().__init__("failing-fleet", STUB_SCORES["agree"])

    def fit(self, zoo, target):
        raise ValueError(f"no fit for {target!r}")


# ---------------------------------------------------------------------- #
# wire protocol: hypothesis round-trips for every frame
# ---------------------------------------------------------------------- #
_names = st.text(min_size=1, max_size=16)
_counts = st.integers(min_value=0, max_value=2**31)
_blobs = st.binary(max_size=128)
_json_scalars = st.none() | st.booleans() | st.integers(-10**6, 10**6) | _names
_json_dicts = st.dictionaries(_names, _json_scalars, max_size=4)
_arrays = npst.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
    shape=npst.array_shapes(min_dims=0, max_dims=3, max_side=4),
)

_hexes = st.text(alphabet="0123456789abcdef", min_size=0, max_size=64)

_frames = st.one_of(
    st.builds(wire.Hello, worker_name=_names, pid=_counts,
              wire_version=_counts, nonce=_hexes),
    st.builds(wire.Challenge, nonce=_hexes, proof=_hexes),
    st.builds(wire.Auth, proof=_hexes),
    st.builds(wire.Register, worker_id=_names,
              heartbeat_interval_s=st.floats(0.001, 1e6)),
    st.builds(wire.Heartbeat, worker_id=_names, outstanding=_counts,
              fits_done=_counts),
    st.builds(wire.Fit, fit_id=_names, target=_names, strategy_blob=_blobs,
              zoo_blob=_blobs),
    st.builds(wire.FitResult, fit_id=_names, meta=_json_dicts,
              spans=st.lists(_json_dicts, max_size=3),
              arrays=st.dictionaries(_names, _arrays, max_size=3)),
    st.builds(wire.FitError, fit_id=_names, kind=st.sampled_from(["fit",
              "plane"]), message=_names, exc_module=_names,
              exc_type=_names),
)


def _assert_frames_equal(original, decoded):
    assert type(decoded) is type(original)
    if isinstance(original, wire.FitResult):
        assert decoded.fit_id == original.fit_id
        assert decoded.meta == original.meta
        assert decoded.spans == original.spans
        assert list(decoded.arrays) == list(original.arrays)  # order
        for key, array in original.arrays.items():
            out = decoded.arrays[key]
            assert out.dtype == array.dtype
            assert out.shape == array.shape
            assert out.tobytes() == np.ascontiguousarray(array).tobytes()
            assert out.flags.writeable
    else:
        assert decoded == original


class TestWireRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(frame=_frames)
    def test_every_frame_round_trips_byte_stable(self, frame):
        encoded = wire.encode_frame(frame)
        # strip the outer length prefix the stream reader consumes
        decoded = wire.decode_frame(encoded[4:])
        _assert_frames_equal(frame, decoded)
        assert wire.encode_frame(decoded) == encoded

    @settings(max_examples=40, deadline=None)
    @given(frame=_frames, cut=st.integers(min_value=4, max_value=64))
    def test_truncated_payloads_raise_wire_error_not_garbage(self, frame,
                                                            cut):
        payload = wire.encode_frame(frame)[4:]
        if cut >= len(payload):
            return  # nothing to truncate away
        truncated = payload[:cut]
        try:
            wire.decode_frame(truncated)
        except WireError:
            pass  # the contract: typed, never a stray struct/KeyError

    def test_unknown_frame_and_bad_blobs_are_typed(self):
        with pytest.raises(WireError, match="unknown fleet frame"):
            wire.decode_frame(wire.encode_frame(
                wire.Hello("w", 1))[4:].replace(b"HELLO", b"HOWDY"))
        with pytest.raises(WireError, match="not a fleet frame"):
            wire.encode_frame(object())
        fit = wire.encode_frame(wire.Fit("f1", "t0", b"abc", b"de"))[4:]
        with pytest.raises(WireError, match="blob bytes"):
            wire.decode_frame(fit[:-1])

    def test_non_json_meta_is_a_wire_error_at_encode_time(self):
        frame = wire.FitResult("f1", meta={"oops": object()}, spans=[])
        with pytest.raises(WireError, match="not JSON-encodable"):
            wire.encode_frame(frame)

    def test_oversized_length_prefix_is_refused(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(WireError, match="ceiling"):
                await wire.read_frame(reader)

        run(scenario())


#: every frame's header fields, for the malformed-header fuzz
_FRAME_FIELDS = {
    "HELLO": ("worker_name", "pid", "wire_version", "nonce"),
    "CHALLENGE": ("nonce", "proof"),
    "AUTH": ("proof",),
    "REGISTER": ("worker_id", "heartbeat_interval_s"),
    "HEARTBEAT": ("worker_id", "outstanding", "fits_done"),
    "FIT": ("fit_id", "target", "blobs"),
    "FIT_RESULT": ("fit_id", "meta", "spans", "arrays"),
    "FIT_ERROR": ("fit_id", "kind", "message", "exc_module", "exc_type"),
}
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
#: field values shaped like the real ones, so the fuzz also reaches the
#: blob and array parsing behind the type checks
_FIELD_VALUES = {
    "blobs": st.lists(st.integers(-1, 8), max_size=3),
    "arrays": st.lists(st.fixed_dictionaries({
        "name": _any_json,
        "dtype": st.sampled_from(["<f8", "<i8", "|u1", "|O", "|V0", "<f8,"])
        | _any_json,
        "shape": st.lists(st.integers(-2, 2**64), max_size=3) | _any_json,
        "nbytes": st.integers(-1, 16) | _any_json,
    }), max_size=3),
}


def _framed(header: dict, tail: bytes = b"") -> bytes:
    head = json.dumps(header).encode()
    return len(head).to_bytes(4, "big") + head + tail


class TestWireFuzz:
    """decode_frame reads the network and the registry's artifact files:
    every payload parses to a frame or raises WireError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=256))
    def test_arbitrary_bytes_decode_or_raise_wire_error(self, payload):
        try:
            wire.decode_frame(payload)
        except WireError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_header_field_values_decode_or_raise_wire_error(self, data):
        name = data.draw(st.sampled_from(sorted(_FRAME_FIELDS)))
        header = {"frame": name}
        for field_name in _FRAME_FIELDS[name]:
            values = _FIELD_VALUES.get(field_name)
            header[field_name] = data.draw(
                _any_json if values is None else values | _any_json)
        # often carry exactly the blob bytes the header declares
        lengths = header.get("arrays", header.get("blobs"))
        lengths = [d.get("nbytes") if isinstance(d, dict) else d
                   for d in (lengths if isinstance(lengths, list) else [])]
        size = sum(n for n in lengths if isinstance(n, int) and 0 < n <= 64)
        tail = data.draw(st.binary(min_size=size, max_size=size)
                         | st.binary(max_size=16))
        try:
            wire.decode_frame(_framed(header, tail))
        except WireError:
            pass

    @pytest.mark.parametrize("header", [
        {"frame": "HELLO", "worker_name": "w", "pid": "x", "wire_version": 2},
        {"frame": "HELLO", "worker_name": "w", "pid": [1], "wire_version": 2},
        {"frame": "REGISTER", "worker_id": "w1",
         "heartbeat_interval_s": "soon"},
        {"frame": "FIT", "fit_id": "f1", "target": "t0", "blobs": 5},
        {"frame": "FIT_RESULT", "fit_id": "f1", "meta": {}, "spans": [],
         "arrays": 5},
        # numpy parses a comma dtype string with ast: SyntaxError
        {"frame": "FIT_RESULT", "fit_id": "f1", "meta": {}, "spans": [],
         "arrays": [{"name": "a", "dtype": ",", "shape": [0], "nbytes": 0}]},
    ])
    def test_wrongly_typed_fields_are_wire_errors(self, header):
        with pytest.raises(WireError):
            wire.decode_frame(_framed(header))


# ---------------------------------------------------------------------- #
# coordinator + in-thread workers: dispatch and typed failure semantics
# ---------------------------------------------------------------------- #
def fleet_with_workers(count=2, secret=None, **kwargs):
    """A started coordinator with ``count`` in-thread workers live."""
    fleet = FleetCoordinator("127.0.0.1", 0, secret=secret, **kwargs)
    host, port = fleet.start()
    workers = [FitWorker(host, port, name=f"wk{i}", secret=secret)
               for i in range(count)]
    threads = [w.run_in_thread() for w in workers]
    fleet.wait_for_workers(count)
    return fleet, workers, threads


class TestDispatch:
    def test_rank_and_coalescing_match_thread_counters(self):
        def drive(fleet=None):
            service = SelectionService(
                StubZoo(), StubStrategy("agree", STUB_SCORES["agree"],
                                        fit_seconds=0.3))
            router = AsyncSelectionRouter(service, fleet=fleet)

            async def traffic():
                await asyncio.gather(*(router.rank("t0") for _ in range(5)))
                await router.rank("t1")
                return await router.rank("t0")  # warm

            try:
                warm = run(traffic())
                return warm, router.stats()
            finally:
                router.close()

        fleet, _, threads = fleet_with_workers(2)
        try:
            t_warm, t_stats = drive()
            s_warm, s_stats = drive(fleet)
        finally:
            fleet.close()
        for t in threads:
            t.join(timeout=5)
        assert s_warm == t_warm
        for key in ("fits", "cold_fits", "coalesced", "queries",
                    "cache_hits", "failed_waits"):
            assert s_stats[key] == t_stats[key], key
        assert s_stats["coalesced"] == 4
        assert s_stats["fits"] == 2

    def test_empty_fleet_sheds_typed_no_workers(self):
        fleet = FleetCoordinator("127.0.0.1", 0)
        fleet.start()
        service = SelectionService(StubZoo(),
                                   StubStrategy("agree",
                                                STUB_SCORES["agree"]))
        router = AsyncSelectionRouter(service, fleet=fleet)
        try:
            with pytest.raises(NoWorkersError, match="no live fit workers"):
                run(router.rank("t0"))
            assert router.pending_fits == 0
        finally:
            router.close()
            fleet.close()

    def test_timeout_is_typed_and_bounded(self):
        fleet, _, _ = fleet_with_workers(1)
        service = SelectionService(StubZoo(), SlowFleetStrategy(sleep_s=2.0))
        router = AsyncSelectionRouter(service, fleet=fleet, fit_timeout_s=0.3)
        try:
            started = time.perf_counter()
            with pytest.raises(FitTimeoutError, match="exceeded 0.3s"):
                run(router.rank("t0"))
            assert time.perf_counter() - started < 1.5
            assert router.pending_fits == 0
        finally:
            router.close()
            fleet.close()

    def test_ordinary_fit_exception_keeps_its_type(self):
        fleet, _, _ = fleet_with_workers(1)
        service = SelectionService(StubZoo(), FailingFleetStrategy())
        router = AsyncSelectionRouter(service, fleet=fleet)
        try:
            with pytest.raises(ValueError, match="no fit for 't0'"):
                run(router.rank("t0"))
            # the worker survives a failed fit and serves the next one
            service2 = SelectionService(
                StubZoo(), StubStrategy("agree", STUB_SCORES["agree"]))
            router2 = AsyncSelectionRouter(service2, fleet=fleet)
            try:
                assert run(router2.rank("t0"))[0][0] == "m0"
            finally:
                router2.close()
        finally:
            router.close()
            fleet.close()

    def test_unpicklable_strategy_is_a_typed_submit_error(self):
        fleet, _, _ = fleet_with_workers(1)
        router = AsyncSelectionRouter(stub_service(), fleet=fleet)
        try:
            with pytest.raises(FitPlaneError, match="not.*picklable"):
                run(router.rank("t0"))
        finally:
            router.close()
            fleet.close()

    def test_router_close_leaves_the_shared_fleet_running(self):
        fleet, _, _ = fleet_with_workers(1)
        try:
            router = AsyncSelectionRouter(stub_service(), fleet=fleet)
            router.close()
            assert fleet.worker_count == 1  # not torn down with the router
        finally:
            fleet.close()


class TestWorkerLifecycle:
    def test_silent_worker_is_reaped(self):
        fleet = FleetCoordinator("127.0.0.1", 0, heartbeat_interval_s=0.1,
                                 heartbeat_misses=2)
        host, port = fleet.start()
        worker = FitWorker(host, port, name="mute")
        worker._send_heartbeats = False
        thread = worker.run_in_thread()
        try:
            fleet.wait_for_workers(1)
            deadline = time.monotonic() + 10.0
            while fleet.worker_count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert fleet.worker_count == 0
            thread.join(timeout=5)  # reap closed the connection
            assert not thread.is_alive()
        finally:
            fleet.close()

    def test_version_skewed_worker_is_refused_before_register(self):
        fleet = FleetCoordinator("127.0.0.1", 0)
        host, port = fleet.start()

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            await wire.write_frame(
                writer, wire.Hello("future", os.getpid(), wire_version=999))
            with pytest.raises(asyncio.IncompleteReadError):
                await wire.read_frame(reader)
            writer.close()

        try:
            run(scenario())
            assert fleet.worker_count == 0
        finally:
            fleet.close()

    def test_fleet_summary_names_every_worker(self):
        fleet, workers, _ = fleet_with_workers(2)
        try:
            summary = fleet.fleet_summary()
            assert summary["workers"] == 2
            assert summary["outstanding"] == 0
            assert sorted(d["name"] for d in summary["details"]) == \
                ["wk0", "wk1"]
            assert all(d["pid"] == os.getpid() for d in summary["details"])
        finally:
            fleet.close()


class TestAuth:
    """The mutual HMAC handshake gating registration (--fleet-secret)."""

    def test_secured_fleet_serves_fits_end_to_end(self):
        fleet, _, _ = fleet_with_workers(2, secret="s3kr1t")
        service = SelectionService(StubZoo(),
                                   StubStrategy("agree",
                                                STUB_SCORES["agree"]))
        router = AsyncSelectionRouter(service, fleet=fleet)
        try:
            assert run(router.rank("t0"))[0][0] == "m0"
        finally:
            router.close()
            fleet.close()

    def test_wrong_secret_fails_mutual_auth_and_registers_nothing(self):
        fleet = FleetCoordinator("127.0.0.1", 0, secret="right")
        host, port = fleet.start()
        try:
            # mutual: the worker rejects the coordinator's proof first
            with pytest.raises(FitPlaneError, match="failed fleet-secret"):
                run(FitWorker(host, port, name="w", secret="wrong").run())
            assert fleet.worker_count == 0
        finally:
            fleet.close()

    def test_forged_auth_proof_is_dropped_before_register(self):
        fleet = FleetCoordinator("127.0.0.1", 0, secret="right")
        host, port = fleet.start()

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            await wire.write_frame(
                writer, wire.Hello("intruder", os.getpid(),
                                   nonce=wire.new_nonce()))
            challenge = await wire.read_frame(reader)
            assert isinstance(challenge, wire.Challenge)
            await wire.write_frame(writer, wire.Auth(proof="0" * 64))
            with pytest.raises(asyncio.IncompleteReadError):
                await wire.read_frame(reader)  # dropped, never REGISTER
            writer.close()

        try:
            run(scenario())
            assert fleet.worker_count == 0
        finally:
            fleet.close()

    def test_secretless_worker_is_told_to_bring_the_secret(self):
        fleet = FleetCoordinator("127.0.0.1", 0, secret="right")
        host, port = fleet.start()
        try:
            with pytest.raises(FitPlaneError,
                               match="requires a fleet secret"):
                run(FitWorker(host, port, name="bare").run())
            assert fleet.worker_count == 0
        finally:
            fleet.close()

    def test_secured_worker_refuses_an_open_coordinator(self):
        fleet = FleetCoordinator("127.0.0.1", 0)  # no secret: no challenge
        host, port = fleet.start()
        try:
            with pytest.raises(FitPlaneError,
                               match="did not request fleet-secret"):
                run(FitWorker(host, port, name="strict", secret="s").run())
        finally:
            fleet.close()

    def test_proofs_are_domain_separated(self):
        # a captured coordinator proof must never replay as a worker's
        nonce = wire.new_nonce()
        assert wire.coordinator_proof("s", nonce) != wire.worker_proof(
            "s", nonce)


class TestResolveOwnership:
    def test_foreign_fit_error_cannot_poison_anothers_fit(self):
        """A frame from worker B for a fit dispatched to worker A is
        ignored — B can neither resolve nor fail A's pending future."""
        fleet = FleetCoordinator("127.0.0.1", 0)
        host, port = fleet.start()

        async def join(name):
            reader, writer = await asyncio.open_connection(host, port)
            await wire.write_frame(writer, wire.Hello(name, os.getpid()))
            assert isinstance(await wire.read_frame(reader), wire.Register)
            return reader, writer

        async def scenario():
            reader_a, writer_a = await join("fakeA")
            _, writer_b = await join("fakeB")
            box = {}
            thread = threading.Thread(
                target=lambda: box.update(result=fleet.submit_fit(
                    StubStrategy("agree", STUB_SCORES["agree"]),
                    StubZoo(), "t0")))
            thread.start()
            fit = await asyncio.wait_for(wire.read_frame(reader_a), 10)
            assert isinstance(fit, wire.Fit)  # least-outstanding picked A
            await wire.write_frame(writer_b, wire.FitError(
                fit.fit_id, "fit", "forged", exc_module="builtins",
                exc_type="ValueError"))
            await asyncio.sleep(0.3)
            assert thread.is_alive()  # the forged frame resolved nothing
            await wire.write_frame(writer_a, wire.FitResult(
                fit.fit_id, meta={"winner": "fakeA"}, spans=[]))
            thread.join(timeout=10)
            assert not thread.is_alive()
            writer_a.close()
            writer_b.close()
            return box["result"]

        try:
            meta, arrays, spans = run(scenario())
        finally:
            fleet.close()
        assert meta == {"winner": "fakeA"}
        assert dict(arrays) == {} and spans == []

    def test_fits_done_counts_successes_not_attempts(self):
        fleet, workers, _ = fleet_with_workers(1)
        failing = SelectionService(StubZoo(), FailingFleetStrategy())
        router = AsyncSelectionRouter(failing, fleet=fleet)
        try:
            with pytest.raises(ValueError, match="no fit for 't0'"):
                run(router.rank("t0"))
        finally:
            router.close()
        healthy = SelectionService(StubZoo(),
                                   StubStrategy("agree",
                                                STUB_SCORES["agree"]))
        router = AsyncSelectionRouter(healthy, fleet=fleet)
        try:
            run(router.rank("t0"))
            assert workers[0].fits_done == 1  # the failure didn't count
            assert fleet.fleet_summary()["details"][0]["fits_done"] == 1
        finally:
            router.close()
            fleet.close()


class TestLifecycleRaces:
    def test_close_before_start_is_a_quiet_no_op(self):
        fleet = FleetCoordinator("127.0.0.1", 0)
        fleet.close()  # never started: nothing to join, nothing to hang
        with pytest.raises(FitPlaneError, match="closed"):
            fleet.start()

    def test_close_racing_start_never_leaks_the_loop_thread(self):
        for _ in range(5):
            fleet = FleetCoordinator("127.0.0.1", 0)

            def starter():
                try:
                    fleet.start()
                except FitPlaneError:
                    pass  # close() won the race; that's the point

            thread = threading.Thread(target=starter)
            thread.start()
            fleet.close()
            thread.join(timeout=10)
            assert not thread.is_alive()
            if fleet._thread is not None:
                fleet._thread.join(timeout=10)
                assert not fleet._thread.is_alive()


# ---------------------------------------------------------------------- #
# failover: SIGKILL a real fit-worker daemon mid-fit
# ---------------------------------------------------------------------- #
def _spawn_fit_worker(host, port, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC_DIR}{os.pathsep}{TESTS_DIR}"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "fit-worker",
         "--connect", f"{host}:{port}", "--name", name],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class TestFailover:
    def test_sigkill_mid_fit_retries_on_the_survivor(self):
        obs = Observability()
        fleet = FleetCoordinator("127.0.0.1", 0, obs=obs)
        host, port = fleet.start()
        procs = [_spawn_fit_worker(host, port, f"daemon{i}")
                 for i in range(2)]
        service = SelectionService(StubZoo(),
                                   SlowFleetStrategy(sleep_s=1.5))
        router = AsyncSelectionRouter(service, fleet=fleet)
        try:
            fleet.wait_for_workers(2, timeout_s=60.0)

            async def scenario():
                first = asyncio.ensure_future(router.rank("t0"))
                second = asyncio.ensure_future(router.rank("t0"))
                busy = None
                for _ in range(500):
                    await asyncio.sleep(0.02)
                    details = fleet.fleet_summary()["details"]
                    busy = next(
                        (d for d in details if d["outstanding"]), None)
                    if busy is not None:
                        break
                assert busy is not None, "no worker ever went busy"
                os.kill(busy["pid"], signal.SIGKILL)
                return await asyncio.gather(first, second)

            results = run(scenario())
            stats = router.stats()
        finally:
            router.close()
            fleet.close()
            for proc in procs:
                proc.terminate()
                proc.wait(timeout=10)

        # zero lost requests: the whole coalesced group got the
        # survivor's result, nothing hung, nothing shed
        assert [r[0][0] for r in results] == ["m0", "m0"]
        assert stats["fits"] == 1
        assert stats["cold_fits"] == 1
        assert stats["coalesced"] == 1
        assert stats["failed_waits"] == 0
        rendered = obs.render_metrics()
        assert 'repro_fleet_dispatch_total{outcome="retry"} 1' in rendered
        assert 'repro_fleet_dispatch_total{outcome="ok"} 1' in rendered

    def test_killing_the_last_worker_sheds_typed_crash(self):
        from repro.fleet import FitWorkerCrashError

        fleet = FleetCoordinator("127.0.0.1", 0)
        host, port = fleet.start()
        proc = _spawn_fit_worker(host, port, "lone")
        service = SelectionService(StubZoo(),
                                   SlowFleetStrategy(sleep_s=1.5))
        router = AsyncSelectionRouter(service, fleet=fleet)
        try:
            fleet.wait_for_workers(1, timeout_s=60.0)

            async def scenario():
                fit = asyncio.ensure_future(router.rank("t0"))
                for _ in range(500):
                    await asyncio.sleep(0.02)
                    if fleet.fleet_summary()["outstanding"]:
                        break
                proc.kill()
                with pytest.raises(FitWorkerCrashError):
                    await fit

            run(scenario())
            assert router.pending_fits == 0
        finally:
            router.close()
            fleet.close()
            proc.terminate()
            proc.wait(timeout=10)


# ---------------------------------------------------------------------- #
# cross-interpreter parity: fits in a real fit-worker daemon
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cached_zoo(tiny_image_zoo, tmp_path_factory):
    """The tiny zoo, saved where fit-worker daemons can re-hydrate it.

    A daemon resolves the zoo cache through ``REPRO_CACHE_DIR``
    (inherited via the environment), so the fixture saves the shared
    session zoo into a temp cache and points the variable there for the
    module.  Without this every daemon would *rebuild* the zoo —
    correct, but minutes instead of milliseconds.
    """
    from repro.zoo.cache import save_zoo

    cache_dir = tmp_path_factory.mktemp("fleet_zoo_cache")
    save_zoo(tiny_image_zoo, cache_dir)
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield tiny_image_zoo
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="module")
def daemon_fleet(cached_zoo):
    """A coordinator with one ``repro fit-worker`` daemon registered."""
    fleet = FleetCoordinator("127.0.0.1", 0)
    host, port = fleet.start()
    proc = _spawn_fit_worker(host, port, "parity")
    try:
        fleet.wait_for_workers(1, timeout_s=60.0)
        yield fleet
    finally:
        fleet.close()
        proc.terminate()
        proc.wait(timeout=10)


#: a graph-features TG variant, a dataset-similarity LR baseline, and a
#: transferability score table — the three artifact shapes that exist
PARITY_SPECS = [
    pytest.param(TransferGraphConfig(predictor="lr", embedding_dim=16,
                                     features=FeatureSet.everything()),
                 id="tg"),
    pytest.param("lr:all", id="lr-baseline"),
    pytest.param("logme", id="score-table"),
]


def _serve_all(zoo, strategy, registry_root, fleet=None):
    """Rank every target through a fresh router; response JSON per target."""
    service = SelectionService(zoo, strategy,
                               registry=ArtifactRegistry(registry_root))
    router = AsyncSelectionRouter(service, fleet=fleet)
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
                                                   daemon_fleet, tmp_path,
                                                   strategy):
        thread = _serve_all(cached_zoo, strategy, tmp_path / "thread_reg")
        fleet = _serve_all(cached_zoo, strategy, tmp_path / "fleet_reg",
                           daemon_fleet)
        # Wire parity: the serialized rank responses are byte-identical.
        assert thread == fleet

        # Registry parity: every artifact file is byte-identical.
        thread_reg = ArtifactRegistry(tmp_path / "thread_reg")
        fleet_reg = ArtifactRegistry(tmp_path / "fleet_reg")
        for target in cached_zoo.target_names():
            assert thread_reg.path_for(target, strategy).read_bytes() == \
                fleet_reg.path_for(target, strategy).read_bytes()

    def test_registry_artifact_revives_into_thread_service(self, cached_zoo,
                                                           daemon_fleet,
                                                           tmp_path):
        """A fleet-fitted artifact serves a later thread-mode service."""
        target = cached_zoo.target_names()[0]
        registry = ArtifactRegistry(tmp_path / "reg")
        service = SelectionService(cached_zoo, "logme", registry=registry)
        router = AsyncSelectionRouter(service, fleet=daemon_fleet)
        try:
            fresh = run(router.rank(target))
        finally:
            router.close()

        revived_service = SelectionService(cached_zoo, "logme",
                                           registry=registry)
        assert revived_service.rank(target) == fresh
        assert revived_service.stats()["registry_hits"] == 1
        assert revived_service.stats()["fits"] == 0


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
                self.lock = threading.Lock()

        with pytest.raises(FitPlaneError, match="cannot be pickled"):
            zoo_ref_for(Unpicklable())


# ---------------------------------------------------------------------- #
# gateway + HTTP: healthz fleet block, metrics
# ---------------------------------------------------------------------- #
class TestGatewayIntegration:
    def test_healthz_and_metrics_surface_the_fleet(self):
        obs = Observability()
        fleet, _, _ = fleet_with_workers(2, obs=obs)
        gateway = SelectionGateway(obs=obs, fleet=fleet)
        for name in ("alpha", "beta"):
            gateway.add_namespace(
                name, StubZoo(), TransferGraphConfig(),
                strategies=[StubStrategy("stub:a", STUB_SCORES["agree"])])

        async def scenario():
            server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            _, _, rank_body = await http_request(
                host, port, "POST", "/v1/rank",
                body=json.dumps({"namespace": "alpha", "target": "t0",
                                 "strategy": "stub:a"}))
            status, _, hz_body = await http_request(
                host, port, "GET", "/v1/healthz")
            _, _, metrics_body = await http_request(
                host, port, "GET", "/v1/metrics")
            await server.close()
            return status, json.loads(rank_body), json.loads(hz_body), \
                metrics_body.decode()

        try:
            status, rank, healthz, metrics = run(scenario())
        finally:
            gateway.close()

        assert status == 200
        assert rank["ranking"][0][0] == "m0"
        assert healthz["fleet"]["workers"] == 2
        assert {d["name"] for d in healthz["fleet"]["details"]} == \
            {"wk0", "wk1"}
        assert "repro_fleet_workers 2" in metrics
        assert 'repro_fleet_dispatch_total{outcome="ok"} 1' in metrics
        # the remote fit's spans grafted into the parent trace and fed
        # the per-stage fit histogram
        assert 'stage="fit.zoo_hydrate"' in metrics
        # gateway.close() closed the fleet it owns
        assert fleet.worker_count == 0

    def test_healthz_has_no_fleet_block_without_a_fleet(self):
        gateway = SelectionGateway()
        gateway.add_namespace("alpha", StubZoo(), TransferGraphConfig())

        async def scenario():
            server = GatewayHTTPServer(gateway, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            _, _, body = await http_request(host, port, "GET", "/v1/healthz")
            await server.close()
            return json.loads(body)

        try:
            healthz = run(scenario())
        finally:
            gateway.close()
        assert "fleet" not in healthz


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_fit_worker_command_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fit-worker", "--connect", "10.0.0.7:9000", "--name", "gpu-3",
             "--concurrency", "2", "--fleet-secret", "hunter2"])
        assert args.command == "fit-worker"
        assert args.connect == ("10.0.0.7", 9000)
        assert args.concurrency == 2
        assert args.fleet_secret == "hunter2"

    def test_serve_accepts_fleet_listen(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--fleet-listen", "0.0.0.0:7700",
             "--fleet-secret", "hunter2"])
        assert args.fleet_listen == ("0.0.0.0", 7700)
        assert args.fleet_secret == "hunter2"
        assert build_parser().parse_args(["serve"]).fleet_listen is None

    @pytest.mark.parametrize("bad", ["7700", "host:", ":", "host:port",
                                     "host:70000"])
    def test_bad_host_port_is_rejected(self, bad):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit-worker", "--connect", bad])
