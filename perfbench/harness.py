"""Shared plumbing: the served process, a closed-loop HTTP client, stats.

Everything the benchmark writes lives under ``.perfbench/`` in the
checkout (zoo cache, offline reference rankings, temp registries,
traced spans and per-run result files).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

#: the zoo every workload serves (the test suite's cached tiny zoo)
ZOO_SCALE, ZOO_SEED = "tiny", 7
#: ``repro serve --predictor lr --strategy lr:all --strategy logme``
DEFAULT_SPEC = "tg:lr,n2v,all"
SPECS = (DEFAULT_SPEC, "lr:all", "logme")
SERVE_STRATEGY_ARGS = ["--predictor", "lr", "--strategy", "lr:all",
                       "--strategy", "logme"]
#: the CLI's TransferGraph config override (``repro serve`` fits at dim 32)
CLI_TG_OVERRIDES = {"embedding_dim": 32}

def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin(pid: int, index: int) -> None:
    """One core each for the generator (index 0) and the server (1)."""
    available = cpus()
    if len(available) >= 2:
        os.sched_setaffinity(pid, {available[index % len(available)]})


def temp_dir(tag: str) -> Path:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK / "tmp"))


# ---------------------------------------------------------------------- #
# the served process
# ---------------------------------------------------------------------- #
def serve_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FIT_EXECUTOR", None)
    return env


class Server:
    """One ``repro serve`` process, spawned and ready for traffic.

    ``spans_out`` starts it through ``traced_serve.py`` instead of
    ``python -m repro``.  Both output pipes are drained on threads for
    the server's whole life, so its per-request stderr event log can
    never fill a pipe and stall it.
    """

    def __init__(self, serve_args: list[str], spans_out: Path | None = None,
                 ready_timeout_s: float = 120.0):
        head = ([sys.executable, str(BENCH / "traced_serve.py"),
                 str(spans_out)] if spans_out else
                [sys.executable, "-m", "repro"])
        argv = [*head, "--scale", ZOO_SCALE, "--seed", str(ZOO_SEED),
                "serve", "--port", "0", *SERVE_STRATEGY_ARGS, *serve_args]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=serve_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        pin(self.proc.pid, 1)
        self.event_lines = 0
        self._err = threading.Thread(target=self._drain_stderr, daemon=True)
        self._err.start()
        self.host, self.port = self._wait_ready(started + ready_timeout_s)
        self.ready_s = time.perf_counter() - started
        self._out = threading.Thread(target=self._drain_stdout, daemon=True)
        self._out.start()

    def _wait_ready(self, deadline: float) -> tuple[str, int]:
        lines = []
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()),
                                self.proc.kill)
        timer.start()
        try:
            for raw in self.proc.stdout:
                line = raw.decode(errors="replace").strip()
                lines.append(line)
                if line.startswith("serving on http://"):
                    address = line.split()[2][len("http://"):]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        finally:
            timer.cancel()
        self.stop()
        raise RuntimeError("server exited before it was ready:\n"
                           + "\n".join(lines[-20:]))

    def _drain_stdout(self) -> None:
        for _ in self.proc.stdout:
            pass

    def _drain_stderr(self) -> None:
        for _ in self.proc.stderr:
            self.event_lines += 1

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the serving process, in MB."""
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for thread in (getattr(self, "_err", None), getattr(self, "_out", None)):
            if thread is not None:
                thread.join(timeout=10)


def peak_rss_mb(pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


# ---------------------------------------------------------------------- #
# closed-loop HTTP client
# ---------------------------------------------------------------------- #
class Connection:
    """One client connection; reused while the server keeps it alive."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def exchange(self, method: str, path: str, body: bytes,
                       request_id: str) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
             f"X-Request-Id: {request_id}\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
        status = int((await self.reader.readuntil(b"\r\n")).split()[1])
        length, close = None, False
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        if length is None:
            payload = await self.reader.read()
            close = True
        else:
            payload = await self.reader.readexactly(length)
        if close:
            self.close()
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


async def closed_loop(host: str, port: int, next_request, seconds: float,
                      connections: int = 2):
    """Run ``connections`` closed-loop clients for ``seconds``.

    ``next_request()`` returns ``(request_id, path, body, check)`` or
    None when the stream is exhausted.  Returns the records
    ``(request_id, check, status, body, latency_ms)`` and the elapsed
    seconds.
    """
    records = []
    deadline = time.perf_counter() + seconds

    async def client():
        conn = Connection(host, port)
        try:
            while time.perf_counter() < deadline:
                request = next_request()
                if request is None:
                    return
                rid, path, body, check = request
                started = time.perf_counter()
                try:
                    status, payload = await conn.exchange("POST", path, body,
                                                          rid)
                except (OSError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError) as exc:
                    conn.close()
                    status, payload = -1, repr(exc).encode()
                records.append((rid, check, status, payload,
                                (time.perf_counter() - started) * 1e3))
        finally:
            conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(connections)))
    return records, time.perf_counter() - started


async def get_json(host: str, port: int, path: str) -> dict:
    conn = Connection(host, port)
    try:
        status, body = await conn.exchange("GET", path, b"", "perfbench")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def pearson(truth, predicted) -> float:
    t = np.asarray(truth, dtype=float)
    s = np.asarray(predicted, dtype=float)
    if t.max() == t.min() or s.max() == s.min():
        return 0.0
    t, s = t - t.mean(), s - s.mean()
    return float((t * s).sum() / np.sqrt((t * t).sum() * (s * s).sum()))


def same_ranking(served, expected, tol: float = 1e-9) -> bool:
    """Same models in the same order with the same scores (to ``tol``)."""
    if len(served) != len(expected):
        return False
    for (m, s), (em, es) in zip(served, expected):
        if m != em or abs(float(s) - float(es)) > tol * max(1.0, abs(es)):
            return False
    return True


# ---------------------------------------------------------------------- #
# the zoo, strategies and offline references
# ---------------------------------------------------------------------- #
def src_digest() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def zoo_config():
    from repro.zoo import ZooConfig

    return ZooConfig.tiny(modality="image", seed=ZOO_SEED)


def load_zoo():
    from repro.zoo.cache import get_or_build_zoo

    return get_or_build_zoo(zoo_config())


def strategy(spec: str):
    from repro.strategies import get_strategy

    return get_strategy(spec, **CLI_TG_OVERRIDES)


def references() -> dict:
    """Offline rankings ``{spec: {target: [[model, score], ...]}}``.

    ``strategy.fit(zoo, target).rank(zoo.model_ids())`` for every served
    (strategy, target), plus the fine-tuning ground truth — computed
    once per source tree and cached under ``.perfbench/``.
    """
    path = WORK / f"references-{src_digest()}.json"
    if path.exists():
        return json.loads(path.read_text())
    zoo = load_zoo()
    out = {"rankings": {}, "truth": {}}
    for spec in SPECS:
        strat = strategy(spec)
        out["rankings"][spec] = {
            target: [[m, float(s)] for m, s in
                     strat.fit(zoo, target).rank(zoo.model_ids())]
            for target in zoo.target_names()}
    for target in zoo.target_names():
        ids, truth = zoo.ground_truth(target, "finetune")
        out["truth"][target] = dict(zip(ids, map(float, truth)))
    out["models"] = zoo.model_ids()
    out["targets"] = zoo.target_names()
    WORK.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out))
    return out


def mean_rank_pearson(rankings: dict[str, list], truth: dict) -> float:
    """Mean over targets of Pearson(served scores, fine-tuning truth)."""
    values = []
    for target, ranking in rankings.items():
        scores = dict(ranking)
        models = sorted(truth[target])
        values.append(pearson([truth[target][m] for m in models],
                              [scores[m] for m in models]))
    return float(np.mean(values))


def provenance(seed: int) -> dict:
    from repro.zoo.cache import zoo_cache_key

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "src_digest": src_digest(),
            "nproc": os.cpu_count(), "cpus": len(cpus()),
            "python": platform.python_version(), "numpy": np.__version__,
            "zoo_fingerprint": zoo_cache_key(zoo_config()),
            "workload_seed": seed}


def clean_tmp() -> None:
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
