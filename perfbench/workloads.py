"""The four workloads.  Each takes a :class:`Run` and returns an :class:`Outcome`.

Request streams come from ``random.Random(seed)`` here, never from the
program's own workload generator, so a program change cannot change
the inputs.  Every response is checked against offline references
(``strategy.fit(zoo, target).rank(zoo.model_ids())``).
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
from harness import DEFAULT_SPEC, SPECS

#: the fixed tail percentile each workload reports as ``latency_tail_ms``:
#: the highest of p99/p95/p90/p75 with ten samples beyond it at its run
#: length; cold-fit's ~20 fits per run leave only the floor, p75
TAIL = {"warm-mix": 99, "cold-fit": 75, "registry-revive": 99,
        "live-catalog": 99}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    refs: dict


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: traced runs: spans plus client latency by request id
    spans: list = field(default_factory=list)
    client_ms: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def zipf_weights(n: int, alpha: float) -> list[float]:
    return [1.0 / (k ** alpha) for k in range(1, n + 1)]


def rank_body(namespace: str, target: str, spec: str) -> bytes:
    payload = {"namespace": namespace, "target": target}
    if spec != DEFAULT_SPEC:  # the default answers an omitted field
        payload["strategy"] = spec
    return json.dumps(payload).encode()


# ---------------------------------------------------------------------- #
# response checks
# ---------------------------------------------------------------------- #
class Checker:
    """Validates each distinct (check, body) once against the references."""

    def __init__(self, refs: dict):
        from repro.serving import protocol

        self.protocol = protocol
        self.refs = refs
        self._seen: dict[tuple, str | None] = {}
        self.served: dict[str, list] = {}  # default-strategy rankings

    def problem(self, check: tuple, body: bytes) -> str | None:
        key = (check, body)
        if key not in self._seen:
            try:
                self._seen[key] = self._check(check, body)
            except (self.protocol.ProtocolError, ValueError, KeyError) as exc:
                self._seen[key] = f"{check[0]}: unparseable answer ({exc})"
        return self._seen[key]

    def _ranking_problem(self, ranking, spec: str, target: str):
        if harness.same_ranking(ranking, self.refs["rankings"][spec][target]):
            if spec == DEFAULT_SPEC:
                self.served[target] = [list(pair) for pair in ranking]
            return None
        return f"{spec}/{target}: ranking differs from the offline fit"

    def _check(self, check: tuple, body: bytes) -> str | None:
        kind = check[0]
        p = self.protocol
        if kind == "rank":
            _, spec, target = check
            return self._ranking_problem(
                p.RankResponse.from_json(body).ranking, spec, target)
        if kind == "score":
            _, spec, pairs = check
            scores = p.ScoreBatchResponse.from_json(body).scores
            rankings = self.refs["rankings"][spec]
            expected = [dict(rankings[t])[m] for m, t in pairs]
            if len(scores) == len(expected) and all(
                    harness.same_ranking([("", s)], [("", e)])
                    for s, e in zip(scores, expected)):
                return None
            return f"{spec}: score_batch scores differ from the offline fit"
        if kind == "compare":
            _, target = check
            response = p.CompareResponse.from_json(body)
            if set(response.results) != set(SPECS):
                return f"compare/{target}: strategies {sorted(response.results)}"
            for spec, result in response.results.items():
                if result.status != "ok":
                    return f"compare/{target}: {spec} {result.status}"
                found = self._ranking_problem(result.ranking, spec, target)
                if found:
                    return found
            return None
        raise ValueError(f"unknown check {kind!r}")

    def score(self, records, out: Outcome) -> list[float]:
        """Count failures among HTTP records; returns all latencies."""
        latencies = []
        for rid, check, status, body, latency in records:
            out.attempted += 1
            latencies.append(latency)
            if status != 200:
                out.fail(f"{check[0]}: HTTP {status} {body[:120]!r}")
                continue
            found = self.problem(check, body)
            if found:
                out.fail(found)
        return latencies


def stats_check(out: Outcome, stats: dict, fits: int) -> None:
    fleet = stats["fleet"]
    out.extra["stats"] = {k: fleet.get(k) for k in (
        "fits", "cold_fits", "registry_hits", "cache_hits", "cache_misses",
        "coalesced", "rejections", "queries")}
    if int(fleet.get("fits", -1)) != fits:
        out.fail(f"/v1/stats fits {fleet.get('fits')} != {fits} cold keys")
    if int(fleet.get("rejections", -1)) != 0:
        out.fail(f"/v1/stats rejections {fleet.get('rejections')} != 0")


def e2e(out: Outcome, workload: str, setups: list[float], successes: int,
        elapsed: float, latencies: list[float], rss_mb: float) -> None:
    q = TAIL[workload]
    beyond = len(latencies) * (100 - q) / 100.0
    out.extra["tail"] = {"percentile": q, "samples": len(latencies),
                         "beyond": beyond}
    if beyond < 10:
        out.extra["tail"]["note"] = "fewer than 10 samples beyond the tail"
    out.metrics.update({
        "setup_s": harness.median(setups),
        "throughput_rps": successes / elapsed,
        "latency_p50_ms": harness.median(latencies),
        "latency_tail_ms": harness.percentile(latencies, q),
        "server_rss_mb": rss_mb,
    })
    out.extra["setups_s"] = setups
    out.elapsed_s = elapsed


# ---------------------------------------------------------------------- #
# HTTP workloads
# ---------------------------------------------------------------------- #
@dataclass
class Served:
    setups: list[float]
    records: list
    elapsed: float
    stats: dict
    rss_mb: float
    event_lines: int
    spans: list


def serve_and_measure(run: Run, serve_args, stream, warm=None,
                      connections: int = 2) -> Served:
    """Set up (median of three; one when traced), then run the loop.

    ``serve_args(i)`` gives the i-th spawn's extra CLI args; ``warm``
    is an optional coroutine function run against each fresh server
    and counted in its set-up time.
    """
    spans_out = harness.temp_dir("spans") / "spans.json" if run.trace else None
    setups, server = [], None
    try:
        for i in range(1 if run.trace else 3):
            if server is not None:
                server.stop()
            server = harness.Server(serve_args(i), spans_out=spans_out)
            ready = server.ready_s
            if warm is not None:
                ready += asyncio.run(warm(server))
            setups.append(ready)
        records, elapsed = asyncio.run(harness.closed_loop(
            server.host, server.port, stream, run.seconds, connections))
        stats = asyncio.run(harness.get_json(server.host, server.port,
                                             "/v1/stats"))
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    spans = json.loads(spans_out.read_text())["spans"] if spans_out else []
    return Served(setups, records, elapsed, stats, rss, server.event_lines,
                  spans)


def finish_http(run: Run, served: Served, checker: Checker,
                fits: int) -> Outcome:
    out = Outcome()
    latencies = checker.score(served.records, out)
    stats_check(out, served.stats, fits)
    successes = sum(1 for r in served.records if r[2] == 200)
    e2e(out, run.workload, served.setups, successes, served.elapsed,
        latencies, served.rss_mb)
    out.extra["event_log_lines"] = served.event_lines
    out.spans = served.spans
    out.client_ms = {r[0]: r[4] for r in served.records}
    return out


def warm_mix(run: Run) -> Outcome:
    refs = run.refs
    rng = random.Random(run.seed)
    targets = list(refs["targets"])
    rng.shuffle(targets)
    weights = zipf_weights(len(targets), 1.2)
    models = refs["models"]
    counter = iter(range(1, 1 << 62))

    def next_request():
        rid = f"w{next(counter):x}"
        spec = rng.choices(SPECS, (4, 1, 1))[0]
        u = rng.random()
        if u < 0.65:
            target = rng.choices(targets, weights)[0]
            return (rid, "/v1/rank", rank_body("image", target, spec),
                    ("rank", spec, target))
        if u < 0.95:
            pairs = tuple((rng.choice(models), rng.choices(targets, weights)[0])
                          for _ in range(4))
            payload = {"namespace": "image", "pairs": [list(p) for p in pairs]}
            if spec != DEFAULT_SPEC:
                payload["strategy"] = spec
            return (rid, "/v1/score_batch", json.dumps(payload).encode(),
                    ("score", spec, pairs))
        target = rng.choices(targets, weights)[0]
        return (rid, "/v1/compare",
                json.dumps({"namespace": "image", "target": target}).encode(),
                ("compare", target))

    def serve_args(i):
        return ["--warmup", "--registry-dir",
                str(harness.temp_dir("warm") / "reg")]

    served = serve_and_measure(run, serve_args, next_request)
    checker = Checker(refs)
    out = finish_http(run, served, checker,
                      fits=len(SPECS) * len(refs["targets"]))
    out.extra["rank_pearson"] = harness.mean_rank_pearson(checker.served,
                                                          refs["truth"])
    return out


def cold_fit(run: Run) -> Outcome:
    """Every measured request is the first fit of an untouched namespace."""
    refs = run.refs
    rng = random.Random(run.seed)
    targets = list(refs["targets"])
    rng.shuffle(targets)
    # fits/s stays far below 5 at embedding_dim 32 on one core
    namespaces = 1 + int(run.seconds * 5)
    ns_args = [arg for i in range(namespaces)
               for arg in ("--namespace", f"c{i}=image:tiny")]
    counter = iter(range(1, namespaces))

    def next_request():
        i = next(counter, None)
        if i is None:
            return None
        target = targets[i % len(targets)]
        return (f"c{i:x}", "/v1/rank", rank_body(f"c{i}", target, DEFAULT_SPEC),
                ("rank", DEFAULT_SPEC, target))

    async def warm(server):  # the unmeasured warm-up namespace c0
        started = time.perf_counter()
        conn = harness.Connection(server.host, server.port)
        try:
            status, body = await conn.exchange(
                "POST", "/v1/rank", rank_body("c0", targets[0], DEFAULT_SPEC),
                "c0")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"warm-up fit answered {status}: {body[:200]!r}")
        return time.perf_counter() - started

    def serve_args(i):
        return ["--registry-dir", str(harness.temp_dir("cold") / "reg"),
                *ns_args]

    # One connection: the server's single core is CPU-bound on fits, so a
    # second connection adds no throughput, only GIL interleaving noise
    # to every fit's latency.
    served = serve_and_measure(run, serve_args, next_request, warm=warm,
                               connections=1)
    checker = Checker(refs)
    measured = sum(1 for r in served.records if r[2] == 200)
    out = finish_http(run, served, checker, fits=1 + measured)
    if measured + 1 >= namespaces:  # the loop ended before the deadline
        out.extra["note"] = f"all {namespaces} namespaces fitted early"
    out.extra["rank_pearson"] = harness.mean_rank_pearson(checker.served,
                                                          refs["truth"])
    out.extra["fits_per_s"] = measured / served.elapsed
    return out


def revive_template() -> Path:
    """One namespace shard with all 9 (strategy, target) artifacts.

    Fitted in-process once per source tree and cached; every run copies
    it into the 8 namespace shards it serves.
    """
    from repro.serving import ArtifactRegistry

    path = harness.WORK / f"revive-template-{harness.src_digest()}"
    if not path.exists():
        staging = harness.temp_dir("template")
        zoo = harness.load_zoo()
        registry = ArtifactRegistry(staging)
        for spec in SPECS:
            strat = harness.strategy(spec)
            for target in zoo.target_names():
                registry.save(strat.fit(zoo, target), strat, zoo)
        registry.close()
        staging.rename(path)
    return path


def registry_revive(run: Run) -> Outcome:
    refs = run.refs
    template = revive_template()
    reg = harness.temp_dir("revive") / "reg"
    names = [f"n{i}" for i in range(8)]
    for name in names:  # artifacts only: each shard indexes them itself
        for fp_dir in (p for p in template.iterdir() if p.is_dir()):
            shutil.copytree(fp_dir, reg / name / fp_dir.name)
    rng = random.Random(run.seed)
    keys = [(ns, spec, t) for ns in names for spec in SPECS
            for t in refs["targets"]]
    rng.shuffle(keys)
    weights = zipf_weights(len(keys), 0.8)
    counter = iter(range(1, 1 << 62))

    def next_request():
        ns, spec, target = rng.choices(keys, weights)[0]
        return (f"r{next(counter):x}", "/v1/rank", rank_body(ns, target, spec),
                ("rank", spec, target))

    ns_args = [arg for name in names
               for arg in ("--namespace", f"{name}=image:tiny")]

    def serve_args(i):
        return ["--cache-size", "1", "--registry-dir", str(reg), *ns_args]

    # One connection: two concurrent revivals can both parse npz headers
    # (ast.literal_eval) at once, which on CPython 3.11 intermittently
    # raises SystemError ("AST constructor recursion depth mismatch")
    # and the server answers 500 (see README.md).
    served = serve_and_measure(run, serve_args, next_request, connections=1)
    checker = Checker(refs)
    out = finish_http(run, served, checker, fits=0)
    fleet = served.stats["fleet"]
    out.extra["revive_share"] = fleet["registry_hits"] / max(1, len(
        served.records))
    out.extra["rank_pearson"] = harness.mean_rank_pearson(checker.served,
                                                          refs["truth"])
    return out


# ---------------------------------------------------------------------- #
# live catalog (in-process gateway)
# ---------------------------------------------------------------------- #
async def _build_gateway(registry_root: Path):
    from repro.serving import SelectionGateway

    zoo = harness.load_zoo()
    gateway = SelectionGateway(registry_root=registry_root)
    gateway.add_namespace("image", zoo, harness.strategy(DEFAULT_SPEC),
                          strategies=[harness.strategy(s) for s in SPECS[1:]])
    await gateway.warmup()
    return gateway, zoo


async def _live(run: Run, out: Outcome) -> None:
    import tracing
    from repro.serving import RankRequest

    refs = run.refs
    targets = list(refs["targets"])
    setups, gateway = [], None
    if run.trace:
        tracing.install()
    try:
        for _ in range(1 if run.trace else 3):
            if gateway is not None:
                gateway.close()
            started = time.perf_counter()
            gateway, zoo = await _build_gateway(harness.temp_dir("live") / "reg")
            setups.append(time.perf_counter() - started)
        model_ids = zoo.model_ids()
        checker = Checker(refs)
        requests = iter(range(1, 1 << 62))

        async def rank(spec, target):
            strategy = None if spec == DEFAULT_SPEC else spec
            return await gateway.rank(
                RankRequest(target=target, namespace="image",
                            strategy=strategy),
                request_id=f"l{next(requests):x}")

        for spec in SPECS:  # warmed answers before any write
            for target in targets:
                response = await rank(spec, target)
                found = checker._ranking_problem(response.ranking, spec,
                                                 target)
                out.attempted += 1
                if found:
                    out.fail(found)

        rng_read = random.Random(run.seed)
        rng_write = random.Random(run.seed + 1)
        deadline = time.perf_counter() + run.seconds
        latencies, freshness = [], []
        writing = [True]

        # The reader runs until the last write cycle (started before the
        # deadline) ends, so every read and every refresh is measured
        # beside the other; the window overruns by at most one cycle.
        async def reader():
            while writing[0]:
                spec = rng_read.choice(SPECS)
                target = rng_read.choice(targets)
                started = time.perf_counter()
                out.attempted += 1
                try:
                    response = await rank(spec, target)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    out.fail(f"read {spec}/{target}: {exc!r}")
                else:
                    if [m for m, _ in sorted(response.ranking)] != \
                            sorted(model_ids):
                        out.fail(f"read {spec}/{target}: incomplete ranking")
                latencies.append((time.perf_counter() - started) * 1e3)

        def write_and_refresh(model, target, accuracy):
            zoo.catalog.record_history(model, target, accuracy)
            return {(spec, t): gateway.service("image", spec).refresh(t)
                    for spec in SPECS for t in targets}

        async def writer():
            try:
                await write_cycles()
            finally:
                writing[0] = False

        async def write_cycles():
            while time.perf_counter() < deadline:
                model = rng_write.choice(model_ids)
                target = rng_write.choice(targets)
                old = zoo.catalog.get_accuracy(model, target)
                accuracy = min(1.0, max(0.0, old * rng_write.uniform(0.9, 1.1)))
                out.attempted += 1
                started = time.perf_counter()
                fitted = await asyncio.to_thread(write_and_refresh, model,
                                                 target, accuracy)
                freshness.append((time.perf_counter() - started) * 1e3)
                for (spec, t), pipeline in fitted.items():
                    expected = pipeline.rank(model_ids)
                    response = await rank(spec, t)
                    if not harness.same_ranking(response.ranking, expected):
                        out.fail(f"{spec}/{t}: read after refresh is not "
                                 f"the refreshed pipeline's ranking")

        started = time.perf_counter()
        await asyncio.gather(reader(), writer())
        elapsed = time.perf_counter() - started
        out.extra["writes"] = len(freshness)
        out.extra["freshness_ms"] = freshness
        out.extra["freshness_p50_ms"] = harness.median(freshness)
        out.extra["rank_pearson"] = harness.mean_rank_pearson(
            checker.served, refs["truth"])
        stats = gateway.stats().to_dict()
        fleet = stats["fleet"]
        out.extra["stats"] = {k: fleet.get(k) for k in (
            "fits", "refreshes", "rejections", "coalesced", "queries")}
        if int(fleet["fits"]) != len(SPECS) * len(targets):
            out.fail(f"fits {fleet['fits']} != {len(SPECS) * len(targets)} "
                     f"warm-up keys")
        if int(fleet["rejections"]) != 0:
            out.fail(f"rejections {fleet['rejections']} != 0")
        e2e(out, run.workload, setups, len(latencies), elapsed, latencies,
            harness.peak_rss_mb())
    finally:
        if gateway is not None:
            gateway.close()
        if run.trace:
            out.spans = tracing.take_spans()
            tracing.uninstall()


def live_catalog(run: Run) -> Outcome:
    out = Outcome()
    asyncio.run(_live(run, out))
    return out


WORKLOADS = {
    "warm-mix": warm_mix,
    "cold-fit": cold_fit,
    "registry-revive": registry_revive,
    "live-catalog": live_catalog,
}
