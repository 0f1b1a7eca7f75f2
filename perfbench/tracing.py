"""Out-of-program layer tracing: timing wrappers around public functions.

:func:`install` replaces the public entry points of every layer (see
:data:`SPAN_NAMES`) with wrappers that record one span per call:
``(span id, parent id, name, start, end, request cell, info)``.  The
parent is held in a contextvar, so spans nest across ``await`` and
across the router's executor hops (``repro.obs.run_in_context`` copies
the context into the worker thread).  Names imported at use sites
(``from repro.graph.skipgram import train_skipgram``) are patched too:
every ``repro.*`` module attribute that *is* the original function is
rebound to the wrapper.

Spans stay in memory; :func:`dump` writes them as JSON when the traced
process ends, and :func:`layer_report` turns a span file into the
per-layer metrics and the text report.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

#: span names, in layer order (README.md maps each layer to the
#: end-to-end metrics it should move)
SPAN_NAMES = [
    "protocol.decode", "protocol.encode",
    "gateway.rank", "gateway.score_batch", "gateway.compare",
    "router.rank", "router.score_batch",
    "service.cache_get", "service.load_or_fit", "service.refresh",
    "predict.rank", "predict.predict",
    "features.assemble",
    "catalog.read", "catalog.write", "catalog.dirty_nodes",
    "graph.build", "walks", "sgns",
    "predictor.fit", "predictor.predict",
    "artifact.pack", "artifact.unpack",
    "registry.save", "registry.save_packed", "registry.load",
    "zoo.load",
]

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=None)
_cell: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)
_ids = itertools.count(1)
_spans: list[tuple] = []
_installed: list[tuple[object, str, object]] = []
missing: list[str] = []

_REQUEST_ROOTS = ("gateway.rank", "gateway.score_batch", "gateway.compare")


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _span_info(name: str, args, kwargs, result, error):
    """Per-call work counts recorded beside the timing."""
    if error is not None:
        return type(error).__name__
    if name == "protocol.encode":
        return len(result)
    if name == "service.cache_get":
        return result is not None
    if name == "features.assemble":
        return bool(_arg(args, kwargs, 2, "fit", False))
    if name == "catalog.dirty_nodes":
        return -1 if result is None else len(result)
    if name == "walks":
        return sum(max(0, len(walk) - 1) for walk in result)
    if name == "sgns":
        window = _arg(args, kwargs, 2, "config").window
        return sum(_expected_pairs(len(walk), window)
                   for walk in _arg(args, kwargs, 0, "walks"))
    if name == "artifact.pack":
        meta, arrays = result
        return len(json.dumps(meta)) + sum(np.asarray(a).nbytes
                                           for a in arrays.values())
    return None


@functools.lru_cache(maxsize=None)
def _expected_pairs(length: int, window: int) -> float:
    """Expected SGNS (center, context) pairs of one walk.

    word2vec draws each center's window uniformly from 1..window; this
    counts the pairs in expectation, which depends on the walks only,
    not on how the kernel enumerates them.
    """
    return sum(min(i, s) + min(length - 1 - i, s)
               for i in range(length)
               for s in range(1, window + 1)) / window


def _begin(name: str):
    cell = _cell.get()
    cell_token = None
    if name == "protocol.decode":
        cell = {"rid": None}
        _cell.set(cell)  # the rest of this request's task sees it
    elif name in _REQUEST_ROOTS and (cell is None or cell.get("done")):
        cell = {"rid": None}
        cell_token = _cell.set(cell)
    sid = next(_ids)
    parent_token = _parent.set(sid)
    return sid, parent_token, cell, cell_token


def _end(name, sid, parent_token, cell, cell_token, started, args, kwargs,
         result, error):
    ended = time.perf_counter()
    _parent.reset(parent_token)
    if name in _REQUEST_ROOTS:
        cell["rid"] = kwargs.get("request_id") or cell["rid"]
        cell["done"] = True
        if cell_token is not None:
            _cell.reset(cell_token)
    try:
        info = _span_info(name, args, kwargs, result, error)
    except Exception:  # noqa: BLE001 - a count must never break the call
        info = None
    _spans.append((sid, _parent.get(), name, started, ended, cell, info))


def _wrap(name: str, fn):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid, ptok, cell, ctok = _begin(name)
            started = time.perf_counter()
            result = error = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                _end(name, sid, ptok, cell, ctok, started, args, kwargs,
                     result, error)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, ptok, cell, ctok = _begin(name)
            started = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                _end(name, sid, ptok, cell, ctok, started, args, kwargs,
                     result, error)
    return traced


def _patch_method(cls, attr: str, name: str) -> None:
    raw = inspect.getattr_static(cls, attr, None)
    if raw is None:
        missing.append(f"{cls.__name__}.{attr}")
        return
    if isinstance(raw, classmethod):
        wrapped = classmethod(_wrap(name, raw.__func__))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(_wrap(name, raw.__func__))
    else:
        wrapped = _wrap(name, raw)
    _installed.append((cls, attr, cls.__dict__.get(attr)))
    setattr(cls, attr, wrapped)


def _patch_function(module, attr: str, name: str) -> None:
    original = getattr(module, attr, None)
    if original is None:
        missing.append(f"{module.__name__}.{attr}")
        return
    wrapped = _wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and \
                getattr(mod, attr, None) is original:
            _installed.append((mod, attr, original))
            setattr(mod, attr, wrapped)


def _defining_classes(base, attr: str):
    """``base`` and its subclasses that define ``attr`` themselves."""
    seen, stack, out = set(), [base], []
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


def install() -> None:
    """Wrap every layer's public calls in this process (idempotent)."""
    if _installed:
        return
    import repro.core.features as features
    import repro.core.framework as framework
    import repro.graph.builder as builder
    import repro.graph.skipgram as skipgram
    import repro.graph.walks as walks
    import repro.predictors.base as predictors
    import repro.serving  # noqa: F401 - loads every serving module
    import repro.serving.gateway as gateway
    import repro.serving.protocol as protocol
    import repro.serving.registry as registry
    import repro.serving.router as router
    import repro.serving.service as service
    import repro.store.catalog as catalog
    import repro.strategies.base as strategies
    import repro.zoo.cache as zoo_cache

    for cls in (protocol.RankRequest, protocol.ScoreBatchRequest,
                protocol.CompareRequest):
        _patch_method(cls, "from_json", "protocol.decode")
    for cls in (protocol.RankResponse, protocol.ScoreBatchResponse,
                protocol.CompareResponse):
        _patch_method(cls, "to_json", "protocol.encode")
    for attr in ("rank", "score_batch", "compare"):
        _patch_method(gateway.SelectionGateway, attr, f"gateway.{attr}")
    for attr in ("rank", "score_batch"):
        _patch_method(router.AsyncSelectionRouter, attr, f"router.{attr}")
    for attr in ("cache_get", "load_or_fit", "refresh"):
        _patch_method(service.SelectionService, attr, f"service.{attr}")
    for cls in (framework.FittedTransferGraph, strategies.FittedScoreTable):
        _patch_method(cls, "rank", "predict.rank")
        _patch_method(cls, "predict", "predict.predict")
    _patch_method(features.FeatureAssembler, "assemble", "features.assemble")
    for attr in ("get_similarity", "get_transferability", "get_accuracy",
                 "history_for_dataset"):
        _patch_method(catalog.ZooCatalog, attr, "catalog.read")
    _patch_method(catalog.ZooCatalog, "record_history", "catalog.write")
    _patch_method(catalog.ZooCatalog, "dirty_nodes", "catalog.dirty_nodes")
    _patch_method(builder.GraphBuilder, "build", "graph.build")
    _patch_function(walks, "generate_walks", "walks")
    _patch_function(skipgram, "train_skipgram", "sgns")
    for attr in ("fit", "predict"):
        for cls in _defining_classes(predictors.Regressor, attr):
            if cls is not predictors.Regressor:
                _patch_method(cls, attr, f"predictor.{attr}")
    for attr in ("pack", "unpack"):
        for cls in _defining_classes(strategies.SelectionStrategy, attr):
            if cls is not strategies.SelectionStrategy:
                _patch_method(cls, attr, f"artifact.{attr}")
    for attr in ("save", "save_packed", "load"):
        _patch_method(registry.ArtifactRegistry, attr, f"registry.{attr}")
    _patch_function(zoo_cache, "get_or_build_zoo", "zoo.load")


def uninstall() -> None:
    """Restore every patched attribute (in-process workloads)."""
    while _installed:
        owner, attr, original = _installed.pop()
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def take_spans() -> list[list]:
    """Drain the recorded spans as JSON-ready rows."""
    rows = [[sid, parent, name, start, end,
             None if cell is None else cell.get("rid"), info]
            for sid, parent, name, start, end, cell, info in _spans]
    _spans.clear()
    return rows


def dump(path: str | Path) -> None:
    Path(path).write_text(json.dumps({"spans": take_spans(),
                                      "missing": missing}))


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_report(spans: list[list], client: dict[str, float],
                 elapsed_s: float) -> tuple[dict[str, float], list[str], dict]:
    """Per-layer metrics, report lines and a JSON-ready breakdown.

    ``client`` maps request id -> client-observed latency in ms for the
    measured requests (HTTP workloads; empty in-process).
    """
    by_id = {row[0]: row for row in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _rid, _info in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    dur: dict[str, list[float]] = {}
    self_ms: dict[str, list[float]] = {}
    info: dict[str, list] = {}
    for sid, parent, name, start, end, _rid, extra in spans:
        own = end - start
        inner = _union_length([(max(s, start), min(e, end))
                               for s, e in children.get(sid, [])
                               if min(e, end) > max(s, start)])
        dur.setdefault(name, []).append(own * 1e3)
        self_ms.setdefault(name, []).append((own - inner) * 1e3)
        info.setdefault(name, []).append(extra)

    def p50(name, scale=1.0):
        return _pct(dur.get(name, []), 50) * scale

    def self_p50(names):
        pooled = [v for n in names for v in self_ms.get(n, [])]
        return _pct(pooled, 50)

    def mean(values):
        values = [v for v in values if isinstance(v, (int, float))
                  and not isinstance(v, bool)]
        return float(np.mean(values)) if values else 0.0

    # per request: the server-side time of decode + gateway + encode
    server_ms: dict[str, float] = {}
    for sid, parent, name, start, end, rid, _info in spans:
        if rid is not None and (name in _REQUEST_ROOTS or
                                name.startswith("protocol.")):
            server_ms[rid] = server_ms.get(rid, 0.0) + (end - start) * 1e3
    http_self = [latency - server_ms[rid] for rid, latency in client.items()
                 if rid in server_ms]
    request_ids = {row[5] for row in spans
                   if row[2] in _REQUEST_ROOTS and row[5] is not None}
    reads = sum(1 for row in spans
                if row[2] == "catalog.read" and row[5] is not None)
    assemble = list(zip(dur.get("features.assemble", []),
                        info.get("features.assemble", [])))
    hits = info.get("service.cache_get", [])
    batch_predicts = [(row[4] - row[3]) * 1e3 for row in spans
                      if row[2] == "predict.predict" and
                      by_id.get(row[1], (0, 0, ""))[2] != "predict.rank"]
    sgns_ms = sum(dur.get("sgns", []))
    sgns_pairs = sum(v for v in info.get("sgns", []) if v is not None)
    gateway_total = sum(sum(dur.get(n, [])) for n in _REQUEST_ROOTS)
    gateway_self = sum(sum(self_ms.get(n, [])) for n in _REQUEST_ROOTS)
    unattributed = [v for n in _REQUEST_ROOTS for v in self_ms.get(n, [])]

    metrics = {
        "http.self_ms.p50": _pct(http_self, 50),
        "protocol.decode_us.p50": p50("protocol.decode", 1e3),
        "protocol.encode_us.p50": p50("protocol.encode", 1e3),
        "protocol.response_bytes.mean": mean(info.get("protocol.encode", [])),
        "gateway.rank_ms.p50": p50("gateway.rank"),
        "gateway.rank_ms.p99": _pct(dur.get("gateway.rank", []), 99),
        "gateway.score_batch_ms.p50": p50("gateway.score_batch"),
        "gateway.compare_ms.p50": p50("gateway.compare"),
        "gateway.self_ms.p50": self_p50(_REQUEST_ROOTS),
        "router.self_ms.p50": self_p50(["router.rank", "router.score_batch"]),
        "service.cache_get_us.p50": p50("service.cache_get", 1e3),
        "service.hit_ratio": (sum(1 for h in hits if h is True) / len(hits)
                              if hits else 0.0),
        "service.load_or_fit_ms.p50": p50("service.load_or_fit"),
        "service.refresh_ms.p50": p50("service.refresh"),
        "predict.rank_ms.p50": p50("predict.rank"),
        "predict.batch_ms.p50": _pct(batch_predicts, 50),
        "features.assemble_fit_ms.p50": _pct(
            [d for d, fit in assemble if fit is True], 50),
        "features.assemble_predict_ms.p50": _pct(
            [d for d, fit in assemble if fit is False], 50),
        "catalog.reads_per_request": (reads / len(request_ids)
                                      if request_ids else 0.0),
        "catalog.write_us.p50": p50("catalog.write", 1e3),
        "catalog.dirty_nodes.mean": mean(info.get("catalog.dirty_nodes", [])),
        "graph.build_ms.p50": p50("graph.build"),
        "walks.ms.p50": p50("walks"),
        "walks.steps": float(sum(v for v in info.get("walks", [])
                                 if isinstance(v, int))),
        "sgns.ms.p50": p50("sgns"),
        "sgns.pairs": float(sgns_pairs),
        "sgns.pairs_per_s": sgns_pairs / (sgns_ms / 1e3) if sgns_ms else 0.0,
        "predictor.fit_ms.p50": p50("predictor.fit"),
        "predictor.predict_us.p50": p50("predictor.predict", 1e3),
        "artifact.pack_ms.p50": p50("artifact.pack"),
        "artifact.unpack_ms.p50": p50("artifact.unpack"),
        "artifact.bytes.mean": mean(info.get("artifact.pack", [])),
        "registry.save_ms.p50": p50("registry.save"),
        "registry.load_ms.p50": p50("registry.load"),
        "registry.load_errors": float(sum(
            1 for v in info.get("registry.load", []) if isinstance(v, str))),
        "zoo.load_ms": sum(dur.get("zoo.load", [])),
        "trace.coverage_pct": (100.0 * (1.0 - gateway_self / gateway_total)
                               if gateway_total else 0.0),
        "trace.unattributed_ms.p50": _pct(unattributed, 50),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = float(len(dur.get(name, [])))

    # text report: calls, p50/p95 and self time per span name
    lines = [f"{'span':<22}{'calls':>8}{'p50 ms':>10}{'p95 ms':>10}"
             f"{'self p50':>10}{'self total s':>14}"]
    breakdown = {}
    totals = {}
    for name in SPAN_NAMES + (["http"] if http_self else []):
        values = http_self if name == "http" else dur.get(name, [])
        selfs = http_self if name == "http" else self_ms.get(name, [])
        if not values:
            continue
        row = {"calls": len(values), "p50_ms": _pct(values, 50),
               "p95_ms": _pct(values, 95), "self_p50_ms": _pct(selfs, 50),
               "self_total_s": float(sum(selfs)) / 1e3}
        breakdown[name] = row
        totals[name] = row["self_total_s"]
        lines.append(f"{name:<22}{row['calls']:>8}{row['p50_ms']:>10.3f}"
                     f"{row['p95_ms']:>10.3f}{row['self_p50_ms']:>10.3f}"
                     f"{row['self_total_s']:>14.3f}")
    lines.append(f"gateway time {gateway_total / 1e3:.3f} s, "
                 f"{metrics['trace.coverage_pct']:.1f}% under named layers; "
                 f"unattributed (gateway self) {gateway_self / 1e3:.3f} s")
    if totals:
        top = max((n for n in totals if n != "http"), key=totals.get,
                  default=None)
        lines.append(f"largest self time: {top} "
                     f"({totals.get(top, 0.0):.3f} s of "
                     f"{elapsed_s:.1f} s measured)")
        breakdown["largest_self"] = top
    return metrics, lines, breakdown
