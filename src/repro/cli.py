"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build-zoo``   build (and cache) a model zoo
``rank``        rank zoo models for a target dataset (``--strategy`` picks
                any registered ranker; default TransferGraph)
``evaluate``    run the leave-one-out comparison of selection strategies
                (``--served`` runs it through an in-process gateway's
                ``/v1/compare`` engine and writes ``BENCH_compare.json``;
                ``--trace-out FILE`` adds one span trace per request as
                JSON lines)
``stats``       print catalog + graph statistics (Table II style)
``warmup``      pre-fit every target's pipeline into the artifact registry
``serve``       HTTP front door: a multi-namespace selection gateway on
                ``/v1/rank``, ``/v1/score_batch``, ``/v1/stats``,
                ``/v1/healthz``, ``/v1/metrics``; repeatable
                ``--strategy`` adds rankers to every namespace's
                strategy map; ``--log-json`` switches the per-request
                event log from human lines to JSON
``registry-gc`` sweep artifacts no live strategy/catalog can serve
                (``--gateway`` sweeps the namespace-sharded layout)
``analyze``     run the repo-specific static-analysis suite
                (:mod:`repro.analysis`): lock discipline, async-blocking,
                wire-schema drift, import layering, pickle boundary;
                ``--update-schema`` regenerates the committed protocol
                schema snapshot after additive protocol growth
``docs``        render/check the generated docs tree: ``--protocol``
                writes ``docs/protocol.md`` from the committed wire
                schema (``--check`` gates drift), ``--check-links``
                verifies relative links and CLI examples in
                ``docs/*.md`` + README, and markdown file names in the
                Python under ``src/``, ``benchmarks/``, ``examples/``

Strategy specs (see :mod:`repro.strategies`): ``tg:PRED,LEARNER,FEAT``,
``lr:basic|all|all+logme``, any transferability estimator (``logme``,
``leep``, ...), ``random[:SEED]``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

__all__ = ["main", "build_parser", "default_registry_dir",
           "default_gateway_registry_dir", "parse_namespace_spec"]


def default_registry_dir() -> Path:
    """Default artifact registry location (inside the zoo cache dir)."""
    from repro.zoo.cache import default_cache_dir

    return default_cache_dir() / "serving"


def default_gateway_registry_dir() -> Path:
    """Default root for the gateway's per-namespace registry shards.

    Deliberately distinct from :func:`default_registry_dir`: the gateway
    layout inserts a namespace directory level
    (``<root>/<namespace>/<strategy_fp>/<target>``), which the flat
    ``registry-gc`` sweep must not mistake for dead fingerprint
    namespaces — ``repro registry-gc --gateway`` sweeps this root with
    the shard-aware layout instead.
    """
    from repro.zoo.cache import default_cache_dir

    return default_cache_dir() / "serving_namespaces"


class _TraceFileSink:
    """``--trace-out`` sink: one finished-trace record per JSON line."""

    def __init__(self, path: Path):
        import threading

        self.path = Path(path)
        if self.path.parent != Path():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()
        self.count = 0

    def __call__(self, record: dict) -> None:
        import json

        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._handle.write(line + "\n")
            self.count += 1

    def close(self) -> None:
        with self._lock:
            self._handle.close()


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _host_port(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError("expected HOST:PORT")
    try:
        n = int(port)
    except ValueError:
        raise argparse.ArgumentTypeError("PORT must be an integer") from None
    if not (0 <= n <= 65535):
        raise argparse.ArgumentTypeError("PORT must be in [0, 65535]")
    return host, n


def _predictor_choices() -> tuple[str, ...]:
    from repro.predictors import PREDICTORS

    return tuple(sorted(PREDICTORS))


def _graph_learner_choices() -> tuple[str, ...]:
    from repro.graph import GRAPH_LEARNERS

    return tuple(sorted(GRAPH_LEARNERS))


def _analysis_rule_choices() -> tuple[str, ...]:
    from repro.analysis import all_rules

    return tuple(cls.id for cls in all_rules())


def _repo_root() -> Path:
    """The checkout root (two levels above the ``repro`` package)."""
    return Path(__file__).resolve().parents[2]


def _strategy_spec(value: str) -> str:
    """argparse type for ``--strategy``: validate the spec, keep the string."""
    from repro.strategies import UnknownStrategyError, get_strategy

    try:
        get_strategy(value)
    except UnknownStrategyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


_SCALES = ("tiny", "small", "default")


def _scale_presets() -> dict:
    """scale name -> ZooConfig preset constructor (single source)."""
    from repro.zoo import ZooConfig

    return {"tiny": ZooConfig.tiny, "small": ZooConfig.small,
            "default": ZooConfig.default}


def parse_namespace_spec(spec: str) -> tuple[str, str, str | None]:
    """``NAME=MODALITY[:SCALE]`` -> (name, modality, scale or None).

    Examples: ``image=image``, ``text-tiny=text:tiny``.  A missing
    ``:SCALE`` yields ``None`` so ``serve`` can fall back to the global
    ``--scale`` flag.  The name is validated against the gateway's slug
    rule here so a bad one is a clean argparse error, not a ValueError
    traceback at startup.
    """
    from repro.serving.gateway import _NAMESPACE_NAME

    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise argparse.ArgumentTypeError(
            f"namespace spec {spec!r} must look like NAME=MODALITY[:SCALE]")
    if not _NAMESPACE_NAME.fullmatch(name):
        raise argparse.ArgumentTypeError(
            f"namespace spec {spec!r}: name must match "
            f"{_NAMESPACE_NAME.pattern!r}")
    modality, _, scale = rest.partition(":")
    if modality not in ("image", "text"):
        raise argparse.ArgumentTypeError(
            f"namespace spec {spec!r}: modality must be 'image' or 'text'")
    if scale and scale not in _SCALES:
        raise argparse.ArgumentTypeError(
            f"namespace spec {spec!r}: scale must be one of "
            f"{', '.join(_SCALES)}")
    return name, modality, scale or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TransferGraph reproduction — model selection with a "
                    "model zoo via graph learning (ICDE 2024)",
    )
    parser.add_argument("--modality", choices=("image", "text"),
                        default="image")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("tiny", "small", "default"),
                        default="small", help="zoo size preset")
    sub = parser.add_subparsers(dest="command", required=True)

    # Strategy choices come from the live registries, so new predictors
    # or graph learners appear here without touching the CLI.
    predictors = _predictor_choices()
    learners = _graph_learner_choices()

    def add_strategy_args(p: argparse.ArgumentParser,
                          strategy_flag: bool = True) -> None:
        p.add_argument("--predictor", choices=predictors, default="xgb")
        p.add_argument("--graph-learner", default="node2vec",
                       choices=learners)
        if strategy_flag:
            p.add_argument("--strategy", type=_strategy_spec, default=None,
                           metavar="SPEC",
                           help="serve this strategy instead of the classic "
                                "TransferGraph built from --predictor/"
                                "--graph-learner (e.g. tg:lr,n2v,all, "
                                "lr:all+logme, logme, random)")

    def add_registry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--registry-dir", type=Path, default=None,
                       help="artifact registry root "
                            "(default: <zoo cache>/serving)")

    sub.add_parser("build-zoo", help="build and cache the zoo")

    rank = sub.add_parser("rank", help="rank models for a target dataset")
    rank.add_argument("target", help="target dataset name, e.g. stanfordcars")
    rank.add_argument("--top", type=_positive_int, default=5)
    add_strategy_args(rank)
    add_registry_arg(rank)
    rank.add_argument("--no-registry", action="store_true",
                      help="fit in memory only; skip the artifact registry")

    evaluate = sub.add_parser("evaluate",
                              help="LOO comparison of selection strategies")
    add_strategy_args(evaluate, strategy_flag=False)
    evaluate.add_argument("--served", action="store_true",
                          help="compare through an in-process serving "
                               "gateway (the /v1/compare engine) instead "
                               "of the offline LOO harness, and write a "
                               "machine-readable benchmark report")
    evaluate.add_argument("--strategy", action="append", dest="strategies",
                          type=_strategy_spec, metavar="SPEC",
                          help="add this strategy to the served comparison "
                               "map (repeatable; --served only); the "
                               "TransferGraph from --predictor/"
                               "--graph-learner is always compared")
    evaluate.add_argument("--reference", type=_strategy_spec, default=None,
                          metavar="SPEC",
                          help="strategy correlations/overlap are computed "
                               "against (--served only; default: the "
                               "TransferGraph from --predictor)")
    evaluate.add_argument("--top-k", type=_positive_int, default=3,
                          dest="top_k",
                          help="overlap depth for the served comparison")
    evaluate.add_argument("--output", type=Path, default=None,
                          help="served-report path (--served only; "
                               "default: ./BENCH_compare.json)")
    evaluate.add_argument("--trace-out", type=Path, default=None,
                          metavar="FILE",
                          help="write each served request's trace (with "
                               "fit-stage spans) as JSON lines "
                               "(--served only)")

    sub.add_parser("stats", help="catalog and graph statistics")

    warmup = sub.add_parser(
        "warmup", help="pre-fit all targets into the artifact registry")
    add_strategy_args(warmup)
    add_registry_arg(warmup)

    serve = sub.add_parser(
        "serve", help="HTTP front door over a multi-namespace gateway")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--namespace", action="append", dest="namespaces",
                       type=parse_namespace_spec, metavar="NAME=MODALITY[:SCALE]",
                       help="serve this namespace (repeatable); default: "
                            "one namespace named after --modality")
    add_strategy_args(serve, strategy_flag=False)
    serve.add_argument("--strategy", action="append", dest="strategies",
                       type=_strategy_spec, metavar="SPEC",
                       help="add this strategy to every namespace's map "
                            "(repeatable); the classic TransferGraph from "
                            "--predictor/--graph-learner stays the default "
                            "answering requests without a strategy field")
    serve.add_argument("--registry-dir", type=Path, default=None,
                       help="gateway registry root, sharded per namespace "
                            "(default: <zoo cache>/serving_namespaces)")
    serve.add_argument("--cache-size", type=_positive_int, default=32,
                       help="per-namespace in-memory LRU capacity")
    serve.add_argument("--max-pending-fits", type=_positive_int, default=8,
                       help="cold-fit queue bound of each namespace and "
                            "strategy; a cold request beyond it is shed "
                            "with 429 queue_full")
    serve.add_argument("--fit-workers", type=_positive_int, default=2,
                       help="parallel cold fits per strategy: one pool of "
                            "this many threads per strategy, shared by "
                            "every namespace; with --fleet-listen, this "
                            "many threads per namespace and strategy that "
                            "wait on fleet fits")
    serve.add_argument("--fleet-listen", type=_host_port, default=None,
                       metavar="HOST:PORT",
                       help="run a fit-fleet coordinator on this address "
                            "and send every cold fit to the 'repro "
                            "fit-worker' daemons that connect to it (PORT "
                            "0 binds an ephemeral port; bind beyond "
                            "loopback only with --fleet-secret or on a "
                            "trusted network); default: fit on this "
                            "process's threads")
    serve.add_argument("--fleet-secret", default=None, metavar="SECRET",
                       help="shared fleet-auth secret: workers must "
                            "answer an HMAC challenge with the same "
                            "secret before they may register or "
                            "receive fits (--fleet-listen only; default: "
                            "$REPRO_FLEET_SECRET; unset accepts any client "
                            "that can reach --fleet-listen)")
    serve.add_argument("--fit-timeout", type=float, default=None,
                       dest="fit_timeout", metavar="SECONDS",
                       help="bound one cold fit (--fleet-listen only); an "
                            "overrunning fit sheds its coalesced group "
                            "with a typed error")
    serve.add_argument("--warmup", action="store_true",
                       help="pre-fit every namespace's targets before "
                            "accepting traffic (not with --fleet-listen)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one JSON event per request on stderr "
                            "instead of the human log line")
    serve.add_argument("--slow-ms", type=float, default=1000.0,
                       help="slow-request threshold in ms; slower "
                            "requests log their full span tree")

    fit_worker = sub.add_parser(
        "fit-worker",
        help="fleet fit daemon: register with a gateway's coordinator "
             "and serve cold fits over the socket protocol")
    fit_worker.add_argument("--connect", type=_host_port, required=True,
                            metavar="HOST:PORT",
                            help="fleet coordinator address (printed by "
                                 "'repro serve --fleet-listen')")
    fit_worker.add_argument("--name", default=None,
                            help="worker name shown in healthz/fleet "
                                 "summaries (default: <hostname>-<pid>)")
    fit_worker.add_argument("--concurrency", type=_positive_int, default=1,
                            help="fits this worker runs at once")
    fit_worker.add_argument("--fleet-secret", default=None, metavar="SECRET",
                            help="shared fleet-auth secret; must match "
                                 "the gateway's --fleet-secret (default: "
                                 "$REPRO_FLEET_SECRET)")

    gc = sub.add_parser(
        "registry-gc",
        help="sweep registry artifacts no live strategy/catalog can serve")
    add_strategy_args(gc)
    add_registry_arg(gc)
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    gc.add_argument("--only-strategy", action="store_true",
                    help="treat ONLY the --strategy (or --predictor/"
                         "--graph-learner) selection as live (default: "
                         "every strategy the CLI can currently serve)")
    gc.add_argument("--gateway", action="store_true",
                    help="sweep the gateway's namespace-sharded layout "
                         "(<root>/<namespace>/<strategy_fp>/<target>); "
                         "default root becomes the gateway registry dir. "
                         "Shards may serve different zoos, so this sweeps "
                         "dead strategies and crash partials only — never "
                         "catalog-stale artifacts")

    analyze = sub.add_parser(
        "analyze",
        help="run the repo-specific static-analysis suite "
             "(exit 0 clean, 1 findings)")
    analyze.add_argument("--rule", action="append", default=None,
                         choices=_analysis_rule_choices(), metavar="RULE",
                         help="run only this rule (repeatable; default: "
                              f"all of {', '.join(_analysis_rule_choices())})")
    analyze.add_argument("--format", choices=("human", "json"),
                         default="human", dest="fmt",
                         help="finding output format (default: human)")
    analyze.add_argument("--root", type=Path, default=None,
                         help="repository root to analyze "
                              "(default: this checkout)")
    analyze.add_argument("--update-schema", action="store_true",
                         help="regenerate benchmarks/baselines/"
                              "protocol_schema.json from serving/protocol.py "
                              "instead of checking")

    docs = sub.add_parser(
        "docs",
        help="render / check the generated docs tree "
             "(exit 0 clean, 1 drift or broken links)")
    docs.add_argument("--protocol", action="store_true",
                      help="render docs/protocol.md from the committed "
                           "wire-schema snapshot + fleet frame table")
    docs.add_argument("--check", action="store_true",
                      help="with --protocol: compare against the committed "
                           "doc instead of writing; exit 1 on drift")
    docs.add_argument("--check-links", action="store_true",
                      help="check docs/*.md + README: relative links "
                           "resolve, fenced CLI examples name real "
                           "subcommands; and *.md names in the Python "
                           "under src/, benchmarks/, examples/ exist")
    docs.add_argument("--root", type=Path, default=None,
                      help="repository root (default: this checkout)")
    return parser


def _load_zoo(args):
    from repro.zoo import get_or_build_zoo

    preset = _scale_presets()[args.scale]
    return get_or_build_zoo(preset(modality=args.modality, seed=args.seed))


def _cli_default_strategy(args):
    """The strategy a command serves or scores by default: its
    ``--strategy`` SPEC where it takes one, else the TransferGraph that
    ``--predictor``/``--graph-learner`` name.  ``serve``, ``evaluate``
    (offline and ``--served``), ``rank``, ``warmup`` and ``registry-gc``
    all build it here."""
    from repro.strategies import get_strategy

    spec = getattr(args, "strategy", None) \
        or f"tg:{args.predictor},{args.graph_learner},all"
    return get_strategy(spec)


def _extra_strategies(specs, default) -> list:
    """``--strategy``/``--reference`` specs as strategies, minus the
    default and duplicates."""
    from repro.strategies import get_strategy

    extras: list = []
    for spec in specs:
        strat = get_strategy(spec)
        if strat.spec != default.spec and \
                all(strat.spec != s.spec for s in extras):
            extras.append(strat)
    return extras


def _service(zoo, args, cache_size: int = 32):
    from repro.serving import ArtifactRegistry, SelectionService

    registry = None
    if not getattr(args, "no_registry", False):
        root = args.registry_dir or default_registry_dir()
        registry = ArtifactRegistry(root)
    return SelectionService(zoo, _cli_default_strategy(args),
                            registry=registry, cache_size=cache_size)


def _cmd_build_zoo(args) -> int:
    zoo = _load_zoo(args)
    print(f"zoo ready: {len(zoo.model_ids())} models, "
          f"{len(zoo.dataset_names())} datasets "
          f"({len(zoo.target_names())} targets)")
    return 0


def _cmd_rank(args) -> int:
    from repro.serving import RankRequest

    zoo = _load_zoo(args)
    if args.target not in zoo.target_names():
        print(f"error: unknown target {args.target!r}; "
              f"choose from {zoo.target_names()}", file=sys.stderr)
        return 2
    service = _service(zoo, args)
    # Same typed request/response pair the HTTP front door serves, so
    # the CLI cannot drift from the wire contract.
    response = service.handle(RankRequest(target=args.target,
                                          top_k=args.top))
    print(f"top {args.top} models for {response.target} "
          f"({service.strategy.name}):")
    for model_id, score in response.ranking:
        spec = zoo.model(model_id).spec
        print(f"  {model_id:<26} {score:+.3f}  "
              f"[{spec.family}, source={spec.pretrain_dataset}]")
    summary = service.stats()
    source = "cache" if summary["fits"] == 0 else "cold fit"
    print(f"  ({source}, {summary['p50_ms']:.1f} ms)")
    return 0


def _cmd_evaluate(args) -> int:
    if args.served:
        return _cmd_evaluate_served(args)
    from repro.core import evaluate_strategy
    from repro.strategies import RandomStrategy, get_strategy

    zoo = _load_zoo(args)
    strategies = [
        RandomStrategy(seed=args.seed),
        get_strategy("logme"),
        get_strategy("lr:all+logme"),
        _cli_default_strategy(args),
    ]
    print(f"{'strategy':<22}{'avg Pearson':>13}{'avg top-5 acc':>15}")
    for strategy in strategies:
        ev = evaluate_strategy(strategy, zoo)
        print(f"{strategy.name:<22}{ev.average_correlation():>+13.3f}"
              f"{ev.average_top_k_accuracy(5):>15.3f}")
    return 0


def _cmd_evaluate_served(args) -> int:
    """``evaluate --served``: the /v1/compare engine, offline.

    Spins a memory-only gateway in-process (one namespace, the requested
    strategy map), warms it, replays every target through the same
    ``compare`` entry point the HTTP front door serves, and writes the
    machine-readable ``BENCH_compare.json`` report the CI benchmark
    gate consumes.
    """
    from repro.obs import Observability
    from repro.serving import SelectionGateway, run_served_evaluation, \
        write_report

    zoo = _load_zoo(args)
    default_strategy = _cli_default_strategy(args)
    extras = _extra_strategies(
        [*(args.strategies or []),
         *([args.reference] if args.reference else [])], default_strategy)

    sink = None
    obs = None
    if args.trace_out:
        sink = _TraceFileSink(args.trace_out)
        obs = Observability()
        obs.add_trace_sink(sink)

    namespace = args.modality
    gateway = SelectionGateway(obs=obs)  # memory-only: the report must
    gateway.add_namespace(   # measure this run's fits, not a previous run's
        namespace, zoo, default_strategy, strategies=tuple(extras),
        cache_size=max(32, len(zoo.target_names())))
    print(f"served comparison: namespace {namespace!r}, strategies "
          f"{', '.join(gateway.strategies(namespace))} over "
          f"{len(zoo.target_names())} targets", flush=True)
    try:
        report = run_served_evaluation(
            gateway, namespace, reference=args.reference, top_k=args.top_k)
    finally:
        gateway.close()
        if sink is not None:
            sink.close()
            print(f"wrote {sink.count} traces to {sink.path}")

    reference = report["reference"]
    k = report["top_k"]
    print(f"reference {reference}, top-{k} overlap, "
          f"{report['wall_s']:.2f} s wall")
    print(f"{'strategy':<22}{'pearson':>9}{'spearman':>10}"
          f"{'overlap':>9}{'warm p95':>11}{'shed':>6}")
    for spec, row in report["strategies"].items():
        def cell(value, width=9):
            return f"{value:>+{width}.3f}" if value is not None \
                else " " * (width - 2) + "--"
        print(f"{spec:<22}{cell(row['mean_pearson'])}"
              f"{cell(row['mean_spearman'], 10)}"
              f"{cell(row['mean_top_k_overlap'])}"
              f"{row['warm_rank_p95_ms']:>9.2f}ms"
              f"{row['targets_shed']:>6d}")
    path = write_report(args.output or Path("BENCH_compare.json"), report)
    print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    from repro.graph import build_graph

    zoo = _load_zoo(args)
    print("catalog:", zoo.catalog.stats())
    graph, links = build_graph(zoo)
    for key, value in graph.stats().items():
        print(f"  {key:<34} {value:.1f}" if isinstance(value, float)
              else f"  {key:<34} {value}")
    print(f"  link examples: {len(links.positive)} positive / "
          f"{len(links.negative)} negative")
    return 0


def _cmd_warmup(args) -> int:
    zoo = _load_zoo(args)
    service = _service(zoo, args, cache_size=max(32, len(zoo.target_names())))
    print(f"warming {len(zoo.target_names())} targets into "
          f"{service.registry.root} ({service.strategy.name})")
    timings = service.warmup()
    for target, seconds in timings.items():
        print(f"  {target:<26} {seconds * 1e3:8.1f} ms")
    summary = service.stats()
    print(f"done: {summary['fits']:.0f} fitted, "
          f"{summary['registry_hits']:.0f} already in registry, "
          f"total {sum(timings.values()):.2f} s")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.obs import EventLog, Observability
    from repro.serving import GatewayHTTPServer, SelectionGateway
    from repro.zoo import get_or_build_zoo

    fleet_only = [flag for flag, value in (("--fit-timeout", args.fit_timeout),
                                           ("--fleet-secret", args.fleet_secret))
                  if value is not None]
    if fleet_only and args.fleet_listen is None:
        print(f"error: {' and '.join(fleet_only)} need --fleet-listen",
              file=sys.stderr)
        return 2
    if args.warmup and args.fleet_listen is not None:
        print("error: --warmup cannot run with --fleet-listen: no fit-worker "
              "can register before the warmup fits; warm the registry shards "
              "with 'repro serve --warmup' without --fleet-listen (same "
              "--registry-dir, namespaces and strategies), stop it, then "
              "start the fleet server, which revives those artifacts",
              file=sys.stderr)
        return 2
    specs = args.namespaces or [(args.modality, args.modality, args.scale)]
    names = [name for name, _, _ in specs]
    if len(set(names)) != len(names):
        print(f"error: duplicate namespace names in {names}",
              file=sys.stderr)
        return 2
    root = args.registry_dir or default_gateway_registry_dir()
    # One request event per line on stderr (human by default, --log-json
    # for machines); the same plane backs /v1/metrics.
    obs = Observability(event_log=EventLog(json_lines=args.log_json,
                                           slow_ms=args.slow_ms))
    fleet = None
    if args.fleet_listen is not None:
        from repro.fleet import FleetCoordinator

        secret = args.fleet_secret or os.environ.get("REPRO_FLEET_SECRET")
        fleet = FleetCoordinator(*args.fleet_listen, secret=secret, obs=obs)
        fleet_host, fleet_port = fleet.start()
        if secret is None and fleet_host not in ("127.0.0.1", "::1",
                                                 "localhost"):
            print(f"fleet: WARNING — listener {fleet_host}:{fleet_port} "
                  f"is unauthenticated; anyone who can reach it can join "
                  f"the fleet and feed fit results into this gateway. "
                  f"Set --fleet-secret / REPRO_FLEET_SECRET, or keep "
                  f"--fleet-listen on 127.0.0.1.", file=sys.stderr,
                  flush=True)
        auth = "" if secret is None else " --fleet-secret <same secret>"
        print(f"fleet: coordinator listening on "
              f"{fleet_host}:{fleet_port} — connect workers with "
              f"'repro fit-worker --connect {fleet_host}:{fleet_port}"
              f"{auth}'", flush=True)
    gateway = SelectionGateway(registry_root=root, obs=obs, fleet=fleet)
    presets = _scale_presets()
    default_strategy = _cli_default_strategy(args)
    extra_strategies = _extra_strategies(args.strategies or [],
                                         default_strategy)
    # One ModelZoo per distinct (modality, scale), handed to every
    # namespace that names it, just as a namespace's strategies share
    # its zoo: `serve` exposes no catalog write, so all they share is
    # deterministic derived fills (model-forward features, dataset
    # similarities, transferability scores).  Registry shards stay per
    # namespace.
    zoos: dict = {}
    for name, modality, scale in specs:
        scale = scale or args.scale  # spec omitted :SCALE -> --scale
        if (modality, scale) not in zoos:
            zoos[modality, scale] = get_or_build_zoo(
                presets[scale](modality=modality, seed=args.seed))
        zoo = zoos[modality, scale]
        gateway.add_namespace(
            name, zoo, default_strategy,
            strategies=extra_strategies,
            cache_size=args.cache_size,
            max_pending_fits=args.max_pending_fits,
            fit_workers=args.fit_workers,
            fit_timeout_s=args.fit_timeout)
        print(f"namespace {name!r}: {modality}/{scale} zoo, "
              f"{len(zoo.model_ids())} models, "
              f"{len(zoo.target_names())} targets, "
              f"strategies: {', '.join(gateway.strategies(name))} "
              f"(registry shard {root / name})",
              flush=True)

    async def run() -> None:
        # SIGTERM takes the path asyncio gives Ctrl-C: cancelling this
        # task makes serve_forever close the server, which answers the
        # requests in flight before gateway.close() runs below.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        if args.warmup:  # before binding: no traffic races the warmup
            print("warming namespaces ...", flush=True)
            await gateway.warmup()
        server = GatewayHTTPServer(gateway, args.host, args.port)
        host, port = await server.start()
        example = gateway.namespaces()[0]
        target = gateway.service(example).zoo.target_names()[0]
        print(f"serving on http://{host}:{port} (protocol v1, "
              f"namespaces: {', '.join(gateway.namespaces())})", flush=True)
        print(f"  curl http://{host}:{port}/v1/healthz", flush=True)
        print(f"  curl http://{host}:{port}/v1/metrics", flush=True)
        print(f"  curl -X POST http://{host}:{port}/v1/rank -d "
              f"'{{\"namespace\": \"{example}\", \"target\": \"{target}\", "
              f"\"top_k\": 5}}'", flush=True)
        if extra_strategies:
            print(f"  curl -X POST http://{host}:{port}/v1/rank -d "
                  f"'{{\"namespace\": \"{example}\", \"target\": "
                  f"\"{target}\", \"strategy\": "
                  f"\"{extra_strategies[0].spec}\"}}'", flush=True)
        print(f"  curl -X POST http://{host}:{port}/v1/compare -d "
              f"'{{\"namespace\": \"{example}\", \"target\": "
              f"\"{target}\"}}'", flush=True)
        await server.serve_forever()  # closes the server when cancelled

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down")
    finally:
        gateway.close()
    return 0


def _cmd_fit_worker(args) -> int:
    import asyncio

    from repro.fleet import FitPlaneError, FitWorker

    host, port = args.connect
    worker = FitWorker(host, port, name=args.name,
                       concurrency=args.concurrency,
                       secret=(args.fleet_secret
                               or os.environ.get("REPRO_FLEET_SECRET")),
                       echo=lambda line: print(line, flush=True))
    print(f"fit-worker {worker.name!r}: connecting to {host}:{port} "
          f"(concurrency {args.concurrency})", flush=True)
    try:
        asyncio.run(worker.run())
    except ConnectionError as exc:
        print(f"fit-worker: connection failed: {exc}", file=sys.stderr)
        return 1
    except FitPlaneError as exc:
        print(f"fit-worker: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    print(f"fit-worker {worker.name!r}: coordinator gone, exiting "
          f"({worker.fits_done} fits served)", flush=True)
    return 0


def _cmd_registry_gc(args) -> int:
    from repro.serving import ArtifactRegistry

    if args.gateway:
        # Gateway shards may serve different zoos per namespace
        # (--namespace NAME=MODALITY[:SCALE]); one catalog fingerprint
        # cannot judge staleness across them, so the sharded sweep only
        # removes dead fingerprints and crash partials.
        zoo = None
        root = args.registry_dir or default_gateway_registry_dir()
        layout = "namespaces"
    else:
        zoo = _load_zoo(args)
        root = args.registry_dir or default_registry_dir()
        layout = "flat"
    registry = ArtifactRegistry(root)
    if args.only_strategy:
        live = [_cli_default_strategy(args)]
        scope = live[0].name
    else:
        from repro.strategies import available_specs, get_strategy

        # Anything the CLI can still serve is live: artifacts warmed
        # under a *different* strategy than today's flags must survive
        # a sweep, or the next query under that strategy refits.  The
        # enumerable roster can't cover parameterized specs (random:N),
        # so an explicit --strategy joins it.
        live = [get_strategy(spec) for spec in available_specs()]
        if args.strategy:
            live.append(get_strategy(args.strategy))
        scope = f"all {len(live)} servable strategies"
    report = registry.gc(live, zoo, dry_run=args.dry_run, layout=layout)
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"registry-gc {root} "
          f"(live: {scope}"
          f"{', gateway layout' if args.gateway else ''}"
          f"{', dry run' if args.dry_run else ''})")
    print(f"  namespaces removed {report['namespaces_removed']:6d}")
    print(f"  artifacts removed  {report['artifacts_removed']:6d}")
    print(f"  artifacts kept     {report['artifacts_kept']:6d}")
    print(f"  {verb:<18} {report['bytes_reclaimed'] / 1024:6.1f} KiB")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis import (AnalysisError, Project, SNAPSHOT_PATH,
                                extract_schema, format_findings, run_analysis)

    root = args.root or _repo_root()
    try:
        if args.update_schema:
            schema = extract_schema(Project(root))
            path = Path(root) / SNAPSHOT_PATH
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"analyze: wrote {path}")
            return 0
        findings = run_analysis(root, args.rule)
    except AnalysisError as exc:
        print(f"analyze: error: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, args.fmt))
    return 1 if findings else 0


def _cmd_docs(args) -> int:
    from repro.docs import check_links, check_protocol_doc, write_protocol_doc

    root = args.root or _repo_root()
    if not (args.protocol or args.check_links):
        print("error: nothing to do; pass --protocol and/or --check-links",
              file=sys.stderr)
        return 2
    problems: list[str] = []
    if args.protocol:
        if args.check:
            problems.extend(check_protocol_doc(root))
        else:
            print(f"docs: wrote {write_protocol_doc(root)}")
    if args.check_links:
        problems.extend(check_links(root))
    for problem in problems:
        print(f"docs: {problem}", file=sys.stderr)
    if not problems and (args.check or args.check_links):
        print("docs: clean")
    return 1 if problems else 0


_COMMANDS = {
    "build-zoo": _cmd_build_zoo,
    "rank": _cmd_rank,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "warmup": _cmd_warmup,
    "serve": _cmd_serve,
    "fit-worker": _cmd_fit_worker,
    "registry-gc": _cmd_registry_gc,
    "analyze": _cmd_analyze,
    "docs": _cmd_docs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
