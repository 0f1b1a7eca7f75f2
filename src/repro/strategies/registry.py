"""String-keyed strategy registry: ``get_strategy("tg:lr,n2v,all")``.

Spec grammar (case-insensitive; canonical form is lowercase):

========================  ==============================================
spec                      strategy
========================  ==============================================
``tg``                    TransferGraph with config defaults
``tg:PRED``               … with predictor ``PRED`` (lr/rf/xgb/tree)
``tg:PRED,LEARNER``       … and graph learner (n2v/n2v+/sage/gat, full
                          registry names also accepted)
``tg:PRED,LEARNER,FEAT``  … and feature set: ``all`` (metadata +
                          similarity + graph) or ``graph`` (graph only)
``lr`` / ``lr:basic``     Amazon LR (metadata only)
``lr:all``                LR{all} (+ dataset similarity)
``lr:all+logme``          LR{all,LogME} (+ LogME feature)
``logme`` … ``hscore``    transferability-only ranker (any estimator in
                          :data:`repro.transferability.ESTIMATORS`)
``random`` / ``random:N`` uniform scores, seed N
========================  ==============================================

``tg``/``lr`` specs accept keyword overrides applied to the underlying
:class:`~repro.core.TransferGraphConfig`; the spec remains the routing
key, the config fingerprint remains the artifact key.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.core.config import FeatureSet, TransferGraphConfig
from repro.strategies.base import SelectionStrategy
from repro.strategies.score_based import RandomStrategy, TransferabilityStrategy
from repro.strategies.transfer_graph import (
    LEARNER_ALIASES,
    LR_VARIANTS,
    TransferGraphStrategy,
)

__all__ = ["get_strategy", "resolve_strategy", "canonical_spec",
           "normalize_spec", "available_specs", "UnknownStrategyError"]

_FEATURE_TAGS = {"all": FeatureSet.everything, "graph": FeatureSet.graph_only}


class UnknownStrategyError(KeyError):
    """The request names a strategy this endpoint does not serve."""

    def __init__(self, spec: str, known: list[str]):
        super().__init__(
            f"unknown strategy {spec!r}; serving {sorted(known)}")
        self.spec = spec

    def __str__(self) -> str:  # KeyError str() wraps args in quotes
        return self.args[0]


def canonical_spec(spec: str) -> str:
    """Lower-cased, whitespace-stripped spec — the lookup key form."""
    return spec.strip().lower()


@lru_cache(maxsize=1024)
def normalize_spec(spec: str) -> str:
    """The fully-normalized spec of *any* accepted spelling.

    :func:`get_strategy` tolerates alias spellings (``tg:lr,node2vec,all``
    for ``tg:lr,n2v,all``, ``random:0`` for ``random``), so request
    routing must too: this resolves the spelling through the parser and
    returns the canonical spec the strategy registers under.  Specs that
    don't parse (custom strategy objects carry arbitrary specs) fall
    back to the plain :func:`canonical_spec` form.

    Memoised (bounded): spellings arrive per wire request, and resolving
    one builds a throwaway strategy object just to read its spec.
    """
    try:
        return get_strategy(spec).spec
    except UnknownStrategyError:
        return canonical_spec(spec)


def _transferability_metrics() -> list[str]:
    from repro.transferability import ESTIMATORS

    return sorted(ESTIMATORS)


def available_specs() -> list[str]:
    """Canonical specs of every registered strategy family/variant.

    TG specs are enumerated over the live predictor and graph-learner
    registries, so a new predictor is servable without touching this
    module.
    """
    from repro.graph import GRAPH_LEARNERS
    from repro.predictors import PREDICTORS
    from repro.strategies.transfer_graph import _LEARNER_TOKENS

    specs = [f"tg:{p},{_LEARNER_TOKENS.get(g, g)},{tag}"
             for p in sorted(PREDICTORS) for g in sorted(GRAPH_LEARNERS)
             for tag in sorted(_FEATURE_TAGS)]
    specs += [f"lr:{variant}" for variant in sorted(LR_VARIANTS)]
    specs += _transferability_metrics()
    specs += ["random"]
    return specs


def _tg_config(args: str) -> TransferGraphConfig:
    from repro.graph import GRAPH_LEARNERS
    from repro.predictors import PREDICTORS

    parts = [p.strip() for p in args.split(",")] if args else []
    if len(parts) > 3:
        raise UnknownStrategyError(f"tg:{args}", available_specs())
    defaults = TransferGraphConfig()
    predictor = parts[0] if len(parts) > 0 and parts[0] \
        else defaults.predictor
    learner = LEARNER_ALIASES.get(parts[1], parts[1]) \
        if len(parts) > 1 and parts[1] else defaults.graph_learner
    tag = parts[2] if len(parts) > 2 and parts[2] else "all"
    if predictor not in PREDICTORS or learner not in GRAPH_LEARNERS \
            or tag not in _FEATURE_TAGS:
        raise UnknownStrategyError(
            f"tg:{args}" if args else "tg", available_specs())
    return TransferGraphConfig(predictor=predictor, graph_learner=learner,
                               features=_FEATURE_TAGS[tag]())


def _lr_config(args: str) -> TransferGraphConfig:
    variant = args or "basic"
    if variant not in LR_VARIANTS:
        raise UnknownStrategyError(f"lr:{variant}", available_specs())
    feature_set, _ = LR_VARIANTS[variant]
    return TransferGraphConfig(predictor="lr", features=feature_set())


def _random_strategy(args: str) -> RandomStrategy:
    if not args:
        return RandomStrategy()
    try:
        seed = int(args)
    except ValueError:
        raise UnknownStrategyError(f"random:{args}",
                                   available_specs()) from None
    return RandomStrategy(seed=seed)


def get_strategy(spec: str, **tg_overrides) -> SelectionStrategy:
    """Instantiate a strategy from its spec string.

    ``tg_overrides`` are :class:`~repro.core.TransferGraphConfig` field
    overrides applied to the ``tg:``/``lr:`` families (ignored by
    strategies without a TG config).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise UnknownStrategyError(repr(spec), available_specs())
    key = canonical_spec(spec)
    family, _, args = key.partition(":")
    if family in ("tg", "lr"):
        config = _tg_config(args) if family == "tg" else _lr_config(args)
        return TransferGraphStrategy(replace(config, **tg_overrides))
    if family == "random":
        return _random_strategy(args)
    if not args and family in _transferability_metrics():
        return TransferabilityStrategy(metric=family)
    raise UnknownStrategyError(spec, available_specs())


def resolve_strategy(obj) -> SelectionStrategy:
    """Coerce a strategy-ish value into a :class:`SelectionStrategy`.

    Accepts a strategy instance (returned as-is), a spec string, a
    :class:`~repro.core.TransferGraphConfig` (the pre-redesign service
    and registry signature), or ``None`` (config defaults) — so every
    call site that used to take a config keeps working unchanged.
    """
    if obj is None:
        return TransferGraphStrategy()
    if isinstance(obj, SelectionStrategy):
        return obj
    if isinstance(obj, TransferGraphConfig):
        return TransferGraphStrategy(obj)
    if isinstance(obj, str):
        return get_strategy(obj)
    raise TypeError(
        f"cannot resolve a strategy from {type(obj).__name__!r}; expected "
        "a SelectionStrategy, TransferGraphConfig, spec string, or None")
