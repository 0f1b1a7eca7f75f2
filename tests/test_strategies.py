"""The unified SelectionStrategy API: registry, parity, serving."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import FeatureSet, TransferGraphConfig
from repro.serving import (
    ArtifactRegistry,
    RankRequest,
    ScoreBatchRequest,
    SelectionGateway,
    SelectionService,
)
from repro.strategies import (
    FittedScoreTable,
    RandomStrategy,
    TransferabilityStrategy,
    TransferGraphStrategy,
    UnknownStrategyError,
    available_specs,
    get_strategy,
    resolve_strategy,
    spec_for_config,
)


def run(coro):
    return asyncio.run(coro)


#: cheap TG override so fits stay fast on the tiny zoo
TG_OVERRIDES = {"embedding_dim": 16}

#: one spec per strategy family — the parity roster
PARITY_SPECS = ("tg:lr,n2v,all", "lr:basic", "lr:all+logme", "logme",
                "leep", "random:7")


class TestRegistryLookup:
    def test_specs_resolve_to_canonical_strategies(self):
        assert get_strategy("tg").spec == "tg:lr,n2v,all"
        assert get_strategy("TG:LR,N2V,ALL").spec == "tg:lr,n2v,all"
        assert get_strategy("tg:xgb").spec == "tg:xgb,n2v,all"
        assert get_strategy("tg:rf,node2vec+,graph").spec == "tg:rf,n2v+,graph"
        assert get_strategy("lr").spec == "lr:basic"
        assert get_strategy("lr:all+logme").name == "LR{all,LogME}"
        assert get_strategy("logme").name == "LogME"
        assert get_strategy("random").spec == "random"
        assert get_strategy("random:3").seed == 3

    def test_unknown_specs_raise_typed_error(self):
        for bad in ("nope", "tg:nope", "tg:lr,nope", "tg:lr,n2v,nope",
                    "lr:huge", "random:xyz", "logme:extra", "", "   "):
            with pytest.raises(UnknownStrategyError):
                get_strategy(bad)

    def test_tg_overrides_change_fingerprint_not_spec(self):
        plain = get_strategy("tg:lr,n2v,all")
        small = get_strategy("tg:lr,n2v,all", embedding_dim=16)
        assert plain.spec == small.spec
        assert plain.fingerprint() != small.fingerprint()
        assert small.config.embedding_dim == 16

    def test_overrides_ignored_by_non_tg_families(self):
        assert get_strategy("logme", embedding_dim=16).metric == "logme"

    def test_available_specs_all_resolve(self):
        specs = available_specs()
        assert len(specs) == len(set(specs))
        for spec in specs:
            assert get_strategy(spec).spec == spec

    def test_resolve_strategy_accepts_legacy_config(self):
        config = TransferGraphConfig(predictor="rf")
        strategy = resolve_strategy(config)
        assert isinstance(strategy, TransferGraphStrategy)
        assert strategy.config is config
        assert resolve_strategy(strategy) is strategy
        with pytest.raises(TypeError):
            resolve_strategy(42)

    def test_spec_for_config_maps_lr_baselines(self):
        assert spec_for_config(TransferGraphConfig(
            predictor="lr", features=FeatureSet.basic())) == "lr:basic"
        assert spec_for_config(TransferGraphConfig(
            predictor="lr", features=FeatureSet.all_logme())) == "lr:all+logme"
        assert spec_for_config(TransferGraphConfig()) == "tg:lr,n2v,all"
        # non-lr predictors without graph features are not LR baselines
        assert spec_for_config(TransferGraphConfig(
            predictor="xgb",
            features=FeatureSet.basic())) == "tg:xgb,n2v,all"

    def test_fingerprints_are_pairwise_distinct(self):
        strategies = [get_strategy(spec, **TG_OVERRIDES)
                      for spec in PARITY_SPECS]
        fingerprints = [s.fingerprint() for s in strategies]
        assert len(set(fingerprints)) == len(fingerprints)


#: registry keys of what ``repro serve --predictor lr --strategy lr:all
#: --strategy logme`` serves; see TestServedDefault before changing one
SERVED_FINGERPRINTS = {
    "tg:lr,n2v,all": "70f9fb9b7b2c583f723b",
    "lr:all": "60407e919d7263ed03e1",
    "logme": "62ae3b934bca1fd973dc",
}


class TestServedDefault:
    """One TransferGraph default: the library, ``repro serve`` and
    ``repro evaluate`` all build the configuration that is served.

    The fingerprint literals are the directory names under which every
    deployed registry of ``repro serve --predictor lr --strategy lr:all
    --strategy logme`` stores its artifacts.  Changing one (a config
    field, a default, the digest rule) makes every such registry refit
    from cold, so a change here must be deliberate and announced.
    """

    def test_library_default_is_the_served_config(self):
        assert TransferGraphConfig().embedding_dim == 32
        assert TransferGraphStrategy().fingerprint() == \
            SERVED_FINGERPRINTS["tg:lr,n2v,all"]

    def test_served_fingerprints_are_pinned(self):
        assert {spec: get_strategy(spec).fingerprint()
                for spec in SERVED_FINGERPRINTS} == SERVED_FINGERPRINTS

    def test_serve_and_evaluate_build_the_library_default(self, monkeypatch,
                                                          tmp_path):
        """The strategy ``serve --predictor lr`` registers by default,
        the TG that ``evaluate --predictor lr`` scores (offline and
        ``--served``) and ``get_strategy("tg:lr,n2v,all")`` share one
        fingerprint."""
        import repro.core
        import repro.zoo
        from repro.cli import main

        class Registered(Exception):
            pass

        registered, scored = [], []

        def add_namespace(self, name, zoo, strategy=None, **kwargs):
            registered.append(strategy)
            raise Registered

        class Zoo:
            def target_names(self):
                return ["t0"]

        class Evaluation:
            def average_correlation(self):
                return 0.0

            def average_top_k_accuracy(self, k):
                return 0.0

        def evaluate_strategy(strategy, zoo, **kwargs):
            scored.append(strategy)
            return Evaluation()

        monkeypatch.setattr(SelectionGateway, "add_namespace", add_namespace)
        monkeypatch.setattr(repro.zoo, "get_or_build_zoo", lambda config: Zoo())
        monkeypatch.setattr(repro.core, "evaluate_strategy", evaluate_strategy)
        for command in (["serve", "--port", "0", "--registry-dir",
                         str(tmp_path)], ["evaluate", "--served"]):
            with pytest.raises(Registered):
                main(["--scale", "tiny", *command, "--predictor", "lr"])
        assert main(["--scale", "tiny", "evaluate", "--predictor", "lr"]) == 0

        scored_tg = [s for s in scored if s.spec.startswith("tg:")]
        assert (len(registered), len(scored_tg)) == (2, 1)
        assert {s.fingerprint()
                for s in [*registered, *scored_tg,
                          get_strategy("tg:lr,n2v,all")]} == \
            {SERVED_FINGERPRINTS["tg:lr,n2v,all"]}


class TestPackUnpackParity:
    """Satellite acceptance: every strategy family round-trips pack →
    unpack through the registry with identical rank() output."""

    @pytest.mark.parametrize("spec", PARITY_SPECS)
    def test_registry_roundtrip_rank_identical(self, spec, tiny_image_zoo,
                                               tmp_path):
        zoo = tiny_image_zoo
        strategy = get_strategy(spec, **TG_OVERRIDES)
        target = zoo.target_names()[0]
        fitted = strategy.fit(zoo, target)

        registry = ArtifactRegistry(tmp_path)
        registry.save(fitted, strategy, zoo)
        assert registry.contains(target, strategy)
        revived = registry.load(target, strategy, zoo)

        ids = zoo.model_ids()
        assert np.array_equal(fitted.predict(ids), revived.predict(ids))
        assert fitted.rank(ids) == revived.rank(ids)

    def test_score_table_artifact_rejects_other_strategy(self,
                                                         tiny_image_zoo,
                                                         tmp_path):
        """logme's artifact must never revive as leep's."""
        from repro.serving import ArtifactNotFoundError

        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        logme = get_strategy("logme")
        registry = ArtifactRegistry(tmp_path)
        registry.save(logme.fit(zoo, target), logme, zoo)
        with pytest.raises(ArtifactNotFoundError):
            registry.load(target, get_strategy("leep"), zoo)

    def test_score_table_catalog_staleness_detected(self, tiny_image_zoo,
                                                    tmp_path):
        from repro.serving import StaleArtifactError

        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        strategy = get_strategy("random")
        registry = ArtifactRegistry(tmp_path)
        registry.save(strategy.fit(zoo, target), strategy, zoo)

        model_id = zoo.model_ids()[0]
        row = zoo.catalog.history.get_or_none(model_id, target, "finetune")
        zoo.catalog.record_history(model_id, target, row["accuracy"] + 0.01,
                                   epochs=row["epochs"])
        try:
            with pytest.raises(StaleArtifactError):
                registry.load(target, strategy, zoo)
        finally:
            zoo.catalog.record_history(model_id, target, row["accuracy"],
                                       epochs=row["epochs"])
        registry.load(target, strategy, zoo)


class TestNoHistoryFastPath:
    def test_transferability_fit_is_a_score_table(self, tiny_image_zoo):
        strategy = TransferabilityStrategy("logme")
        assert strategy.requires_history is False
        target = tiny_image_zoo.target_names()[0]
        fitted = strategy.fit(tiny_image_zoo, target)
        assert isinstance(fitted, FittedScoreTable)
        assert set(fitted.scores) == set(tiny_image_zoo.model_ids())

    def test_transferability_matches_catalog_scores(self, tiny_image_zoo):
        """The fast path serves exactly the catalog's estimator column."""
        zoo = tiny_image_zoo
        target = zoo.target_names()[1]
        fitted = TransferabilityStrategy("logme").fit(zoo, target)
        for model_id in zoo.model_ids():
            cached = zoo.catalog.get_transferability(model_id, target,
                                                     metric="logme")
            assert cached is not None
            assert fitted.scores[model_id] == pytest.approx(cached)

    def test_random_is_deterministic_per_seed_target(self, tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        a = RandomStrategy(seed=3).fit(tiny_image_zoo, target)
        b = RandomStrategy(seed=3).fit(tiny_image_zoo, target)
        c = RandomStrategy(seed=4).fit(tiny_image_zoo, target)
        assert a.scores == b.scores
        assert a.scores != c.scores

    def test_rank_sorts_best_first_with_id_tiebreak(self):
        fitted = FittedScoreTable(target="t", scores={"b": 1.0, "a": 1.0,
                                                      "c": 2.0})
        assert fitted.rank(["a", "b", "c"]) == [("c", 2.0), ("a", 1.0),
                                                ("b", 1.0)]


class TestServedStrategies:
    """Acceptance: three strategy families through one gateway, and the
    wire form stays byte-identical to the in-process one per strategy."""

    @pytest.fixture()
    def multi_gateway(self, tiny_image_zoo, tmp_path):
        default = TransferGraphStrategy(TransferGraphConfig(
            predictor="lr", embedding_dim=16,
            features=FeatureSet.everything()))
        gateway = SelectionGateway(registry_root=tmp_path)
        gateway.add_namespace(
            "image", tiny_image_zoo, default,
            strategies=(get_strategy("lr:basic", **TG_OVERRIDES),
                        get_strategy("logme"),
                        get_strategy("random")))
        yield gateway
        gateway.close()

    def test_three_families_one_gateway(self, multi_gateway, tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        rankings = {}
        for spec in (None, "lr:basic", "logme", "random"):
            response = run(multi_gateway.rank(RankRequest(
                target=target, namespace="image", strategy=spec)))
            assert response.strategy == spec
            rankings[spec] = response.ranking
        # different families genuinely answer differently
        orders = {tuple(m for m, _ in r) for r in rankings.values()}
        assert len(orders) >= 2

    def test_wire_equals_in_process_per_strategy(self, multi_gateway,
                                                 tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        for spec in (None, "lr:basic", "logme", "random"):
            request = RankRequest(target=target, namespace="image",
                                  strategy=spec, top_k=3)
            via_gateway = run(multi_gateway.handle(request)).to_json()
            in_process = multi_gateway.service(
                "image", spec).handle(request).to_json()
            assert via_gateway == in_process

    def test_omitted_strategy_is_byte_stable(self, multi_gateway,
                                             tiny_image_zoo):
        """No-strategy responses must not grow a strategy key."""
        target = tiny_image_zoo.target_names()[0]
        response = run(multi_gateway.rank(RankRequest(target=target,
                                                      namespace="image")))
        assert '"strategy"' not in response.to_json()

    def test_unknown_strategy_is_typed(self, multi_gateway, tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        with pytest.raises(UnknownStrategyError) as exc_info:
            run(multi_gateway.rank(RankRequest(target=target,
                                               namespace="image",
                                               strategy="leep")))
        assert exc_info.value.spec == "leep"
        assert "logme" in str(exc_info.value)

    def test_score_batch_routes_by_strategy(self, multi_gateway,
                                            tiny_image_zoo):
        zoo = tiny_image_zoo
        target = zoo.target_names()[0]
        pairs = tuple((m, target) for m in zoo.model_ids()[:2])
        response = run(multi_gateway.score_batch(ScoreBatchRequest(
            pairs=pairs, namespace="image", strategy="logme")))
        expected = [zoo.catalog.get_transferability(m, target, metric="logme")
                    for m, _ in pairs]
        assert list(response.scores) == pytest.approx(expected)

    def test_namespace_shards_by_strategy_fingerprint(self, multi_gateway,
                                                      tiny_image_zoo,
                                                      tmp_path):
        target = tiny_image_zoo.target_names()[0]
        run(multi_gateway.rank(RankRequest(target=target, namespace="image",
                                           strategy="logme")))
        logme = get_strategy("logme")
        shard = ArtifactRegistry(tmp_path / "image")
        assert shard.targets(logme) == [target]
        assert shard.targets(get_strategy("random")) == []

    def test_stats_pool_across_strategies(self, multi_gateway,
                                          tiny_image_zoo):
        target = tiny_image_zoo.target_names()[0]
        for spec in ("logme", "random", None):
            run(multi_gateway.rank(RankRequest(target=target,
                                               namespace="image",
                                               strategy=spec)))
        stats = multi_gateway.stats()
        assert stats.namespaces["image"]["queries"] == 3
        assert stats.fleet["queries"] == 3

    def test_duplicate_strategy_rejected(self, tiny_image_zoo):
        gateway = SelectionGateway()
        try:
            with pytest.raises(ValueError):
                gateway.add_namespace("image", tiny_image_zoo, "logme",
                                      strategies=("logme",))
        finally:
            gateway.close()


class TestSingleServiceStrategyCheck:
    def test_service_rejects_foreign_strategy_spec(self, tiny_image_zoo):
        service = SelectionService(tiny_image_zoo, "logme")
        target = tiny_image_zoo.target_names()[0]
        with pytest.raises(UnknownStrategyError):
            service.handle(RankRequest(target=target, strategy="leep"))
        # its own spec (case-insensitive) passes
        response = service.handle(RankRequest(target=target,
                                              strategy="LogME", top_k=2))
        assert len(response.ranking) == 2

    def test_service_accepts_spec_strings(self, tiny_image_zoo):
        service = SelectionService(tiny_image_zoo, "random")
        assert service.strategy.spec == "random"
        assert service.config is None


class TestAliasSpecRouting:
    """Any spelling get_strategy accepts must route on the wire too."""

    def test_normalize_spec_resolves_aliases(self):
        from repro.strategies import normalize_spec

        assert normalize_spec("tg:lr,node2vec,all") == "tg:lr,n2v,all"
        assert normalize_spec("random:0") == "random"
        assert normalize_spec("LogME ") == "logme"
        # unparseable specs fall back to lowercase+strip
        assert normalize_spec("custom-thing") == "custom-thing"

    def test_gateway_routes_alias_spellings(self):
        from serving_stubs import StubZoo, install_stub_fit

        gateway = SelectionGateway()
        gateway.add_namespace("alpha", StubZoo(), "random",
                              strategies=("tg:lr,n2v,all",))
        install_stub_fit(gateway.service("alpha", "tg:lr,n2v,all"))
        try:
            for spelling in ("random:0", "RANDOM", "tg:lr,node2vec,all"):
                response = run(gateway.rank(RankRequest(
                    target="t0", namespace="alpha", strategy=spelling)))
                assert response.strategy == spelling  # echoed verbatim
            with pytest.raises(UnknownStrategyError):
                run(gateway.rank(RankRequest(target="t0", namespace="alpha",
                                             strategy="random:1")))
        finally:
            gateway.close()

    def test_service_check_accepts_alias_of_its_own_spec(self):
        from serving_stubs import StubZoo

        service = SelectionService(StubZoo(), "random")
        service.check_strategy("random:0")
        service.check_strategy(" Random ")
        with pytest.raises(UnknownStrategyError):
            service.check_strategy("random:2")

    def test_custom_non_lowercase_spec_matches_exactly(self):
        from serving_stubs import StubZoo

        class CustomStrategy(RandomStrategy):
            def __init__(self):
                super().__init__()
                self.spec = "MyRanker"
                self.name = "MyRanker"

        gateway = SelectionGateway()
        gateway.add_namespace("alpha", StubZoo(), CustomStrategy())
        try:
            response = run(gateway.rank(RankRequest(
                target="t0", namespace="alpha", strategy="MyRanker")))
            assert response.strategy == "MyRanker"
        finally:
            gateway.close()
        service = SelectionService(StubZoo(), CustomStrategy())
        service.check_strategy("MyRanker")
