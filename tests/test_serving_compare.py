"""``/v1/compare``: protocol, fan-out semantics, the eval engine."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.errors import (
    FitPlaneError,
    FitTimeoutError,
    FitWorkerCrashError,
    NoWorkersError,
    WireError,
)
from repro.serving import (
    CompareRequest,
    CompareResponse,
    ProtocolError,
    QueueFullError,
    RankRequest,
    SelectionGateway,
    StrategyComparison,
    UnknownNamespaceError,
    UnknownStrategyError,
    UnknownTargetError,
    build_comparisons,
    message_from_json,
    ranking_metrics,
    served_evaluation,
    write_report,
)

from serving_stubs import (
    STUB_SCORES,
    FailingFleet,
    StubStrategy,
    StubZoo,
    stub_gateway,
)

_name = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=24)


def run(coro):
    return asyncio.run(coro)


def compare_gateway(**kwargs):
    """One namespace, three strategies with exactly known relationships.

    The namespace default (the stub TG config, spec ``tg:lr,n2v,all``)
    ranks m0 > m1 > m2; ``agree`` serves the identical ordering, ``flip``
    the exact reverse.
    """
    return stub_gateway(
        names=("alpha",),
        strategies=(StubStrategy("agree", STUB_SCORES["agree"]),
                    StubStrategy("flip", STUB_SCORES["flip"])),
        **kwargs)


# ---------------------------------------------------------------------- #
# protocol messages
# ---------------------------------------------------------------------- #
class TestCompareProtocol:
    @settings(max_examples=50, deadline=None)
    @given(target=_name, namespace=_name,
           strategies=st.none() | st.lists(_name, min_size=1, max_size=4),
           reference=st.none() | _name,
           top_k=st.none() | st.integers(min_value=1, max_value=100))
    def test_request_round_trips(self, target, namespace, strategies,
                                 reference, top_k):
        request = CompareRequest(target=target, namespace=namespace,
                                 strategies=strategies, reference=reference,
                                 top_k=top_k)
        revived = CompareRequest.from_json(request.to_json())
        assert revived == request
        assert revived.to_json() == request.to_json()  # byte-stable
        assert message_from_json(request.to_json()) == request

    def test_minimal_request_bytes(self):
        request = CompareRequest(target="dtd")
        assert request.to_json() == ('{"kind":"compare","namespace":'
                                     '"default","target":"dtd","top_k":null}')

    def test_empty_strategies_is_a_protocol_error(self):
        """An explicitly empty fan-out set is a client bug -> typed 400."""
        with pytest.raises(ProtocolError, match="non-empty"):
            CompareRequest(target="dtd", strategies=())
        with pytest.raises(ProtocolError, match="non-empty"):
            CompareRequest.from_json(
                '{"target": "dtd", "strategies": []}')

    def test_response_round_trips_with_mixed_statuses(self):
        ok = StrategyComparison(
            status="ok", ranking=(("m0", 1.0), ("m1", 0.25)),
            pearson=0.5, spearman=1.0, top_k_overlap=0.5,
            latency={"p50_ms": 1.5, "fit_p95_ms": 80.0})
        shed = StrategyComparison(status="shed", retry_after_s=2.5,
                                  latency={"p50_ms": 2.0})
        response = CompareResponse(namespace="n", target="dtd",
                                   reference="a", top_k=2,
                                   results={"a": ok, "b": shed})
        revived = CompareResponse.from_json(response.to_json())
        assert revived == response
        assert revived.to_json() == response.to_json()
        assert message_from_json(response.to_json()) == response
        assert revived.results["b"].retry_after_s == 2.5
        assert revived.results["b"].ranking == ()

    def test_ok_requires_ranking(self):
        with pytest.raises(ProtocolError, match="ranking is required"):
            StrategyComparison(status="ok")

    def test_ok_rejects_retry_hint(self):
        with pytest.raises(ProtocolError, match="retry_after_s"):
            StrategyComparison(status="ok", ranking=(("m0", 1.0),),
                               retry_after_s=1.0)

    def test_shed_requires_retry_hint_and_no_ranking(self):
        with pytest.raises(ProtocolError, match="retry_after_s"):
            StrategyComparison(status="shed")
        with pytest.raises(ProtocolError, match="must be empty"):
            StrategyComparison(status="shed", ranking=(("m0", 1.0),),
                               retry_after_s=1.0)
        with pytest.raises(ProtocolError, match="correlations"):
            StrategyComparison(status="shed", retry_after_s=1.0,
                               pearson=0.5)

    def test_overlap_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ProtocolError, match="top_k_overlap"):
                StrategyComparison(status="ok", ranking=(("m0", 1.0),),
                                   top_k_overlap=bad)

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError, match="status"):
            StrategyComparison(status="maybe")

    def test_response_reference_must_be_compared(self):
        ok = StrategyComparison(status="ok", ranking=(("m0", 1.0),))
        with pytest.raises(ProtocolError, match="reference"):
            CompareResponse(namespace="n", target="t", reference="ghost",
                            top_k=1, results={"a": ok})

    def test_response_rejects_empty_results(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            CompareResponse(namespace="n", target="t", reference="a",
                            top_k=1, results={})

    def test_correlations_omitted_not_null_on_the_wire(self):
        """When the reference shed, ok entries carry no correlation keys
        at all (omitted, not null) — the additive-protocol style."""
        ok = StrategyComparison(status="ok", ranking=(("m0", 1.0),))
        payload = json.loads(json.dumps(ok.to_dict()))
        assert "pearson" not in payload
        assert "retry_after_s" not in payload


# ---------------------------------------------------------------------- #
# the comparison math
# ---------------------------------------------------------------------- #
class TestRankingMetrics:
    REF = [("m0", 3.0), ("m1", 2.0), ("m2", 1.0)]

    def test_identical_ranking(self):
        assert ranking_metrics(self.REF, list(self.REF), 3) == \
            (1.0, 1.0, 1.0)

    def test_reversed_ranking(self):
        flipped = [("m2", 3.0), ("m1", 2.0), ("m0", 1.0)]
        pearson, spearman, overlap = ranking_metrics(self.REF, flipped, 1)
        assert pearson == -1.0
        assert spearman == -1.0
        assert overlap == 0.0  # top-1 sets are disjoint

    def test_overlap_counts_sets_not_order(self):
        swapped = [("m1", 9.0), ("m0", 8.0), ("m2", 1.0)]
        _, _, overlap = ranking_metrics(self.REF, swapped, 2)
        assert overlap == 1.0  # same top-2 set, different order inside

    def test_k_clamped_to_roster(self):
        assert ranking_metrics(self.REF, list(self.REF), 50)[2] == 1.0

    def test_disjoint_model_sets_rejected(self):
        with pytest.raises(ValueError, match="different model sets"):
            ranking_metrics(self.REF, [("mX", 1.0)], 3)


class TestBuildComparisons:
    RANKS = {"a": [("m0", 2.0), ("m1", 1.0)],
             "b": [("m1", 5.0), ("m0", 0.0)]}

    def test_reference_scores_itself_perfectly(self):
        results = build_comparisons(dict(self.RANKS), {}, reference="a",
                                    top_k=1)
        assert results["a"].pearson == 1.0
        assert results["a"].top_k_overlap == 1.0
        assert results["b"].pearson == -1.0
        assert results["b"].top_k_overlap == 0.0

    def test_shed_reference_drops_correlations(self):
        results = build_comparisons({"b": self.RANKS["b"]},
                                    {"a": 1.5}, reference="a", top_k=1)
        assert results["a"].status == "shed"
        assert results["a"].retry_after_s == 1.5
        assert results["b"].status == "ok"
        assert results["b"].pearson is None
        assert results["b"].top_k_overlap is None

    def test_rejects_unknown_reference(self):
        with pytest.raises(ValueError, match="reference"):
            build_comparisons(dict(self.RANKS), {}, reference="ghost",
                              top_k=1)

    def test_rejects_ok_and_shed_overlap(self):
        with pytest.raises(ValueError, match="both ok and shed"):
            build_comparisons(dict(self.RANKS), {"a": 0.5}, reference="a",
                              top_k=1)


# ---------------------------------------------------------------------- #
# the gateway fan-out
# ---------------------------------------------------------------------- #
class TestGatewayCompare:
    def test_fans_across_the_whole_strategy_map(self):
        gateway = compare_gateway()
        try:
            response = run(gateway.compare(
                CompareRequest(target="t0", namespace="alpha")))
        finally:
            gateway.close()
        assert set(response.results) == {"tg:lr,n2v,all", "agree", "flip"}
        assert response.reference == "tg:lr,n2v,all"  # namespace default
        assert response.top_k == 3  # DEFAULT_COMPARE_TOP_K
        assert all(c.status == "ok" for c in response.results.values())
        # the stub default ranks m0 > m1 > m2; agree matches, flip inverts
        assert response.results["agree"].pearson == 1.0
        assert response.results["agree"].spearman == 1.0
        assert response.results["flip"].pearson == -1.0
        # live latency percentiles ride along for every strategy
        for comparison in response.results.values():
            assert "p95_ms" in comparison.latency
            assert "fit_p95_ms" in comparison.latency

    def test_wire_round_trip_is_byte_stable(self):
        gateway = compare_gateway()
        try:
            response = run(gateway.compare(
                CompareRequest(target="t0", namespace="alpha")))
        finally:
            gateway.close()
        encoded = response.to_json()
        assert CompareResponse.from_json(encoded).to_json() == encoded

    def test_subset_fan_out_includes_reference_implicitly(self):
        gateway = compare_gateway()
        try:
            response = run(gateway.compare(CompareRequest(
                target="t0", namespace="alpha", strategies=("agree",))))
        finally:
            gateway.close()
        # reference (namespace default) joined the fan-out uninvited
        assert set(response.results) == {"tg:lr,n2v,all", "agree"}
        assert response.reference == "tg:lr,n2v,all"

    def test_explicit_reference_and_alias_spelling(self):
        gateway = compare_gateway()
        try:
            response = run(gateway.compare(CompareRequest(
                target="t0", namespace="alpha",
                strategies=("tg:lr,node2vec,all",),  # alias spelling
                reference="agree")))
        finally:
            gateway.close()
        assert response.reference == "agree"
        assert set(response.results) == {"tg:lr,n2v,all", "agree"}
        assert response.results["tg:lr,n2v,all"].pearson == 1.0

    def test_top_k_clamped_to_model_roster(self):
        gateway = compare_gateway()
        try:
            response = run(gateway.compare(CompareRequest(
                target="t0", namespace="alpha", top_k=50)))
        finally:
            gateway.close()
        assert response.top_k == 3  # StubZoo serves three models

    def test_unknown_namespace(self):
        gateway = compare_gateway()
        try:
            with pytest.raises(UnknownNamespaceError):
                run(gateway.compare(CompareRequest(target="t0",
                                                   namespace="ghost")))
        finally:
            gateway.close()

    def test_unknown_target(self):
        gateway = compare_gateway()
        try:
            with pytest.raises(UnknownTargetError):
                run(gateway.compare(CompareRequest(target="ghost",
                                                   namespace="alpha")))
        finally:
            gateway.close()

    def test_unknown_strategy_in_fan_out_set(self):
        gateway = compare_gateway()
        try:
            with pytest.raises(UnknownStrategyError):
                run(gateway.compare(CompareRequest(
                    target="t0", namespace="alpha",
                    strategies=("agree", "nope"))))
        finally:
            gateway.close()

    def test_unknown_reference_strategy(self):
        gateway = compare_gateway()
        try:
            with pytest.raises(UnknownStrategyError):
                run(gateway.compare(CompareRequest(
                    target="t0", namespace="alpha", reference="nope")))
        finally:
            gateway.close()

    def test_shed_strategy_marks_partial_failure(self):
        """One strategy shedding must not fail the whole compare."""
        gateway = compare_gateway()

        async def scenario():
            router = gateway.router("alpha", "flip")

            async def shed_rank(target, top_k=None):
                raise QueueFullError("cold-fit queue full", retry_after_s=2.5)

            router.rank = shed_rank
            return await gateway.compare(
                CompareRequest(target="t0", namespace="alpha"))

        try:
            response = run(scenario())
        finally:
            gateway.close()
        assert response.results["flip"].status == "shed"
        assert response.results["flip"].retry_after_s == 2.5
        assert response.results["flip"].latency  # live stats still ride
        assert response.results["agree"].status == "ok"
        assert response.results["agree"].pearson == 1.0

    def test_shed_reference_keeps_rankings_drops_correlations(self):
        gateway = compare_gateway()

        async def scenario():
            router = gateway.router("alpha")  # the default strategy

            async def shed_rank(target, top_k=None):
                raise QueueFullError("cold-fit queue full", retry_after_s=1.0)

            router.rank = shed_rank
            return await gateway.compare(
                CompareRequest(target="t0", namespace="alpha"))

        try:
            response = run(scenario())
        finally:
            gateway.close()
        assert response.results["tg:lr,n2v,all"].status == "shed"
        for spec in ("agree", "flip"):
            assert response.results[spec].status == "ok"
            assert response.results[spec].ranking
            assert response.results[spec].pearson is None

    def test_real_shedding_under_a_full_queue(self):
        """An actually saturated fit queue sheds the compare's slice."""
        gateway = stub_gateway(
            names=("alpha",), fit_seconds=0.25, max_pending_fits=1,
            strategies=(StubStrategy("agree", STUB_SCORES["agree"]),))

        async def scenario():
            slow = asyncio.ensure_future(gateway.rank(
                RankRequest(target="t1", namespace="alpha")))
            await asyncio.sleep(0.05)  # the default strategy's slot is taken
            response = await gateway.compare(
                CompareRequest(target="t2", namespace="alpha",
                               reference="agree"))
            await slow
            return response

        try:
            response = run(scenario())
        finally:
            gateway.close()
        assert response.results["tg:lr,n2v,all"].status == "shed"
        assert response.results["tg:lr,n2v,all"].retry_after_s > 0
        assert response.results["agree"].status == "ok"


class _BrokenFit(StubStrategy):
    def fit(self, zoo, target):
        raise RuntimeError("fit exploded")


def _compare_with_failing(fleet=None, flip=None):
    """``/v1/compare`` of ``t0`` over ``agree`` (the default) and
    ``flip``, through ``fleet`` when given."""
    gateway = SelectionGateway(fleet=fleet)
    try:
        gateway.add_namespace(
            "alpha", StubZoo(), StubStrategy("agree", STUB_SCORES["agree"]),
            strategies=(flip or StubStrategy("flip", STUB_SCORES["flip"]),))
        return run(gateway.compare(
            CompareRequest(target="t0", namespace="alpha")))
    finally:
        gateway.close()


class TestCompareFleetFailures:
    """A fleet failure a retry can outlive sheds one strategy's slice;
    any other failure still fails the whole compare."""

    @pytest.mark.parametrize("error", [
        NoWorkersError("no live fit workers"),
        FitTimeoutError("fit exceeded its timeout"),
        FitWorkerCrashError("worker died mid-fit"),
    ], ids=lambda error: type(error).__name__)
    def test_retryable_fleet_failure_marks_the_strategy_shed(self, error):
        response = _compare_with_failing(FailingFleet("flip", error))
        agree, flip = response.results["agree"], response.results["flip"]
        assert agree.status == "ok"
        assert [m for m, _ in agree.ranking] == ["m0", "m1", "m2"]
        assert flip.status == "shed"
        assert flip.retry_after_s == 1.0
        assert flip.ranking == ()

    @pytest.mark.parametrize("error", [
        FitPlaneError("strategy is not picklable"),
        WireError("malformed frame"),
    ], ids=lambda error: type(error).__name__)
    def test_unretryable_fleet_failure_fails_the_compare(self, error):
        with pytest.raises(type(error)):
            _compare_with_failing(FailingFleet("flip", error))

    def test_raising_fit_fails_the_compare(self):
        with pytest.raises(RuntimeError, match="fit exploded"):
            _compare_with_failing(
                flip=_BrokenFit("flip", STUB_SCORES["flip"]))


# ---------------------------------------------------------------------- #
# the served evaluation engine
# ---------------------------------------------------------------------- #
class TestServedEvaluation:
    def test_report_schema_and_aggregates(self):
        gateway = compare_gateway()
        try:
            report = run(served_evaluation(gateway, "alpha", top_k=2))
        finally:
            gateway.close()
        assert report["benchmark"] == "compare_served"
        assert report["protocol"] == "v1"
        assert report["namespace"] == "alpha"
        assert report["reference"] == "tg:lr,n2v,all"
        assert report["top_k"] == 2
        assert report["targets"] == ["t0", "t1", "t2", "t3"]
        assert set(report["strategies"]) == {"tg:lr,n2v,all", "agree",
                                             "flip"}
        agree = report["strategies"]["agree"]
        assert agree["mean_pearson"] == 1.0
        assert agree["mean_top_k_overlap"] == 1.0
        assert agree["targets_ok"] == 4
        assert agree["targets_shed"] == 0
        assert agree["warm_rank_p95_ms"] >= 0.0
        flip = report["strategies"]["flip"]
        assert flip["mean_pearson"] == -1.0
        assert flip["mean_top_k_overlap"] == pytest.approx(0.5)

    def test_warm_latency_window_covers_only_the_compare_pass(self):
        gateway = compare_gateway()
        try:
            report = run(served_evaluation(gateway, "alpha",
                                           targets=["t0", "t1"]))
            # one rank query per strategy per target, nothing else
            for spec in report["strategies"]:
                stats = gateway.router("alpha", spec).service.stats()
                assert stats["queries"] == 2
        finally:
            gateway.close()

    def test_subset_and_explicit_reference(self):
        gateway = compare_gateway()
        try:
            report = run(served_evaluation(
                gateway, "alpha", strategies=["flip"], reference="agree",
                targets=["t0"]))
        finally:
            gateway.close()
        assert set(report["strategies"]) == {"agree", "flip"}
        assert report["reference"] == "agree"

    def test_empty_target_list_rejected(self):
        gateway = compare_gateway()
        try:
            with pytest.raises(ValueError, match="no targets"):
                run(served_evaluation(gateway, "alpha", targets=[]))
        finally:
            gateway.close()

    def test_write_report_round_trips(self, tmp_path):
        report = {"benchmark": "compare_served", "strategies": {"a": 1}}
        path = write_report(tmp_path / "deep" / "BENCH_compare.json",
                            report)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report
        # stable bytes: keys are sorted, so identical reports diff clean
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------- #
# the CI benchmark gate
# ---------------------------------------------------------------------- #
def _load_gate():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" \
        / "compare_gate.py"
    spec = importlib.util.spec_from_file_location("compare_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareGate:
    BASE = {
        "benchmark": "compare_served",
        "protocol": "v1",
        "namespace": "image",
        "reference": "tg:lr,n2v,all",
        "top_k": 3,
        "targets": ["a", "b", "c"],
        "strategies": {
            "tg:lr,n2v,all": {"mean_top_k_overlap": 1.0,
                              "warm_rank_p95_ms": 2.0,
                              "targets_shed": 0},
            "logme": {"mean_top_k_overlap": 0.667,
                      "warm_rank_p95_ms": 1.0,
                      "targets_shed": 0},
        },
    }

    def _run(self, tmp_path, current, baseline, *extra):
        import copy
        import json as _json

        gate = _load_gate()
        current_path = tmp_path / "current.json"
        baseline_path = tmp_path / "baseline.json"
        current_path.write_text(_json.dumps(current))
        baseline_path.write_text(_json.dumps(copy.deepcopy(baseline)))
        return gate.main([str(current_path), str(baseline_path), *extra])

    def test_identical_reports_pass(self, tmp_path, capsys):
        assert self._run(tmp_path, self.BASE, self.BASE) == 0
        assert "PASS" in capsys.readouterr().out

    def test_overlap_drop_fails(self, tmp_path, capsys):
        import copy

        current = copy.deepcopy(self.BASE)
        current["strategies"]["logme"]["mean_top_k_overlap"] = 0.3
        assert self._run(tmp_path, current, self.BASE) == 1
        assert "overlap" in capsys.readouterr().out

    def test_overlap_jitter_within_tolerance_passes(self, tmp_path):
        import copy

        current = copy.deepcopy(self.BASE)
        current["strategies"]["logme"]["mean_top_k_overlap"] = 0.61
        assert self._run(tmp_path, current, self.BASE) == 0

    def test_p95_regression_beyond_grace_fails(self, tmp_path, capsys):
        import copy

        current = copy.deepcopy(self.BASE)
        current["strategies"]["logme"]["warm_rank_p95_ms"] = 500.0
        assert self._run(tmp_path, current, self.BASE) == 1
        assert "regressed" in capsys.readouterr().out

    def test_ms_scale_noise_within_grace_passes(self, tmp_path):
        import copy

        # 5x relative regression but well inside the absolute grace: a
        # 1 ms -> 5 ms wobble must not fail CI on a slow runner
        current = copy.deepcopy(self.BASE)
        current["strategies"]["logme"]["warm_rank_p95_ms"] = 5.0
        assert self._run(tmp_path, current, self.BASE) == 0

    def test_missing_strategy_fails(self, tmp_path, capsys):
        import copy

        current = copy.deepcopy(self.BASE)
        del current["strategies"]["logme"]
        assert self._run(tmp_path, current, self.BASE) == 1
        assert "missing" in capsys.readouterr().out

    def test_shed_targets_fail(self, tmp_path, capsys):
        import copy

        current = copy.deepcopy(self.BASE)
        current["strategies"]["logme"]["targets_shed"] = 1
        assert self._run(tmp_path, current, self.BASE) == 1
        assert "shed" in capsys.readouterr().out

    def test_changed_reference_is_a_usage_error(self, tmp_path, capsys):
        """Incomparable reports exit 2, distinct from a regression's 1."""
        import copy

        current = copy.deepcopy(self.BASE)
        current["reference"] = "logme"
        current["strategies"]["logme"]["mean_top_k_overlap"] = 1.0
        with pytest.raises(SystemExit) as exc_info:
            self._run(tmp_path, current, self.BASE)
        assert exc_info.value.code == 2
        assert "reference" in capsys.readouterr().err

    def test_changed_target_roster_is_a_usage_error(self, tmp_path,
                                                    capsys):
        """Overlap means average per target: a different roster would
        silently compare different quantities."""
        import copy

        current = copy.deepcopy(self.BASE)
        current["targets"] = ["a", "b"]
        with pytest.raises(SystemExit) as exc_info:
            self._run(tmp_path, current, self.BASE)
        assert exc_info.value.code == 2
        assert "targets" in capsys.readouterr().err

    def test_non_report_json_is_a_usage_error(self, tmp_path):
        import json as _json

        gate = _load_gate()
        bogus = tmp_path / "bogus.json"
        bogus.write_text(_json.dumps({"benchmark": "something_else"}))
        with pytest.raises(SystemExit) as exc_info:
            gate.main([str(bogus), str(bogus)])
        assert exc_info.value.code == 2

    def test_committed_baseline_is_a_loadable_report(self):
        from pathlib import Path

        gate = _load_gate()
        baseline = Path(__file__).resolve().parent.parent / "benchmarks" \
            / "baselines" / "compare_baseline.json"
        report = gate.load_report(baseline)
        # the acceptance roster rides in the committed baseline
        assert set(report["strategies"]) == {"tg:lr,n2v,all", "logme",
                                             "random"}
        assert report["reference"] == "tg:lr,n2v,all"
        assert report["top_k"] == 3
