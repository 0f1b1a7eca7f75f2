"""The v1 wire protocol: strict round-trips, validation, stable encoding."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ERROR_CODES,
    CompareRequest,
    CompareResponse,
    ErrorResponse,
    ProtocolError,
    RankRequest,
    RankResponse,
    ScoreBatchRequest,
    ScoreBatchResponse,
    StatsResponse,
    StrategyComparison,
    message_from_json,
)

_name = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=24)
_score = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------- #
# round-trip properties
# ---------------------------------------------------------------------- #
class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(target=_name, namespace=_name,
           top_k=st.none() | st.integers(min_value=1, max_value=1000))
    def test_rank_request(self, target, namespace, top_k):
        request = RankRequest(target=target, namespace=namespace, top_k=top_k)
        assert RankRequest.from_json(request.to_json()) == request
        # the encoding itself is stable (byte-identical re-serialisation)
        assert RankRequest.from_json(request.to_json()).to_json() == \
            request.to_json()

    @settings(max_examples=60, deadline=None)
    @given(namespace=_name, target=_name,
           ranking=st.lists(st.tuples(_name, _score), max_size=12))
    def test_rank_response(self, namespace, target, ranking):
        response = RankResponse(namespace=namespace, target=target,
                                ranking=tuple(ranking))
        revived = RankResponse.from_json(response.to_json())
        assert revived == response
        # scores survive the wire bit-exactly (shortest-repr floats)
        assert [s for _, s in revived.ranking] == [float(s)
                                                   for _, s in ranking]

    @settings(max_examples=60, deadline=None)
    @given(namespace=_name,
           pairs=st.lists(st.tuples(_name, _name), max_size=10))
    def test_score_batch_pair(self, namespace, pairs):
        request = ScoreBatchRequest(pairs=tuple(pairs), namespace=namespace)
        assert ScoreBatchRequest.from_json(request.to_json()) == request
        response = ScoreBatchResponse.build(
            request, [float(i) for i in range(len(pairs))])
        assert ScoreBatchResponse.from_json(response.to_json()) == response

    @settings(max_examples=40, deadline=None)
    @given(code=st.sampled_from(sorted(ERROR_CODES)), message=_name,
           retry=st.none() | st.floats(min_value=0, max_value=1e6,
                                       allow_nan=False))
    def test_error_response(self, code, message, retry):
        error = ErrorResponse(code=code, message=message, retry_after_s=retry)
        assert ErrorResponse.from_json(error.to_json()) == error

    def test_stats_response(self):
        stats = StatsResponse(
            namespaces={"image": {"queries": 3.0, "p50_ms": 1.5}},
            fleet={"queries": 3.0, "namespaces": 1.0})
        assert StatsResponse.from_json(stats.to_json()) == stats

    @settings(max_examples=40, deadline=None)
    @given(target=_name, namespace=_name)
    def test_kind_dispatch(self, target, namespace):
        for message in (RankRequest(target=target, namespace=namespace),
                        ScoreBatchRequest(pairs=((target, target),),
                                          namespace=namespace),
                        CompareRequest(target=target, namespace=namespace),
                        ErrorResponse(code="internal", message="x")):
            assert message_from_json(message.to_json()) == message

    @settings(max_examples=40, deadline=None)
    @given(namespace=_name, target=_name, reference=_name,
           ranking=st.lists(st.tuples(_name, _score), min_size=1,
                            max_size=8, unique_by=lambda kv: kv[0]),
           retry=st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_compare_response_round_trip(self, namespace, target,
                                         reference, ranking, retry):
        """The compare pair is byte-stable like every other v1 message."""
        ok = StrategyComparison(status="ok", ranking=tuple(ranking),
                                pearson=0.5, spearman=-0.5,
                                top_k_overlap=1.0,
                                latency={"p50_ms": 1.0})
        shed = StrategyComparison(status="shed", retry_after_s=retry)
        response = CompareResponse(namespace=namespace, target=target,
                                   reference=reference, top_k=3,
                                   results={reference: ok,
                                            reference + "!": shed})
        revived = CompareResponse.from_json(response.to_json())
        assert revived == response
        assert revived.to_json() == response.to_json()


# ---------------------------------------------------------------------- #
# strict validation
# ---------------------------------------------------------------------- #
class TestValidation:
    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            RankRequest.from_json("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            RankRequest.from_json("[1, 2]")

    def test_rejects_nesting_deeper_than_the_decoder_recurses(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            RankRequest.from_json("[" * 3000)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            message_from_json(b'{"kind": "rank", "target": ' + b"[" * 3000)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError, match="unknown field"):
            RankRequest.from_json('{"target": "dtd", "tpo_k": 3}')

    def test_rejects_missing_required(self):
        with pytest.raises(ProtocolError, match="missing required"):
            RankRequest.from_json('{"namespace": "image"}')

    def test_rejects_wrong_kind(self):
        payload = {"kind": "score_batch", "target": "dtd"}
        with pytest.raises(ProtocolError, match="kind"):
            RankRequest.from_json(json.dumps(payload))

    def test_rejects_bad_top_k(self):
        for bad in (0, -3, "five", 1.5, True):
            with pytest.raises(ProtocolError, match="top_k"):
                RankRequest(target="dtd", top_k=bad)

    def test_rejects_empty_target(self):
        with pytest.raises(ProtocolError, match="target"):
            RankRequest(target="")

    def test_rejects_malformed_pairs(self):
        for bad in ("mo", [["m0"]], [["m0", "d0", "x"]], [[1, "d0"]]):
            with pytest.raises(ProtocolError):
                ScoreBatchRequest(pairs=bad)

    def test_rejects_score_length_mismatch(self):
        with pytest.raises(ProtocolError, match="length"):
            ScoreBatchResponse(namespace="n", pairs=(("m", "d"),),
                               scores=(1.0, 2.0))

    def test_rejects_unknown_error_code(self):
        with pytest.raises(ProtocolError, match="code"):
            ErrorResponse(code="oops", message="x")

    def test_rejects_negative_retry_after(self):
        with pytest.raises(ProtocolError, match="retry_after_s"):
            ErrorResponse(code="queue_full", message="x", retry_after_s=-1)

    def test_rejects_non_finite_scores(self):
        """NaN/Infinity would serialise as RFC-invalid JSON; the
        protocol refuses to build such a response at all."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ProtocolError, match="finite"):
                RankResponse(namespace="n", target="t",
                             ranking=(("m", bad),))

    def test_rejects_unknown_message_kind(self):
        with pytest.raises(ProtocolError, match="unknown message kind"):
            message_from_json('{"kind": "frobnicate"}')

    def test_rejects_unhashable_message_kind(self):
        """A list-valued kind must be a ProtocolError, not a TypeError
        out of the registry lookup."""
        with pytest.raises(ProtocolError, match="unknown message kind"):
            message_from_json('{"kind": ["rank"]}')

    def test_errors_never_echo_values_of_wrong_type(self):
        """Validation errors name the field and the *type*, not the
        payload contents (which could be attacker-controlled junk)."""
        secret = "super-secret-blob"
        with pytest.raises(ProtocolError) as exc_info:
            RankRequest(target={"blob": secret})
        assert secret not in str(exc_info.value)


# ---------------------------------------------------------------------- #
# the additive strategy field (protocol v1 growth rule)
# ---------------------------------------------------------------------- #
class TestStrategyField:
    @settings(max_examples=40, deadline=None)
    @given(target=_name, namespace=_name,
           strategy=st.none() | _name)
    def test_rank_request_round_trips_with_strategy(self, target, namespace,
                                                    strategy):
        request = RankRequest(target=target, namespace=namespace,
                              strategy=strategy)
        revived = RankRequest.from_json(request.to_json())
        assert revived == request
        assert revived.strategy == strategy

    def test_omitted_strategy_keeps_pre_strategy_bytes(self):
        """Additive-only rule: no-strategy messages serialise exactly as
        the pre-strategy protocol did."""
        request = RankRequest(target="dtd", namespace="image", top_k=3)
        assert request.to_json() == (
            '{"kind":"rank","namespace":"image","target":"dtd","top_k":3}')
        batch = ScoreBatchRequest(pairs=(("m0", "dtd"),), namespace="image")
        assert batch.to_json() == (
            '{"kind":"score_batch","namespace":"image",'
            '"pairs":[["m0","dtd"]]}')
        response = RankResponse(namespace="image", target="dtd",
                                ranking=(("m0", 1.0),))
        assert '"strategy"' not in response.to_json()

    def test_present_strategy_appears_on_the_wire(self):
        request = RankRequest(target="dtd", strategy="logme")
        assert '"strategy":"logme"' in request.to_json()
        response = RankResponse.build(request, [("m0", 1.0)])
        assert response.strategy == "logme"
        assert '"strategy":"logme"' in response.to_json()
        batch = ScoreBatchRequest(pairs=(("m0", "dtd"),), strategy="logme")
        scored = ScoreBatchResponse.build(batch, [0.5])
        assert scored.strategy == "logme"
        assert ScoreBatchResponse.from_json(scored.to_json()) == scored

    def test_build_echoes_the_request_strategy_verbatim(self):
        request = RankRequest(target="dtd", strategy="LogME")
        assert RankResponse.build(request, []).strategy == "LogME"
        plain = RankRequest(target="dtd")
        assert RankResponse.build(plain, []).strategy is None

    def test_strategy_must_be_null_or_nonempty_string(self):
        for bad in ("", 7, ["logme"]):
            with pytest.raises(ProtocolError):
                RankRequest(target="dtd", strategy=bad)
            with pytest.raises(ProtocolError):
                ScoreBatchRequest(pairs=(("m", "d"),), strategy=bad)

    def test_unknown_strategy_error_code_registered(self):
        error = ErrorResponse(code="unknown_strategy",
                              message="unknown strategy 'x'")
        assert ErrorResponse.from_json(error.to_json()) == error


# ---------------------------------------------------------------------- #
# the additive request_id field (observability correlation)
# ---------------------------------------------------------------------- #
class TestRequestIdField:
    @settings(max_examples=40, deadline=None)
    @given(target=_name, namespace=_name, request_id=st.none() | _name)
    def test_round_trips_with_request_id(self, target, namespace,
                                         request_id):
        for request in (RankRequest(target=target, namespace=namespace,
                                    request_id=request_id),
                        CompareRequest(target=target, namespace=namespace,
                                       request_id=request_id),
                        ScoreBatchRequest(pairs=((target, target),),
                                          namespace=namespace,
                                          request_id=request_id)):
            revived = type(request).from_json(request.to_json())
            assert revived == request
            assert revived.request_id == request_id

    def test_omitted_request_id_keeps_prior_bytes(self):
        """Additive-only rule: messages without a request_id serialise
        exactly as the pre-observability protocol did."""
        request = RankRequest(target="dtd", namespace="image", top_k=3)
        assert request.to_json() == (
            '{"kind":"rank","namespace":"image","target":"dtd","top_k":3}')
        for message in (request,
                        ScoreBatchRequest(pairs=(("m0", "dtd"),)),
                        CompareRequest(target="dtd"),
                        RankResponse(namespace="image", target="dtd",
                                     ranking=(("m0", 1.0),))):
            assert '"request_id"' not in message.to_json()

    def test_build_echoes_request_id_only_when_present(self):
        tagged = RankRequest(target="dtd", request_id="req-1")
        response = RankResponse.build(tagged, [("m0", 1.0)])
        assert response.request_id == "req-1"
        assert '"request_id":"req-1"' in response.to_json()
        assert RankResponse.from_json(response.to_json()) == response

        plain = RankRequest(target="dtd")
        assert RankResponse.build(plain, []).request_id is None

        batch = ScoreBatchRequest(pairs=(("m0", "dtd"),),
                                  request_id="req-2")
        scored = ScoreBatchResponse.build(batch, [0.5])
        assert scored.request_id == "req-2"
        assert ScoreBatchResponse.from_json(scored.to_json()) == scored

    def test_request_id_must_be_null_or_nonempty_string(self):
        for bad in ("", 7, ["rid"]):
            with pytest.raises(ProtocolError):
                RankRequest(target="dtd", request_id=bad)
            with pytest.raises(ProtocolError):
                CompareRequest(target="dtd", request_id=bad)

    def test_stats_response_strategies_block(self):
        """fit_ms summaries ride the stats response only when present."""
        bare = StatsResponse(namespaces={}, fleet={"queries": 0.0})
        assert '"strategies"' not in bare.to_json()
        costed = StatsResponse(
            namespaces={}, fleet={"queries": 1.0},
            strategies={"img": {"logme": {"fit_ms_p50": 1.5,
                                          "fit_ms_p95": 2.0,
                                          "fits_timed": 2.0}}})
        assert StatsResponse.from_json(costed.to_json()) == costed
