"""Tracing and events: span nesting, outcome merge, context propagation."""

from __future__ import annotations

import io
import json
from concurrent.futures import ThreadPoolExecutor

from repro.obs import (
    OUTCOME_SEVERITY,
    EventLog,
    Observability,
    annotate,
    current_trace,
    record_cache,
    run_in_context,
    set_outcome,
    span,
)


class TestSpans:
    def test_span_without_active_trace_is_a_noop(self):
        assert current_trace() is None
        with span("fit.walks") as active:
            assert active is None   # nothing recorded, nothing raised

    def test_spans_nest_under_the_active_request(self):
        obs = Observability()
        with obs.request("rank", namespace="img") as trace:
            with span("fit.embed"):
                with span("fit.walks"):
                    pass
                with span("fit.sgns"):
                    pass
            with span("predict"):
                pass
        tree = trace.span_tree()
        assert [node["name"] for node in tree] == ["fit.embed", "predict"]
        assert [c["name"] for c in tree[0]["children"]] == \
            ["fit.walks", "fit.sgns"]
        # depth-1 stages only; nested detail stays in the tree
        assert set(trace.stage_totals()) == {"fit.embed", "predict"}

    def test_stage_totals_sum_repeated_stages(self):
        obs = Observability()
        with obs.request("score_batch") as trace:
            for _ in range(3):
                with span("predict"):
                    pass
        assert set(trace.stage_totals()) == {"predict"}
        tree = trace.span_tree()
        assert len(tree) == 3
        assert trace.stage_totals()["predict"] >= \
            max(node["duration_ms"] for node in tree)

    def test_run_in_context_carries_the_trace_to_worker_threads(self):
        obs = Observability()
        with ThreadPoolExecutor(max_workers=1) as pool:
            with obs.request("rank") as trace:
                def job():
                    with span("fit.train"):
                        return current_trace()
                seen = pool.submit(run_in_context(job)).result()
                # without the context copy the worker sees no trace
                assert pool.submit(job).result() is None
        assert seen is trace
        assert "fit.train" in trace.stage_totals()


class TestOutcomes:
    def test_outcome_merge_keeps_most_severe(self):
        obs = Observability()
        with obs.request("rank") as trace:
            set_outcome("warm")
            set_outcome("cold")
            set_outcome("warm")     # cannot downgrade
        assert trace.outcome == "cold"
        assert OUTCOME_SEVERITY["shed"] > OUTCOME_SEVERITY["cold"]

    def test_record_cache_hit_marks_warm_and_counts(self):
        obs = Observability()
        with obs.request("rank", namespace="img", strategy="logme") as trace:
            record_cache(hit=True)
        assert trace.outcome == "warm"
        with obs.request("rank", namespace="img", strategy="logme") as trace:
            record_cache(hit=False)
        assert trace.outcome == "ok"
        text = obs.render_metrics()
        assert ('repro_cache_lookups_total{namespace="img",'
                'strategy="logme",result="hit"} 1') in text
        assert ('repro_cache_lookups_total{namespace="img",'
                'strategy="logme",result="miss"} 1') in text

    def test_exception_marks_error_outcome(self):
        obs = Observability()
        try:
            with obs.request("rank") as trace:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert trace.outcome == "error"
        assert 'outcome="error"' in obs.render_metrics()

    def test_helpers_are_noops_without_a_trace(self):
        set_outcome("cold")
        record_cache(hit=True)
        annotate(target="dtd")      # none of these may raise


class TestRequestContext:
    def test_nested_request_reuses_the_outer_trace(self):
        """A caller wrapping a gateway that traces internally must not
        double-count the request."""
        obs = Observability()
        with obs.request("rank", request_id="outer") as outer:
            with obs.request("rank", request_id="inner") as inner:
                assert inner is outer
        records = obs.drain_traces()
        assert [r["request_id"] for r in records] == ["outer"]

    def test_request_id_minted_when_absent_kept_when_given(self):
        obs = Observability()
        with obs.request("rank") as trace:
            minted = trace.request_id
        assert minted and len(minted) == 16
        with obs.request("rank", request_id="abc") as trace:
            assert trace.request_id == "abc"

    def test_annotate_lands_in_trace_record_and_event(self):
        stream = io.StringIO()
        obs = Observability(event_log=EventLog(stream, json_lines=True))
        with obs.request("rank") as trace:
            annotate(target="dtd")
        assert trace.to_dict()["metadata"] == {"target": "dtd"}
        event = json.loads(stream.getvalue())
        assert event["target"] == "dtd"

    def test_trace_sink_sees_every_finished_trace(self):
        obs = Observability()
        seen: list[dict] = []
        obs.add_trace_sink(seen.append)
        with obs.request("rank", namespace="img"):
            with span("predict"):
                pass
        assert len(seen) == 1
        assert seen[0]["endpoint"] == "rank"
        assert seen[0]["spans"][0]["name"] == "predict"

    def test_requests_roll_up_into_metrics(self):
        obs = Observability()
        with obs.request("rank", namespace="img", strategy="logme"):
            set_outcome("cold")
        with obs.request("rank", namespace="img", strategy="logme"):
            set_outcome("warm")
        text = obs.render_metrics()
        assert ('repro_requests_total{endpoint="rank",namespace="img",'
                'strategy="logme",outcome="cold"} 1') in text
        assert ('repro_requests_total{endpoint="rank",namespace="img",'
                'strategy="logme",outcome="warm"} 1') in text
        assert ('repro_request_latency_ms_count{endpoint="rank",'
                'namespace="img"} 2') in text


class TestEventLog:
    def test_json_event_shape(self):
        stream = io.StringIO()
        obs = Observability(event_log=EventLog(stream, json_lines=True))
        with obs.request("rank", namespace="img", strategy="logme",
                         request_id="rid-1"):
            set_outcome("cold")
            with span("fit.estimate"):
                pass
        event = json.loads(stream.getvalue())
        assert event["event"] == "request"
        assert event["request_id"] == "rid-1"
        assert event["outcome"] == "cold"
        assert "fit.estimate" in event["stages"]
        assert "spans" not in event     # fast request: no tree dump

    def test_slow_request_carries_span_tree(self):
        stream = io.StringIO()
        obs = Observability(event_log=EventLog(stream, json_lines=True,
                                               slow_ms=0.0))
        with obs.request("rank"):
            with span("fit.train"):
                pass
        event = json.loads(stream.getvalue())
        assert event["slow"] is True
        assert event["spans"][0]["name"] == "fit.train"

    def test_human_line_names_outcome_and_stages(self):
        stream = io.StringIO()
        obs = Observability(event_log=EventLog(stream))
        with obs.request("rank", namespace="img", strategy="logme",
                         request_id="rid-9"):
            set_outcome("warm")
        line = stream.getvalue()
        for fragment in ("[     warm]", "rank", "ns=img",
                         "strategy=logme", "rid=rid-9"):
            assert fragment in line

