"""The metrics core: thread-safety, bucket edges, exposition golden."""

from __future__ import annotations

import threading

import pytest

from repro.obs import EXPOSITION_CONTENT_TYPE, MetricsRegistry, Observability


class TestCounter:
    def test_concurrent_increments_sum_exactly(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "hits", ("worker",))
        threads_n, per_thread = 8, 2000

        def worker(name: str) -> None:
            series = family.labels(name)
            for _ in range(per_thread):
                series.inc()

        threads = [threading.Thread(target=worker, args=(f"w{i % 2}",))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 4 threads per label, not one increment lost to a race
        assert family.labels("w0").value == 4 * per_thread
        assert family.labels("w1").value == 4 * per_thread

    def test_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "c").labels()
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_label_value_access_by_name_or_position(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", "c", ("a", "b"))
        family.labels("x", "y").inc()
        assert family.labels(b="y", a="x").value == 1.0
        with pytest.raises(ValueError):
            family.labels("x")                       # wrong arity
        with pytest.raises(ValueError):
            family.labels(a="x", nope="y")           # unknown label
        with pytest.raises(ValueError):
            family.labels("x", b="y")                # mixed styles


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_ms", "h", buckets=(1.0, 5.0, 10.0))
        h = family.labels()
        for value in (0.2, 1.0, 1.0001, 5.0, 10.0, 10.0001):
            h.observe(value)
        counts, total, count = h.snapshot()
        # le=1: {0.2, 1.0}; le=5: {1.0001, 5.0}; le=10: {10.0}; +Inf: rest
        assert counts == [2, 2, 1, 1]
        assert count == 6
        assert total == pytest.approx(0.2 + 1.0 + 1.0001 + 5.0 + 10.0
                                      + 10.0001)

    def test_concurrent_observations_count_exactly(self):
        registry = MetricsRegistry()
        h = registry.histogram("h_ms", "h", buckets=(1.0,)).labels()

        def worker() -> None:
            for _ in range(1000):
                h.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts, total, count = h.snapshot()
        assert count == 6000 and counts == [6000, 0]
        assert total == pytest.approx(3000.0)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h_ms", "h", buckets=())


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "g").labels()
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(3.5)

    def test_set_function_is_read_at_render_time(self):
        registry = MetricsRegistry()
        depth = [0]
        registry.gauge("queue_depth", "live depth").labels().set_function(
            lambda: depth[0])
        assert "queue_depth 0" in registry.render()
        depth[0] = 7
        assert "queue_depth 7" in registry.render()


class TestRegistry:
    def test_reregister_same_schema_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "c", ("x",))
        b = registry.counter("c_total", "different help", ("x",))
        assert a is b

    def test_reregister_conflicting_schema_raises(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", ("x",))
        with pytest.raises(ValueError):
            registry.counter("c_total", "c", ("x", "y"))
        with pytest.raises(ValueError):
            registry.gauge("c_total", "c", ("x",))

    def test_exposition_golden(self):
        """Byte-exact Prometheus text exposition of a tiny registry."""
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_requests_total", "Requests handled.",
            ("endpoint", "outcome"))
        requests.labels("rank", "warm").inc(2)
        requests.labels("rank", "cold").inc()
        latency = registry.histogram(
            "repro_latency_ms", "Latency.", ("endpoint",),
            buckets=(1.0, 10.0))
        latency.labels("rank").observe(0.5)
        latency.labels("rank").observe(2.75)
        registry.gauge("repro_queue_depth", "Depth.").labels().set(1)

        assert registry.render() == (
            '# HELP repro_latency_ms Latency.\n'
            '# TYPE repro_latency_ms histogram\n'
            'repro_latency_ms_bucket{endpoint="rank",le="1"} 1\n'
            'repro_latency_ms_bucket{endpoint="rank",le="10"} 2\n'
            'repro_latency_ms_bucket{endpoint="rank",le="+Inf"} 2\n'
            'repro_latency_ms_sum{endpoint="rank"} 3.25\n'
            'repro_latency_ms_count{endpoint="rank"} 2\n'
            '# HELP repro_queue_depth Depth.\n'
            '# TYPE repro_queue_depth gauge\n'
            'repro_queue_depth 1\n'
            '# HELP repro_requests_total Requests handled.\n'
            '# TYPE repro_requests_total counter\n'
            'repro_requests_total{endpoint="rank",outcome="cold"} 1\n'
            'repro_requests_total{endpoint="rank",outcome="warm"} 2\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", ("path",)).labels('a"b\\c\n').inc()
        assert 'path="a\\"b\\\\c\\n"' in registry.render()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_exposition_content_type_is_prometheus_text(self):
        assert EXPOSITION_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE

    def test_latency_families_expose_sub_millisecond_bounds(self):
        """A warm in-process answer (~0.07 ms) lands in its own bucket of
        both latency families, not in one catch-all first bucket."""
        obs = Observability()
        obs.request_latency.labels("rank", "ns").observe(0.07)
        obs.fit_stage.labels("ns", "lr:all", "fit.train").observe(0.07)
        text = obs.metrics.render()
        for series in ('repro_request_latency_ms_bucket{endpoint="rank",'
                       'namespace="ns",',
                       'repro_fit_stage_ms_bucket{namespace="ns",'
                       'strategy="lr:all",stage="fit.train",'):
            assert f'{series}le="0.05"}} 0' in text
            assert f'{series}le="0.1"}} 1' in text
