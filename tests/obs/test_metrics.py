"""Tests for the thread-safe metrics registry."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry, QuantileSketch


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("reads_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", labels={"k": "1"}) is not reg.counter("a")
        assert (reg.counter("a", labels={"k": "1"})
                is reg.counter("a", labels={"k": "1"}))

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a", labels={"x": "1", "y": "2"})
        c2 = reg.counter("a", labels={"y": "2", "x": "1"})
        assert c1 is c2

    def test_counter_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"path": "query"}).inc(3)
        assert reg.counter_value("hits", labels={"path": "query"}) == 3
        assert reg.counter_value("hits") == 0.0
        assert reg.counter_value("never_created", default=-1.0) == -1.0


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("resident_bytes")
        g.set(100)
        g.inc(10)
        g.dec(60)
        assert g.value == 50


class TestTypeSafety:
    def test_same_name_different_type_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")
        # ...even under different labels: a name means one thing.
        with pytest.raises(TypeError, match="already registered"):
            reg.quantile_sketch("x", labels={"k": "v"})

    def test_counter_value_on_non_counter(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        with pytest.raises(TypeError, match="not a Counter"):
            reg.counter_value("g")


class TestExport:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", labels={"path": "query"}).inc(2)
        reg.gauge("repro_cache_resident_bytes").set(4096)
        reg.quantile_sketch("repro_query_seconds").observe(0.05)
        return reg

    def test_snapshot_is_json_safe_and_ordered(self):
        snap = self.build().snapshot()
        json.dumps(snap)  # must not raise
        assert [c["name"] for c in snap["counters"]] == ["repro_queries_total"]
        assert snap["counters"][0]["labels"] == {"path": "query"}
        assert snap["counters"][0]["value"] == 2
        assert set(snap) == {"counters", "gauges", "quantiles"}
        (sketch,) = snap["quantiles"]
        assert sketch["count"] == 1
        assert sum(sketch["buckets"].values()) == 1

    def test_prometheus_rendering(self):
        text = self.build().render_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{path="query"} 2' in text
        assert "# TYPE repro_cache_resident_bytes gauge" in text
        assert "repro_cache_resident_bytes 4096" in text
        assert "# TYPE repro_query_seconds summary" in text
        assert 'repro_query_seconds{quantile="0.5"}' in text
        assert "repro_query_seconds_sum 0.05" in text
        assert "repro_query_seconds_count 1" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


def parse_exposition(text):
    """A deliberately independent mini-parser of the Prometheus text
    exposition format: ``{(name, sorted_label_items): value}``.  Escape
    handling mirrors the spec, not the renderer's implementation, so a
    roundtrip failure means the renderer broke the format."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_part, value_part = rest.rsplit("} ", 1)
            labels = _parse_labels(label_part)
        else:
            name, value_part = line.rsplit(" ", 1)
            labels = {}
        key = (name, tuple(sorted(labels.items())))
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = float(value_part)
    return samples


def _parse_labels(body):
    labels = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq]
        assert body[eq + 1] == '"'
        j = eq + 2
        out = []
        while body[j] != '"':
            if body[j] == "\\":
                out.append({"\\": "\\", '"': '"', "n": "\n"}[body[j + 1]])
                j += 2
            else:
                out.append(body[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


NASTY_LABEL = 'C:\\units\n"kd8",x=y}'


class TestPrometheusExposition:
    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total",
                    labels={"path": 'a\\b"c\nd'}).inc()
        text = reg.render_prometheus()
        assert '{path="a\\\\b\\"c\\nd"}' in text
        # A raw newline inside a label value would split the sample line.
        (sample,) = [ln for ln in text.splitlines()
                     if not ln.startswith("#")]
        assert sample.endswith(" 1")

    def test_help_lines_precede_type(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total").inc()
        reg.counter("custom_widget_total").inc()
        lines = reg.render_prometheus().splitlines()
        idx = lines.index(
            "# HELP repro_queries_total Queries served, by execution path.")
        assert lines[idx + 1] == "# TYPE repro_queries_total counter"
        # Unknown names still get a parseable generic HELP line.
        assert ("# HELP custom_widget_total repro metric custom_widget_total."
                in lines)

    def test_help_and_type_once_per_name(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", labels={"path": "a"}).inc()
        reg.counter("repro_queries_total", labels={"path": "b"}).inc()
        text = reg.render_prometheus()
        assert text.count("# HELP repro_queries_total") == 1
        assert text.count("# TYPE repro_queries_total") == 1

    def test_summary_sum_count_consistency(self):
        reg = MetricsRegistry()
        sketch = reg.quantile_sketch("repro_query_seconds")
        for v in (0.005, 0.05, 0.5, 5.0):
            sketch.observe(v)
        parsed = parse_exposition(reg.render_prometheus())
        quantiles = {dict(k[1])["quantile"]: v for k, v in parsed.items()
                     if k[0] == "repro_query_seconds"}
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        # The summary contract: quantile lines, _sum and _count come
        # from one observation set.
        assert quantiles["0.5"] == pytest.approx(0.05, rel=0.01)
        assert quantiles["0.99"] == pytest.approx(5.0, rel=0.01)
        assert parsed[("repro_query_seconds_count", ())] == 4
        assert parsed[("repro_query_seconds_sum", ())] == pytest.approx(5.555)

    def test_parser_roundtrip_matches_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total",
                    labels={"path": NASTY_LABEL}).inc(2)
        reg.counter("repro_queries_total", labels={"path": "query"}).inc(5)
        reg.gauge("repro_cache_resident_bytes").set(-1.5)
        sketch = reg.quantile_sketch("repro_query_seconds",
                                     labels={"replica": NASTY_LABEL})
        sketch.observe(0.05)
        sketch.observe(5.0)
        parsed = parse_exposition(reg.render_prometheus())
        snap = reg.snapshot()
        for c in snap["counters"] + snap["gauges"]:
            key = (c["name"], tuple(sorted(c["labels"].items())))
            assert parsed[key] == c["value"]
        for entry in snap["quantiles"]:
            base = sorted(entry["labels"].items())
            assert parsed[(entry["name"] + "_sum",
                           tuple(base))] == pytest.approx(entry["sum"])
            assert parsed[(entry["name"] + "_count",
                           tuple(base))] == entry["count"]
            for q, value in entry["quantiles"].items():
                q_key = (entry["name"],
                         tuple(sorted(base + [("quantile", q)])))
                assert parsed[q_key] == pytest.approx(value)


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.counter("n").inc()
                reg.quantile_sketch("h").observe(0.1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n").value == 8000
        assert reg.quantile_sketch("h").count == 8000


class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        reg = MetricsRegistry()
        sketch = reg.quantile_sketch("lat")
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms..1s uniform
        for v in values:
            sketch.observe(v)
        for q, want in ((0.5, 0.5), (0.95, 0.95), (0.99, 0.99)):
            got = sketch.quantile(q)
            assert got == pytest.approx(want, rel=0.03)

    def test_resolution_is_fixed(self):
        # alpha is a module constant, not an option: every sketch one
        # build writes merges with every other.
        with pytest.raises(TypeError):
            MetricsRegistry().quantile_sketch("lat", alpha=0.05)
        with pytest.raises(TypeError):
            QuantileSketch("lat", alpha=0.05)
        sketch = MetricsRegistry().quantile_sketch("lat")
        sketch.observe(1.0)
        assert sketch.state()["alpha"] == 0.01

    def test_empty_sketch_reads_none(self):
        reg = MetricsRegistry()
        assert reg.quantile_sketch("lat").quantile(0.5) is None

    def test_negative_observations_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.quantile_sketch("lat").observe(-0.1)

    def test_zero_and_tiny_values_land_in_the_zero_bucket(self):
        reg = MetricsRegistry()
        sketch = reg.quantile_sketch("lat")
        sketch.observe(0.0)
        sketch.observe(1e-12)
        assert sketch.state()["zero"] == 2
        assert sketch.quantile(0.5) == 0.0

    def test_state_is_json_safe(self):
        reg = MetricsRegistry()
        sketch = reg.quantile_sketch("lat", labels={"tenant": "a"})
        sketch.observe(0.25)
        snapshot = reg.snapshot()
        [entry] = snapshot["quantiles"]
        json.dumps(snapshot)  # must not raise
        assert entry["labels"] == {"tenant": "a"}
        assert all(isinstance(k, str) for k in entry["buckets"])

    def test_get_or_create_and_type_safety(self):
        reg = MetricsRegistry()
        a = reg.quantile_sketch("lat")
        assert reg.quantile_sketch("lat") is a
        with pytest.raises(TypeError):
            reg.counter("lat")

    def test_prometheus_renders_summary_lines(self):
        reg = MetricsRegistry()
        sketch = reg.quantile_sketch("repro_request_seconds",
                                     labels={"tenant": "a"})
        for _ in range(10):
            sketch.observe(0.1)
        text = reg.render_prometheus()
        assert "# TYPE repro_request_seconds summary" in text
        assert 'quantile="0.99"' in text
        assert 'repro_request_seconds_count{tenant="a"} 10' in text

    def test_unobserved_sketch_renders_no_quantile_lines(self):
        reg = MetricsRegistry()
        reg.quantile_sketch("lat")
        text = reg.render_prometheus()
        assert "quantile=" not in text
        assert "lat_count 0" in text

    def test_concurrent_observations_do_not_lose_counts(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.quantile_sketch("lat").observe(0.01)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.quantile_sketch("lat").state()["count"] == 8000
