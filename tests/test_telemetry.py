"""Unit tests for the telemetry subsystem.

Counters, gauges, timers, span nesting, registry isolation, the
export formats, and the disabled fast path.
"""

import json
import threading

import pytest

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache
from repro.errors import ConfigurationError
from repro.telemetry import (
    NULL_REGISTRY, NullRegistry, Registry,
    sanitize_metric_name, snapshot_to_prometheus, split_labels,
)
from repro.telemetry.instruments import (
    NULL_COUNTER, NULL_GAUGE, NULL_SPAN, NULL_TIMER,
)


@pytest.fixture(autouse=True)
def _restore_module_state():
    """Every test leaves the module-level state as it found it."""
    was_enabled = telemetry.enabled()
    yield
    if not was_enabled:
        telemetry.disable()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = Registry()
        c = reg.counter("a.b")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_same_name_same_instrument(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        reg.counter("x").inc(3)
        assert reg.to_dict()["counters"]["x"] == 3

    def test_negative_increment_rejected(self):
        reg = Registry()
        with pytest.raises(ConfigurationError):
            reg.counter("x").inc(-1)

    def test_empty_name_rejected(self):
        reg = Registry()
        with pytest.raises(ConfigurationError):
            reg.counter("")


class TestGauge:
    def test_set_inc_dec(self):
        g = Registry().gauge("depth")
        g.set(4.0)
        g.inc(2.0)
        g.dec()
        assert g.value == 5.0


class TestTimer:
    def test_observe_statistics(self):
        t = Registry().timer("t")
        for s in (0.1, 0.3, 0.2):
            t.observe(s)
        assert t.count == 3
        assert t.total_s == pytest.approx(0.6)
        assert t.min_s == pytest.approx(0.1)
        assert t.max_s == pytest.approx(0.3)
        assert t.mean_s == pytest.approx(0.2)

    def test_empty_timer_snapshot_has_zero_min(self):
        t = Registry().timer("t")
        d = t.as_dict()
        assert d["count"] == 0
        assert d["min_s"] == 0.0
        assert d["mean_s"] == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Registry().timer("t").observe(-0.1)

    def test_time_context_manager(self):
        reg = Registry()
        with reg.timer("block").time():
            pass
        assert reg.timer("block").count == 1
        assert reg.timer("block").total_s >= 0.0


class TestSpans:
    def test_span_records_timer_and_calls(self):
        reg = Registry()
        with reg.span("outer"):
            pass
        snap = reg.to_dict()
        assert snap["timers"]["outer"]["count"] == 1
        assert snap["counters"]["outer.calls"] == 1

    def test_nested_spans_compose_paths(self):
        reg = Registry()
        with reg.span("outer"):
            assert reg.current_span_path() == "outer"
            with reg.span("inner"):
                assert reg.current_span_path() == "outer/inner"
            with reg.span("inner"):
                pass
        assert reg.current_span_path() == ""
        snap = reg.to_dict()
        assert snap["timers"]["outer"]["count"] == 1
        assert snap["timers"]["outer/inner"]["count"] == 2
        assert snap["counters"]["outer/inner.calls"] == 2

    def test_span_pops_on_exception(self):
        reg = Registry()
        with pytest.raises(ValueError):
            with reg.span("boom"):
                raise ValueError("x")
        assert reg.current_span_path() == ""
        # The failed span still recorded its duration.
        assert reg.to_dict()["timers"]["boom"]["count"] == 1


class TestRegistryIsolation:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.active() is NULL_REGISTRY

    def test_enable_activates_singleton(self):
        reg = telemetry.enable()
        try:
            assert reg is telemetry.get_registry()
            assert telemetry.active() is reg
            assert telemetry.enabled()
        finally:
            telemetry.disable()
        assert telemetry.active() is NULL_REGISTRY

    def test_use_registry_isolates_and_restores(self):
        before = telemetry.active()
        with telemetry.use_registry() as reg:
            assert telemetry.active() is reg
            telemetry.active().counter("only.here").inc()
        assert telemetry.active() is before
        assert reg.to_dict()["counters"]["only.here"] == 1
        # Nothing leaked into the singleton.
        assert "only.here" not in \
            telemetry.get_registry().to_dict()["counters"]

    def test_two_registries_do_not_share_state(self):
        a, b = Registry(), Registry()
        a.counter("n").inc(5)
        assert "n" not in b.to_dict()["counters"]

    @pytest.mark.parametrize("module,scope,make", [
        (telemetry, telemetry.use_registry, Registry),
        (artifact_cache, artifact_cache.use_cache, ArtifactCache),
    ], ids=["use_registry", "use_cache"])
    def test_scopes_are_context_local(self, module, scope, make):
        """Two threads' scopes, interleaved A in, B in, A reads,
        A out, B reads, B out: each thread sees only its own scope,
        and the default is back afterwards."""
        default = module.active()
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def job_a():
            with scope(make()) as mine:
                a_in.set()
                b_in.wait(10.0)
                seen["a"] = module.active() is mine
            a_out.set()

        def job_b():
            a_in.wait(10.0)
            with scope(make()) as mine:
                b_in.set()
                a_out.wait(10.0)
                seen["b"] = module.active() is mine

        threads = [threading.Thread(target=job, daemon=True)
                   for job in (job_a, job_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a": True, "b": True}
        assert module.active() is default
        fresh = []
        t = threading.Thread(target=lambda: fresh.append(module.active()))
        t.start()
        t.join(10.0)
        assert fresh == [default]

    def test_reset_drops_everything(self):
        reg = Registry()
        reg.counter("a").inc()
        reg.gauge("b").set(1)
        with reg.span("c"):
            pass
        reg.reset()
        assert reg.names() == []


class TestDisabledFastPath:
    def test_null_registry_returns_shared_singletons(self):
        assert NULL_REGISTRY.counter("x") is NULL_COUNTER
        assert NULL_REGISTRY.counter("y") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("x") is NULL_GAUGE
        assert NULL_REGISTRY.timer("x") is NULL_TIMER
        assert NULL_REGISTRY.span("x") is NULL_SPAN

    def test_null_instruments_discard_updates(self):
        NULL_COUNTER.inc(10)
        NULL_GAUGE.set(3.0)
        NULL_TIMER.observe(1.0)
        with NULL_REGISTRY.span("nothing"):
            pass
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_TIMER.count == 0
        assert NULL_REGISTRY.to_dict() == {
            "counters": {}, "gauges": {}, "timers": {},
        }

    def test_null_registry_not_enabled(self):
        assert NullRegistry().enabled is False
        assert Registry().enabled is True

    def test_null_registry_full_surface(self):
        reg = NullRegistry()
        NULL_GAUGE.inc()
        NULL_GAUGE.dec()
        with NULL_TIMER.time():
            pass
        assert reg.current_span_path() == ""
        assert reg.names() == []
        reg.reset()
        assert reg.to_json() == \
            '{"counters": {}, "gauges": {}, "timers": {}}'
        assert reg.to_prometheus() == ""
        merged = reg.merge(NULL_REGISTRY)
        assert merged.to_dict() == {
            "counters": {}, "gauges": {}, "timers": {},
        }

    def test_reprs_are_informative(self):
        reg = Registry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.timer("t").observe(0.25)
        assert "c" in repr(reg.counter("c"))
        assert "g" in repr(reg.gauge("g"))
        assert "t" in repr(reg.timer("t"))
        assert "1 counters" in repr(reg)
        assert repr(NULL_REGISTRY)

    def test_disabled_instrumented_code_records_nothing(self):
        from repro.signal.nrz import bits_to_waveform

        telemetry.disable()
        before = telemetry.get_registry().to_dict()
        bits_to_waveform([0, 1, 0, 1], 2.5)
        assert telemetry.get_registry().to_dict() == before


class TestExports:
    def _filled(self):
        reg = Registry()
        reg.counter("vortex.steps").inc(7)
        reg.gauge("vortex.in_flight").set(3.0)
        with reg.span("run"):
            pass
        return reg

    def test_to_dict_schema(self):
        snap = self._filled().to_dict()
        assert set(snap) == {"counters", "gauges", "timers"}
        assert snap["counters"]["vortex.steps"] == 7
        assert snap["gauges"]["vortex.in_flight"] == 3.0
        assert set(snap["timers"]["run"]) == {
            "count", "total_s", "min_s", "max_s", "mean_s",
        }

    def test_to_json_round_trips(self):
        reg = self._filled()
        assert json.loads(reg.to_json()) == reg.to_dict()

    def test_prometheus_text_shape(self):
        reg = self._filled()
        text = reg.to_prometheus()
        assert "repro_vortex_steps_total 7" in text
        assert "repro_vortex_in_flight 3" in text
        assert "repro_run_seconds_count 1" in text
        assert text.endswith("\n")
        # Deterministic: same snapshot, same text.
        assert text == reg.to_prometheus()

    def test_prometheus_prefix_and_empty(self):
        reg = Registry()
        reg.counter("a").inc()
        assert snapshot_to_prometheus(
            reg.to_dict(), prefix="fleet"
        ).startswith("# TYPE fleet_a_total")
        assert Registry().to_prometheus() == ""

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("a.b/c-d") == "a_b_c_d"
        assert sanitize_metric_name("ok_name:x") == "ok_name:x"


class TestMerge:
    def test_counters_sum_timers_pool_gauges_last_wins(self):
        a, b = Registry(), Registry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        b.counter("only_b").inc(1)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.timer("t").observe(0.1)
        b.timer("t").observe(0.5)
        m = a.merge(b)
        snap = m.to_dict()
        assert snap["counters"] == {"n": 5, "only_b": 1}
        assert snap["gauges"]["g"] == 9.0
        t = snap["timers"]["t"]
        assert t["count"] == 2
        assert t["total_s"] == pytest.approx(0.6)
        assert t["min_s"] == pytest.approx(0.1)
        assert t["max_s"] == pytest.approx(0.5)

    def test_merge_leaves_inputs_untouched(self):
        a, b = Registry(), Registry()
        a.counter("n").inc(2)
        a.merge(b)
        assert a.to_dict()["counters"]["n"] == 2
        assert b.to_dict()["counters"] == {}


class TestLabelledMetrics:
    """Per-worker ``name{worker=w0}`` metric names: the convention
    the distributed pool uses for its liveness gauges."""

    def test_split_labels(self):
        assert split_labels("parallel.remote.worker.busy{worker=w0}") \
            == ("parallel.remote.worker.busy", {"worker": "w0"})
        assert split_labels("cache.hits") == ("cache.hits", {})
        # A malformed suffix stays part of the plain name.
        assert split_labels("odd{name")[1] == {}

    def test_prometheus_renders_labels(self):
        reg = Registry()
        reg.gauge("pool.worker.busy{worker=w0}").set(1.0)
        reg.gauge("pool.worker.busy{worker=w1}").set(0.0)
        text = reg.to_prometheus()
        assert 'repro_pool_worker_busy{worker="w0"} 1' in text
        assert 'repro_pool_worker_busy{worker="w1"} 0' in text
        # One TYPE line per family, not per labelled series.
        assert text.count("# TYPE repro_pool_worker_busy gauge") == 1

    def test_families_stay_contiguous_despite_sort_interleave(self):
        # '.' sorts before '{', so full-name order would slot
        # repro_pool_depth between pool's unlabelled and labelled
        # series — which the Prometheus text format forbids.
        reg = Registry()
        reg.gauge("pool").set(1.0)
        reg.gauge("pool.depth").set(2.0)
        reg.gauge("pool{worker=w0}").set(3.0)
        lines = reg.to_prometheus().strip().split("\n")
        i = lines.index("# TYPE repro_pool gauge")
        assert lines[i + 1] == "repro_pool 1"
        assert lines[i + 2] == 'repro_pool{worker="w0"} 3'
        assert lines.count("# TYPE repro_pool gauge") == 1
        assert "# TYPE repro_pool_depth gauge" in lines

    def test_labelled_summary_suffix_order(self):
        snap = {"timers": {"chunk.time{worker=w2}": {
            "count": 3, "total_s": 0.3, "min_s": 0.05,
            "max_s": 0.2}}}
        text = snapshot_to_prometheus(snap)
        # Prometheus wants the _count/_sum suffix *before* labels.
        assert 'repro_chunk_time_seconds_count{worker="w2"} 3' in text
        assert 'repro_chunk_time_seconds_sum{worker="w2"}' in text

    def test_cross_worker_merge_keeps_series_distinct(self):
        master, w0, w1 = Registry(), Registry(), Registry()
        master.gauge("pool.worker.alive{worker=w0}").set(1.0)
        w0.counter("cache.remote.hits").inc(2)
        w0.gauge("pool.worker.alive{worker=w0}").set(0.0)
        w1.counter("cache.remote.hits").inc(3)
        w1.gauge("pool.worker.alive{worker=w1}").set(1.0)
        merged = master.merge(w0).merge(w1).to_dict()
        # Counters pool across workers; labelled gauges stay per
        # series with last-writer-wins within one.
        assert merged["counters"]["cache.remote.hits"] == 5
        assert merged["gauges"]["pool.worker.alive{worker=w0}"] == 0.0
        assert merged["gauges"]["pool.worker.alive{worker=w1}"] == 1.0
