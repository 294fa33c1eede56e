"""Tests for repro.cache: keys, the artifact store, and stage wiring.

The load-bearing property: a cached pipeline is bit-identical to the
uncached one, across every executor backend a sweep can run on.
"""

import contextvars
import dataclasses
import enum
import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache, NullCache, canonical_digest
from repro.channel.lti import LTIChannel
from repro.errors import ConfigurationError
from repro.eye.diagram import EyeDiagram
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import prbs_bits
from repro.signal.waveform import Waveform
from tests.test_batch_equivalence import _assert_bitwise


class TestCanonicalDigest:
    def test_deterministic(self):
        assert canonical_digest(7, "x", 1.5) == canonical_digest(7, "x", 1.5)

    def test_order_sensitive(self):
        assert canonical_digest(1, 2) != canonical_digest(2, 1)

    def test_type_tagged(self):
        """1, 1.0, True and "1" must all digest differently."""
        keys = {canonical_digest(v) for v in (1, 1.0, True, "1", b"1")}
        assert len(keys) == 5

    def test_array_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        c = np.zeros(8, dtype=np.float64)
        assert len({canonical_digest(x) for x in (a, b, c)}) == 3

    def test_none_and_containers(self):
        assert canonical_digest(None) != canonical_digest(0)
        assert canonical_digest([1, 2]) != canonical_digest((1, 2))
        assert canonical_digest({"a": 1, "b": 2}) \
            == canonical_digest({"b": 2, "a": 1})

    def test_enum_and_dataclass(self):
        class Shape(enum.Enum):
            ERF = "erf"
            LINEAR = "linear"

        @dataclasses.dataclass
        class Cfg:
            rate: float
            order: int

        assert canonical_digest(Shape.ERF) != canonical_digest(Shape.LINEAR)
        assert canonical_digest(Cfg(2.5, 7)) == canonical_digest(Cfg(2.5, 7))
        assert canonical_digest(Cfg(2.5, 7)) != canonical_digest(Cfg(5.0, 7))

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_digest(object())


class TestArtifactCache:
    def test_put_get_roundtrip(self):
        cache = ArtifactCache()
        cache.put("k", np.arange(5))
        hit, value = cache.get("k")
        assert hit
        assert np.array_equal(value, np.arange(5))

    def test_copy_in_copy_out(self):
        """A hit can never alias state the caller mutates."""
        cache = ArtifactCache()
        stored = np.arange(5)
        cache.put("k", stored)
        stored[0] = 99  # caller mutates after put
        _, out = cache.get("k")
        assert out[0] == 0
        out[1] = 77  # caller mutates the hit
        _, again = cache.get("k")
        assert again[1] == 1

    def test_get_or_compute_runs_once(self):
        cache = ArtifactCache()
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return np.ones(3)

        a = cache.get_or_compute("k", compute)
        b = cache.get_or_compute("k", compute)
        assert calls["n"] == 1
        assert np.array_equal(a, b)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_by_entries(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_eviction_under_byte_pressure(self):
        """Filling past max_bytes evicts oldest entries first and
        keeps the byte gauge consistent."""
        one_kb = np.zeros(128, dtype=np.float64)  # 1024 bytes
        cache = ArtifactCache(max_bytes=3 * 1024 + 512)
        for i in range(6):
            cache.put(f"k{i}", one_kb.copy())
        assert cache.nbytes <= 3 * 1024 + 512
        assert len(cache) == 3
        assert cache.evictions == 3
        # The newest survive, the oldest went first.
        assert "k5" in cache and "k4" in cache and "k3" in cache
        assert "k0" not in cache

    def test_oversized_single_entry_does_not_stick(self):
        cache = ArtifactCache(max_bytes=100)
        cache.put("big", np.zeros(1000))
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ArtifactCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            ArtifactCache(max_bytes=0)

    def test_clear(self):
        cache = ArtifactCache()
        cache.put("k", np.arange(10))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_telemetry_counters(self):
        with telemetry.use_registry() as reg:
            cache = ArtifactCache()
            cache.get_or_compute("k", lambda: 1)
            cache.get_or_compute("k", lambda: 1)
        counters = reg.to_dict()["counters"]
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 1


    def test_eye_bytes_count_owned_arrays(self):
        """A stored diagram that owns its arrays is charged for each
        of them, so the byte budget sees it; a fold that views a
        waveform's samples costs only its header."""
        rng = np.random.default_rng(0)

        def owned_eye():
            return EyeDiagram(rng.uniform(0.0, 400.0, 100_000),
                              rng.normal(0.0, 0.3, 100_000), 400.0,
                              rng.uniform(0.0, 400.0, 500), 0.0)

        eyes = [owned_eye() for _ in range(4)]
        assert all(a.base is None for eye in eyes
                   for a in (eye.phases, eye.voltages,
                             eye.crossing_phases))
        per_eye = 2 * 800_000 + 4_000 + 64
        cache = ArtifactCache()
        for i, eye in enumerate(eyes):
            cache.put(f"eye{i}", eye)
        assert cache.nbytes == 4 * per_eye
        capped = ArtifactCache(max_bytes=2 * per_eye + 200)
        for i, eye in enumerate(eyes):
            capped.put(f"eye{i}", eye)
        assert len(capped) == 2 and capped.evictions == 2
        values = rng.normal(0.0, 0.3, 100_800)
        viewing = ArtifactCache()
        with artifact_cache.use_cache(viewing):
            EyeDiagram.from_waveform(Waveform(values), 2.5)
        assert viewing.nbytes == 64


def _join_all(targets, timeout=30.0):
    """Run each target on its own thread, in a copy of the caller's
    context (so its scopes reach the thread); fail if any is still
    running *timeout* seconds after the start."""
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(t,), daemon=True)
               for t in targets]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "a lookup hung"


def _hold_until(cond, timeout=10.0):
    """Keep a compute in flight until *cond()* holds (or time out)."""
    deadline = time.monotonic() + timeout
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.001)


class TestSingleFlight:
    """Concurrent ``get_or_compute`` calls on one key compute it once."""

    def test_concurrent_misses_compute_once(self):
        cache = ArtifactCache()
        n = 8
        gate = threading.Barrier(n)
        calls = []
        results = [None] * n

        def compute():
            calls.append(1)
            _hold_until(lambda: cache.waits == n - 1)
            return object()  # passes through the store uncopied

        def lookup(i):
            gate.wait(10.0)
            results[i] = cache.get_or_compute("k", compute)

        with telemetry.use_registry() as reg:
            _join_all([lambda i=i: lookup(i) for i in range(n)])
        assert len(calls) == 1
        assert results[0] is not None
        assert all(r is results[0] for r in results)
        assert cache.misses == cache.stores == 1
        assert cache.waits == n - 1 and cache.hits == n - 1
        assert cache.stats()["waits"] == n - 1
        assert reg.to_dict()["counters"]["cache.waits"] == n - 1

    def test_failed_compute_wakes_waiters(self):
        """Waiters on a compute that raises claim the key themselves:
        the raising caller sees its error, the rest get a value."""
        cache = ArtifactCache()
        n = 6
        gate = threading.Barrier(n)
        lock = threading.Lock()
        calls = []
        outcomes = [None] * n

        def compute():
            with lock:
                calls.append(1)
                first = len(calls) == 1
            if first:
                _hold_until(lambda: cache.waits == n - 1)
                raise RuntimeError("first compute fails")
            return 42

        def lookup(i):
            gate.wait(10.0)
            try:
                outcomes[i] = cache.get_or_compute("k", compute)
            except RuntimeError as exc:
                outcomes[i] = exc

        _join_all([lambda i=i: lookup(i) for i in range(n)])
        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        assert len(errors) == 1
        assert str(errors[0]) == "first compute fails"
        assert sorted(o for o in outcomes if o is not errors[0]) \
            == [42] * (n - 1)
        assert len(calls) == 2
        assert cache.misses == 2 and cache.stores == 1
        assert cache.get("k") == (True, 42)

    def test_shared_inner_key_computed_once(self):
        """Two keys whose computes both ask for one inner key."""
        cache = ArtifactCache()
        gate = threading.Barrier(2)
        inner_calls = []
        results = {}

        def inner():
            inner_calls.append(1)
            _hold_until(lambda: cache.waits == 1)
            return 7

        def lookup(name):
            gate.wait(10.0)
            results[name] = cache.get_or_compute(
                name, lambda: (name, cache.get_or_compute("inner", inner)))

        _join_all([lambda: lookup("a"), lambda: lookup("b")])
        assert results == {"a": ("a", 7), "b": ("b", 7)}
        assert len(inner_calls) == 1
        assert cache.waits == 1
        assert cache.misses == cache.stores == 3

    def test_compute_asking_for_its_own_key_runs_inline(self):
        cache = ArtifactCache()
        result = []

        def compute():
            return cache.get_or_compute("k", lambda: 1) + 1

        _join_all([lambda: result.append(
            cache.get_or_compute("k", compute))])
        assert result == [2]
        assert cache.waits == 0
        assert cache.get("k") == (True, 2)

    def test_stress_one_compute_per_key(self):
        """More threads than cores, a short switch interval: every key
        is computed exactly once and every lookup is a hit or a
        compute."""
        cache = ArtifactCache()
        n_threads, keys = 8, [f"k{i}" for i in range(40)]
        lock = threading.Lock()
        computes = {}
        results = [None] * n_threads

        def compute(key):
            with lock:
                computes[key] = computes.get(key, 0) + 1
            return key.upper()

        def lookup(i):
            order = np.random.default_rng(i).permutation(len(keys))
            results[i] = [cache.get_or_compute(keys[j], lambda j=j:
                                               compute(keys[j]))
                          == keys[j].upper() for j in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _join_all([lambda i=i: lookup(i) for i in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
        assert all(all(r) for r in results)
        assert computes == {k: 1 for k in keys}
        assert cache.misses == cache.stores == len(keys)
        assert cache.hits + cache.misses == n_threads * len(keys)


class TestDiskBacking:
    def test_cross_instance_hit(self, tmp_path):
        a = ArtifactCache(disk_path=tmp_path)
        a.put("k", np.arange(7))
        b = ArtifactCache(disk_path=tmp_path)  # cold memory, warm disk
        hit, value = b.get("k")
        assert hit
        assert np.array_equal(value, np.arange(7))

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(disk_path=tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        hit, _ = cache.get("bad")
        assert not hit

    def test_pickled_clone_is_empty_but_shares_disk(self, tmp_path):
        cache = ArtifactCache(max_entries=9, disk_path=tmp_path)
        cache.put("k", np.arange(3))
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0
        assert clone.max_entries == 9
        hit, value = clone.get("k")  # via the shared directory
        assert hit
        assert np.array_equal(value, np.arange(3))


class TestConcurrentSweeps:
    def test_thread_sweeps_keep_their_own_scopes(self):
        """Two overlapping thread-backend sweeps, each in its own
        registry scope with its own cache: every cell sees its own
        sweep's cache, every counter lands in its own registry, and
        both grids equal a serial uncached sweep."""
        xs = [float(x) for x in range(6)]
        ys = [float(y) for y in range(4)]
        overlap = threading.Barrier(2)
        results = {}

        def sweep(name):
            cache = ArtifactCache()
            seen = []

            def cell(x, y):
                if (x, y) == (xs[0], ys[0]):
                    overlap.wait(10.0)  # both sweeps are mid-run
                store = artifact_cache.active()
                seen.append(store is cache)
                telemetry.active().counter(f"cells.{name}").inc()
                square = store.get_or_compute(
                    canonical_digest("square", x), lambda: x * x)
                return square > 4 * y

            with telemetry.use_registry() as reg:
                grid = ShmooRunner(cell, cache=cache).run(
                    xs, ys, executor=Executor("thread", max_workers=2))
            results[name] = (grid, cache, seen,
                             reg.to_dict()["counters"])

        _join_all([lambda: sweep("a"), lambda: sweep("b")])
        serial = ShmooRunner(lambda x, y: x * x > 4 * y).run(xs, ys)
        for name, other in (("a", "b"), ("b", "a")):
            grid, cache, seen, counters = results[name]
            assert grid.complete
            assert np.array_equal(grid.passes, serial.passes)
            assert len(seen) == len(xs) * len(ys) and all(seen)
            assert counters[f"cells.{name}"] == len(xs) * len(ys)
            assert f"cells.{other}" not in counters
            assert counters["shmoo.runs"] == counters["parallel.runs"] \
                == 1
            assert counters["cache.misses"] == cache.misses == len(xs)
            assert counters["cache.hits"] == cache.hits


class TestActivation:
    def test_use_cache_scopes_and_restores(self):
        assert not artifact_cache.enabled()
        with artifact_cache.use_cache() as cache:
            assert artifact_cache.enabled()
            assert artifact_cache.active() is cache
        assert not artifact_cache.enabled()

    def test_enable_disable(self):
        cache = artifact_cache.enable()
        try:
            assert artifact_cache.active() is cache
        finally:
            artifact_cache.disable()
        assert not artifact_cache.enabled()

    def test_null_cache_computes_every_time(self):
        null = NullCache()
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return calls["n"]

        assert null.get_or_compute("k", compute) == 1
        assert null.get_or_compute("k", compute) == 2
        assert len(null) == 0


class TestStageBitIdentity:
    """Cached pipelines must reproduce uncached outputs exactly."""

    @given(order=st.sampled_from([7, 9, 11]),
           length=st.integers(1, 400),
           seed=st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_prbs_cached_equals_uncached(self, order, length, seed):
        plain = prbs_bits(order, length, seed)
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            first = prbs_bits(order, length, seed)
            warm = prbs_bits(order, length, seed)
        assert np.array_equal(plain, first)
        assert np.array_equal(plain, warm)
        assert cache.hits == 1

    @given(rate=st.sampled_from([1.25, 2.5, 5.0]),
           n_bits=st.integers(8, 64),
           seed=st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_pipeline_cached_equals_uncached(self, rate, n_bits, seed):
        bits = prbs_bits(7, n_bits, seed)
        enc = NRZEncoder(rate, v_low=-0.4, v_high=0.4, t20_80=72.0)
        ch = LTIChannel(bandwidth_ghz=3.0, attenuation_db=1.0)
        plain = ch.apply(enc.encode(bits))
        with artifact_cache.use_cache():
            cold = ch.apply(enc.encode(bits))
            warm = ch.apply(enc.encode(bits))
        assert np.array_equal(plain.values, cold.values)
        assert np.array_equal(plain.values, warm.values)
        assert plain.t0 == warm.t0

    def test_key_sensitivity_across_stages(self):
        """Any config change must produce a distinct artifact."""
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            a = prbs_bits(7, 64, seed=1)
            b = prbs_bits(7, 64, seed=2)
            c = prbs_bits(9, 64, seed=1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert cache.stats()["entries"] == 3
        enc25 = NRZEncoder(2.5, t20_80=72.0)
        enc50 = NRZEncoder(5.0, t20_80=72.0)
        with artifact_cache.use_cache(cache):
            w1 = enc25.encode(a)
            w2 = enc50.encode(a)
        assert len(w1) != len(w2)

    def test_jittered_encode_bypasses_cache(self):
        from repro.signal.jitter import JitterBudget

        cache = ArtifactCache()
        bits = prbs_bits(7, 32)
        enc = NRZEncoder(2.5, t20_80=72.0)
        jitter = JitterBudget(rj_rms=2.0).build()
        before = cache.stats()["stores"]
        with artifact_cache.use_cache(cache):
            enc.encode(bits, jitter=jitter, rng=np.random.default_rng(1))
        assert cache.stats()["stores"] == before

    def test_eye_fold_cached(self):
        bits = prbs_bits(7, 300)
        wf = NRZEncoder(2.5, v_low=-0.4, v_high=0.4,
                        t20_80=72.0).encode(bits)
        plain = EyeDiagram.from_waveform(wf, 2.5)
        with artifact_cache.use_cache():
            cold = EyeDiagram.from_waveform(wf, 2.5)
            warm = EyeDiagram.from_waveform(wf, 2.5)
        assert warm is cold  # zero-copy hit
        assert np.array_equal(plain.voltages, warm.voltages)
        assert np.array_equal(plain.crossing_phases,
                              warm.crossing_phases)


class TestOneRoutePerStage:
    """Batch calls always compute; the single-row call is each
    signal stage's one cached route."""

    BITS = np.array([
        [0, 1, 1, 0, 1, 0, 0, 1] * 8,
        [1, 0, 1, 1, 0, 0, 1, 0] * 8,
        [0, 0, 1, 0, 1, 1, 0, 1] * 8,
    ], dtype=np.int8)

    def test_batch_calls_compute_single_row_calls_memoize(self):
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)

        def batch_chain():
            rendered = enc.encode_batch(self.BITS)
            filtered = ch.apply_batch(rendered)
            return rendered, filtered, EyeDiagram.from_batch(filtered,
                                                             2.5)

        def row_chain(bits):
            rendered = enc.encode(bits)
            filtered = ch.apply(rendered)
            return rendered, filtered, EyeDiagram.from_waveform(
                filtered, 2.5)

        def assert_same_eye(a, b):
            for field in ("voltages", "crossing_phases", "phases"):
                assert np.array_equal(getattr(a, field).view(np.uint64),
                                      getattr(b, field).view(np.uint64))
            assert a.threshold == b.threshold

        plain = batch_chain()
        cache = ArtifactCache()
        with artifact_cache.use_cache(cache):
            cached = batch_chain()
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) \
            == (0, 0, 0)
        for a, b in zip(plain[:2], cached[:2]):
            assert np.array_equal(a.values.view(np.uint64),
                                  b.values.view(np.uint64))
            assert (a.dt, a.t0) == (b.dt, b.t0)
        for a, b in zip(plain[2], cached[2]):
            assert_same_eye(a, b)

        n_keys = 3 * len(self.BITS)
        with artifact_cache.use_cache(cache):
            cold = [row_chain(bits) for bits in self.BITS]
            stats = cache.stats()
            assert (stats["hits"], stats["misses"], stats["stores"]) \
                == (0, n_keys, n_keys)
            warm = [row_chain(bits) for bits in self.BITS]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) \
            == (n_keys, n_keys, n_keys)
        for k, (first, again) in enumerate(zip(cold, warm)):
            # Hits are the stored artifacts themselves.
            assert all(x is y for x, y in zip(first, again))
            for stage in (0, 1):
                assert np.array_equal(
                    first[stage].values.view(np.uint64),
                    plain[stage].values[k].view(np.uint64))
            assert_same_eye(first[2], plain[2][k])

    def _row_route(self, stage):
        """``(single-row call, row inputs)`` of *stage*, with the
        inputs computed outside any scope."""
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        ch = LTIChannel(3.0, attenuation_db=1.0, delay_ps=50.0)
        if stage == "nrz":
            return enc.encode, list(self.BITS)
        rendered = enc.encode_batch(self.BITS)
        if stage == "lti":
            return ch.apply, rendered.waveforms()
        return (lambda wf: EyeDiagram.from_waveform(wf, 2.5),
                ch.apply_batch(rendered).waveforms())

    @pytest.mark.parametrize("stage", ("nrz", "lti", "eye"))
    def test_concurrent_row_calls_compute_each_row_once(self, stage):
        """Two threads running the same rows through a stage's
        single-row call share its computes: each row is computed and
        stored once, and both threads get the stored artifacts."""
        row_call, inputs = self._row_route(stage)
        cache = ArtifactCache()
        gate = threading.Barrier(2)
        results = [None, None]

        def run(i):
            gate.wait(10.0)
            results[i] = [row_call(x) for x in inputs]

        with artifact_cache.use_cache(cache):
            _join_all([lambda i=i: run(i) for i in range(2)])
        n = len(inputs)
        stats = cache.stats()
        assert (stats["misses"], stats["stores"], stats["hits"]) \
            == (n, n, n)
        assert all(a is b for a, b in zip(*results))

    @pytest.mark.parametrize("stage", ("nrz", "lti", "eye"))
    def test_row_entries_read_back_from_disk(self, stage, tmp_path):
        """A second cache on the same directory, as a ``process``
        chunk's clone or a later run has, reads a stage's single-row
        entries back bit for bit, waveform tokens included, without
        computing them."""
        row_call, inputs = self._row_route(stage)
        with artifact_cache.use_cache(ArtifactCache(disk_path=tmp_path)):
            first = [row_call(x) for x in inputs]
        reader = ArtifactCache(disk_path=tmp_path)
        with artifact_cache.use_cache(reader):
            again = [row_call(x) for x in inputs]
        stats = reader.stats()
        assert (stats["misses"], stats["hits"]) == (0, len(inputs))
        for a, b in zip(first, again):
            assert b is not a
            _assert_bitwise(a, b)
            if isinstance(a, Waveform):
                assert a.cache_token() == b.cache_token()


def _margin_cell(x, y):
    """Deterministic, picklable shmoo cell reusing cached stages."""
    bits = prbs_bits(7, 200)
    enc = NRZEncoder(x, v_low=-y, v_high=y, t20_80=60.0)
    wf = LTIChannel(bandwidth_ghz=4.0).apply(enc.encode(bits))
    eye = EyeDiagram.from_waveform(wf, x)
    return eye.n_crossings > 50


class TestShmooCacheEquivalence:
    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_grids_identical_cache_on_off(self, backend, tmp_path):
        xs = [1.25, 2.5]
        ys = [0.2, 0.4]
        ex = Executor(backend=backend, max_workers=2)
        off = ShmooRunner(_margin_cell).run(xs, ys, executor=ex)
        cache = ArtifactCache(disk_path=tmp_path)
        on = ShmooRunner(_margin_cell, cache=cache).run(
            xs, ys, executor=ex)
        assert np.array_equal(off.passes, on.passes)

    def test_warm_serial_sweep_hits(self):
        cache = ArtifactCache()
        runner = ShmooRunner(_margin_cell, cache=cache)
        runner.run([1.25, 2.5], [0.2, 0.4])
        assert cache.hits > 0  # cells shared stage artifacts
