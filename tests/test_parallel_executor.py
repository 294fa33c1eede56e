"""Tests for the sharded execution engine (all backends)."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache
from repro.errors import ConfigurationError
from repro.parallel import Executor, ShardError, WorkerPool

N_WORKERS = 2

BACKENDS = ("serial", "thread", "process")

#: Every backend; the contract tests below hold on each one.
ALL_BACKENDS = BACKENDS + ("remote",)


@pytest.fixture(scope="module")
def remote_pool():
    """One 2-worker pool shared by the module's remote cases."""
    pool = WorkerPool(n_workers=2).start()
    yield pool
    pool.close()


@pytest.fixture
def executor_for(request):
    """``executor_for(backend, **kwargs)`` builds an Executor; remote
    cases run on the module's shared pool."""
    def make(backend, **kwargs):
        if backend == "remote":
            kwargs["backend_options"] = {
                "pool": request.getfixturevalue("remote_pool")}
        return Executor(backend=backend, **kwargs)
    return make


# Module-level work functions so the process backend can pickle them.

def square(item, seed):
    return item * item


def seed_echo(item, seed):
    return seed


def fail_on_three(item, seed):
    if item == 3:
        raise ValueError("item three always fails")
    return item


def slow_item(item, seed):
    time.sleep(item)
    return item


def crash_worker(item, seed):
    os._exit(13)


def cache_view(item, seed):
    """The active cache as the chunk running *item* sees it."""
    cache = artifact_cache.active()
    disk = getattr(cache, "disk_path", None)
    return (cache.enabled, len(cache),
            getattr(cache, "max_entries", None),
            None if disk is None else str(disk))


class TestConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor(backend="gpu")

    def test_unknown_backend_error_lists_all_four(self):
        with pytest.raises(ConfigurationError) as err:
            Executor(backend="quantum")
        for name in ALL_BACKENDS:
            assert name in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0}, {"chunk_size": 0},
        {"max_retries": -1}, {"timeout_s": 0.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Executor(**kwargs)

    def test_empty_work_rejected(self):
        with pytest.raises(ConfigurationError):
            Executor().run(square, [])

    def test_repr_names_backend(self):
        assert "thread" in repr(Executor(backend="thread"))


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_canonical_order(self, backend):
        ex = Executor(backend=backend, max_workers=N_WORKERS)
        out = ex.run(square, list(range(23)))
        assert out.ok
        assert out.results == [i * i for i in range(23)]
        assert out.n_completed == 23

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeds_deterministic_across_backends(self, backend):
        ex = Executor(backend=backend, max_workers=N_WORKERS)
        seeds = ex.run(seed_echo, list(range(8)), seed_root=42).results
        serial = Executor().run(seed_echo, list(range(8)),
                                seed_root=42).results
        assert seeds == serial
        assert len(set(seeds)) == 8  # independent streams

    def test_no_seed_root_passes_none(self):
        out = Executor().run(seed_echo, [1, 2, 3])
        assert out.results == [None, None, None]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_parent_counters_backend_invariant(self, backend,
                                               executor_for):
        ex = executor_for(backend, max_workers=2, chunk_size=3)
        with telemetry.use_registry() as reg:
            ex.run(square, list(range(10)))
        counters = reg.to_dict()["counters"]
        assert counters["parallel.runs"] == 1
        assert counters["parallel.chunks"] == 4
        assert counters["parallel.items"] == 10


class TestChunking:
    def test_explicit_chunk_size(self):
        with telemetry.use_registry() as reg:
            Executor(chunk_size=4).run(square, list(range(10)))
        assert reg.to_dict()["counters"]["parallel.chunks"] == 3

    def test_default_chunking_scales_with_workers(self):
        ex = Executor(backend="thread", max_workers=2)
        with telemetry.use_registry() as reg:
            ex.run(square, list(range(100)))
        # ~4 chunks per worker.
        assert reg.to_dict()["counters"]["parallel.chunks"] == 8


class TestRetry:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_exhausted_retries_raise(self, backend, executor_for):
        ex = executor_for(backend, max_workers=N_WORKERS,
                          max_retries=1, chunk_size=1)
        with pytest.raises(ShardError, match="failed after 2"):
            ex.run(fail_on_three, list(range(5)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_zero_retries_fail_fast(self, backend, executor_for):
        ex = executor_for(backend, max_retries=0, chunk_size=1)
        with pytest.raises(ShardError, match="after 1 attempt"):
            ex.run(fail_on_three, [3])

    def test_flaky_chunk_retried_to_success(self):
        attempts = {"n": 0}
        lock = threading.Lock()

        def flaky(item, seed):
            with lock:
                attempts["n"] += 1
                if attempts["n"] == 1:
                    raise RuntimeError("transient")
            return item

        ex = Executor(backend="thread", max_workers=2,
                      max_retries=2, chunk_size=2)
        with telemetry.use_registry() as reg:
            out = ex.run(flaky, [10, 20, 30, 40])
        assert out.ok
        assert out.results == [10, 20, 30, 40]
        assert out.retries == 1
        assert reg.to_dict()["counters"]["parallel.retries"] == 1

    def test_process_worker_crash_exhausts_retries(self):
        ex = Executor(backend="process", max_workers=1,
                      max_retries=1, chunk_size=1)
        with pytest.raises(ShardError, match="crashed"):
            ex.run(crash_worker, [1])


class TestTimeout:
    # The serial backend runs chunks inline and never times out.
    @pytest.mark.parametrize("backend", ("thread", "process", "remote"))
    def test_timeout_raises_after_retries(self, backend, executor_for):
        ex = executor_for(backend, max_workers=2, max_retries=0,
                          timeout_s=0.1, chunk_size=1)
        with pytest.raises(ShardError, match="timed out"):
            ex.run(slow_item, [1.0])

    def test_fast_work_beats_timeout(self):
        ex = Executor(backend="thread", max_workers=2,
                      timeout_s=10.0, chunk_size=2)
        out = ex.run(square, list(range(6)))
        assert out.ok

    @pytest.mark.parametrize("backend", ("thread", "process", "remote"))
    def test_timeout_counted_in_telemetry(self, backend, executor_for):
        ex = executor_for(backend, max_workers=2, max_retries=0,
                          timeout_s=0.1, chunk_size=1)
        with telemetry.use_registry() as reg:
            with pytest.raises(ShardError):
                ex.run(slow_item, [1.0])
        assert reg.to_dict()["counters"]["parallel.timeouts"] == 1

    def test_process_timeout_stops_the_wedged_worker(self, tmp_path):
        # Interpreter exit joins the process pool's workers, so a
        # timed-out worker left running would hold the exit for the
        # whole 60 s sleep.
        script = tmp_path / "wedged.py"
        script.write_text(textwrap.dedent("""
            import time
            from repro.parallel import Executor, ShardError

            def nap(item, seed):
                time.sleep(item)

            if __name__ == "__main__":
                ex = Executor("process", max_workers=1, max_retries=0,
                              timeout_s=0.3)
                try:
                    ex.run(nap, [60.0])
                except ShardError as exc:
                    print(exc)
        """))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=15.0)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("interpreter exit waited for the wedged worker")
        assert proc.returncode == 0, err
        assert "timed out" in out


class TestAbortAndProgress:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_abort_before_start_yields_nothing(self, backend,
                                               executor_for):
        ex = executor_for(backend, max_workers=N_WORKERS)
        out = ex.run(square, list(range(10)),
                     should_abort=lambda: True)
        assert out.aborted
        assert not out.ok

    def test_serial_abort_mid_run_keeps_partials(self):
        done = []

        def count(item, seed):
            done.append(item)
            return item

        ex = Executor(chunk_size=2)
        out = ex.run(count, list(range(10)),
                     should_abort=lambda: len(done) >= 4)
        assert out.aborted
        assert 4 <= out.n_completed < 10
        assert out.results[:4] == [0, 1, 2, 3]

    def test_progress_reports_cumulative_items(self):
        seen = []
        ex = Executor(chunk_size=3)
        ex.run(square, list(range(7)),
               progress=lambda done, total, idx: seen.append(
                   (done, total, idx)))
        assert [s[0] for s in seen] == [3, 6, 7]
        assert all(s[1] == 7 for s in seen)
        assert [i for s in seen for i in s[2]] == list(range(7))

    def test_abort_counter(self):
        ex = Executor()
        with telemetry.use_registry() as reg:
            ex.run(square, [1], should_abort=lambda: True)
        assert reg.to_dict()["counters"]["parallel.aborts"] == 1


class TestWorkerTelemetryMerge:
    def test_process_worker_counters_merge_to_parent(self):
        ex = Executor(backend="process", max_workers=N_WORKERS,
                      chunk_size=2)
        with telemetry.use_registry() as reg:
            ex.run(counting_work, list(range(9)), seed_root=1)
        counters = reg.to_dict()["counters"]
        assert counters["worker.calls"] == 9
        # Worker span timers pool across processes too.
        assert reg.to_dict()["timers"]["worker.step"]["count"] == 9

    def test_serial_backend_records_directly(self):
        with telemetry.use_registry() as reg:
            Executor().run(counting_work, list(range(4)))
        assert reg.to_dict()["counters"]["worker.calls"] == 4

    def test_disabled_telemetry_stays_silent(self):
        telemetry.disable()
        out = Executor(backend="process", max_workers=N_WORKERS).run(
            counting_work, list(range(4)))
        assert out.ok


def counting_work(item, seed):
    tel = telemetry.active()
    with tel.span("worker.step"):
        tel.counter("worker.calls").inc()
    return item


class TestCallbackGuard:
    """Raising caller hooks must degrade to a clean abort, never a
    mid-run crash (satellite of the service layer: a buggy client
    callback cannot take down a worker slot)."""

    def test_raising_progress_converts_to_abort(self):
        def bad_progress(done, total, idx):
            raise RuntimeError("client hook bug")

        ex = Executor(chunk_size=2)
        with telemetry.use_registry() as reg:
            out = ex.run(square, list(range(10)),
                         progress=bad_progress)
        assert out.aborted
        # The first chunk completed before its progress tick blew up.
        assert out.n_completed >= 2
        assert out.results[:2] == [0, 1]
        counters = reg.to_dict()["counters"]
        assert counters["parallel.callback_errors"] == 1
        assert counters["parallel.aborts"] == 1

    def test_raising_should_abort_converts_to_abort(self):
        calls = []

        def bad_abort():
            calls.append(1)
            raise ValueError("flaky sensor")

        ex = Executor(chunk_size=2)
        with telemetry.use_registry() as reg:
            out = ex.run(square, list(range(10)),
                         should_abort=bad_abort)
        assert out.aborted
        assert len(calls) == 1  # latched: never called again
        assert reg.to_dict()["counters"][
            "parallel.callback_errors"] == 1

    def test_healthy_hooks_unaffected(self):
        seen = []
        ex = Executor(chunk_size=2)
        with telemetry.use_registry() as reg:
            out = ex.run(square, list(range(4)),
                         progress=lambda d, t, i: seen.append(d),
                         should_abort=lambda: False)
        assert out.ok and not out.aborted
        assert seen == [2, 4]
        assert "parallel.callback_errors" not in \
            reg.to_dict()["counters"]

    def test_shmoo_serial_raising_progress_partial_grid(self):
        from repro.host.shmoo import ShmooRunner

        def bad_progress(done, total):
            if done >= 3:
                raise RuntimeError("plotter died")

        runner = ShmooRunner(lambda x, y: x > y)
        with telemetry.use_registry() as reg:
            result = runner.run([0, 1, 2], [0, 1, 2],
                                progress=bad_progress)
        assert not result.complete
        assert 3 <= int(result.evaluated.sum()) < 9
        assert reg.to_dict()["counters"][
            "parallel.callback_errors"] == 1

    def test_shmoo_sharded_counts_error_once(self):
        """ShmooRunner wraps hooks, then Executor wraps again; the
        inner guard swallows the exception so the counter must
        increment exactly once."""
        from repro.host.shmoo import ShmooRunner

        def bad_abort():
            raise RuntimeError("hook bug")

        runner = ShmooRunner(lambda x, y: True)
        with telemetry.use_registry() as reg:
            result = runner.run([0, 1, 2, 3], [0, 1],
                                should_abort=bad_abort,
                                executor=Executor(chunk_size=2))
        assert not result.complete
        assert reg.to_dict()["counters"][
            "parallel.callback_errors"] == 1

    def test_shmoo_adaptive_raising_hook_aborts_cleanly(self):
        from repro.host.shmoo import ShmooRunner

        def bad_abort():
            raise RuntimeError("hook bug")

        runner = ShmooRunner(lambda x, y: x >= y)
        with telemetry.use_registry() as reg:
            result = runner.run_adaptive(list(range(8)),
                                         list(range(8)),
                                         coarse_step=4,
                                         should_abort=bad_abort)
        assert not result.complete
        assert reg.to_dict()["counters"][
            "parallel.callback_errors"] == 1


class TestProcessChunkCache:
    """A ``process`` chunk runs in an empty clone of the caller's
    active cache, whatever the pool's start method."""

    @pytest.fixture(params=("fork", "spawn"))
    def start_method(self, request, monkeypatch):
        ctx = multiprocessing.get_context(request.param)
        monkeypatch.setattr(
            Executor, "_make_pool",
            lambda self: ProcessPoolExecutor(self.max_workers,
                                             mp_context=ctx))
        return request.param

    def test_chunks_see_an_empty_clone(self, start_method, tmp_path):
        cache = ArtifactCache(max_entries=7, disk_path=tmp_path)
        cache.put("caller-only", 1)
        with artifact_cache.use_cache(cache):
            out = Executor("process", max_workers=N_WORKERS,
                           chunk_size=2).run(cache_view, list(range(4)))
        assert out.results == [(True, 0, 7, str(tmp_path))] * 4
        assert len(cache) == 1  # the caller's cache is its own

    def test_no_cache_when_caching_is_off(self, start_method):
        with artifact_cache.use_cache(artifact_cache.NULL_CACHE):
            out = Executor("process", max_workers=N_WORKERS,
                           chunk_size=2).run(cache_view, list(range(4)))
        assert out.results == [(False, 0, None, None)] * 4

    def test_unpicklable_work_named_before_wrapping(self):
        with artifact_cache.use_cache(ArtifactCache()):
            with pytest.raises(ConfigurationError,
                               match="<lambda> is not picklable"):
                Executor("process").run(lambda item, seed: item, [1])
