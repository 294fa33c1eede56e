"""Distributed executor backend: pool, protocol, ledger, cache tier.

The remote backend's contract is the serial backend's contract: same
per-item seeds, same canonical reassembly, same telemetry totals —
plus survival of worker death mid-run. These tests exercise the
master/worker protocol against real spawned worker processes on
localhost sockets, the pure :class:`ChunkLedger` state machine under
hypothesis, and the shared read-through cache tier both in isolation
and over the wire.
"""

import functools
import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache as artifact_cache
from repro import telemetry
from repro.cache import ArtifactCache, RemoteCacheTier
from repro.errors import ConfigurationError
from repro.host.session import TestSession
from repro.host.shmoo import ShmooRunner
from repro.parallel import (
    ChunkLedger, Executor, ShardError, WorkerPool, transport,
)
from repro.wafer.map import WaferMap
from repro.wafer.probe import ProbeCard
from repro.wafer.scheduler import MultiSiteScheduler

N_WORKERS = 2


# Module-level work functions so workers can unpickle them.

def square(item, seed):
    return item * item


def seed_echo(item, seed):
    return seed


def counting_work(item, seed):
    tel = telemetry.active()
    with tel.span("worker.step"):
        tel.counter("worker.calls").inc()
    return item


def gate(x, y):
    return x + y > 4.0


def sleepy(item, seed):
    time.sleep(float(item))
    return item


def exit_once(flag_path, item, seed):
    """Die hard (SIGKILL-equivalent) the first time item 5 runs."""
    if item == 5:
        try:
            with open(flag_path, "x"):
                pass
        except FileExistsError:
            pass  # requeued attempt: survive
        else:
            os._exit(13)
    return item * 7


def stall_once(flag_path, item, seed):
    """Freeze this worker process the first time item 2 runs."""
    if item == 2:
        try:
            with open(flag_path, "x"):
                pass
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGSTOP)
    return item + 100


def always_exit(item, seed):
    os._exit(13)


def cached_bucket(prefix, item, seed):
    """Work that funnels through the active artifact cache."""
    bucket = item // 4
    return artifact_cache.active().get_or_compute(
        f"{prefix}:{bucket}", lambda: bucket * 100 + 5)


def column_gate(x, y):
    """A shmoo cell reading one shared and one per-column artifact
    through the active cache."""
    cache = artifact_cache.active()
    base = cache.get_or_compute("rt-shmoo:base", lambda: 4.0)
    return x + y > cache.get_or_compute(f"rt-shmoo:col:{x!r}",
                                        lambda: base)


@pytest.fixture(scope="module")
def shared_pool():
    """One 2-worker pool shared by the non-destructive tests."""
    pool = WorkerPool(n_workers=2).start()
    yield pool
    pool.close()


def remote_executor(pool, **kwargs):
    """Executor on an injected (shared, not owned) pool."""
    kwargs.setdefault("max_workers", 2)
    return Executor(backend="remote",
                    backend_options={"pool": pool}, **kwargs)


# -- submit-time portability fail-fast -------------------------------------

class TestPortabilityFailFast:
    def test_lambda_rejected_on_process_backend(self):
        with pytest.raises(ConfigurationError, match="not picklable"):
            Executor(backend="process").run(
                lambda item, seed: item, [1, 2, 3])

    def test_lambda_rejected_before_remote_pool_spawns(self):
        ex = Executor(backend="remote", max_workers=2)
        with pytest.raises(ConfigurationError, match="not picklable"):
            ex.run(lambda item, seed: item, [1, 2, 3])
        # Fail-fast means no worker processes were ever launched.
        assert ex._remote_pool is None

    def test_unpicklable_item_rejected(self):
        with pytest.raises(ConfigurationError, match="work item"):
            Executor(backend="process").run(
                square, [threading.Lock()])

    def test_main_module_function_rejected_on_remote(self):
        def fn(item, seed):
            return item

        fn.__module__ = "__main__"
        fn.__qualname__ = "fn"
        with pytest.raises(ConfigurationError, match="__main__"):
            Executor(backend="remote").run(fn, [1, 2])

    def test_serial_backend_skips_the_check(self):
        out = Executor().run(lambda item, seed: item + 1, [1, 2])
        assert out.results == [2, 3]


# -- remote == serial equivalence ------------------------------------------

class TestRemoteEquivalence:
    def test_results_in_canonical_order(self, shared_pool):
        out = remote_executor(shared_pool, chunk_size=3).run(
            square, list(range(23)))
        assert out.ok
        assert out.results == [i * i for i in range(23)]
        assert out.n_completed == 23

    def test_seeds_match_serial(self, shared_pool):
        remote = remote_executor(shared_pool, chunk_size=2).run(
            seed_echo, list(range(8)), seed_root=42).results
        serial = Executor().run(seed_echo, list(range(8)),
                                seed_root=42).results
        assert remote == serial

    def test_worker_telemetry_merges_to_parent(self, shared_pool):
        ex = remote_executor(shared_pool, chunk_size=2)
        with telemetry.use_registry() as reg:
            ex.run(counting_work, list(range(9)), seed_root=1)
        snap = reg.to_dict()
        assert snap["counters"]["worker.calls"] == 9
        assert snap["timers"]["worker.step"]["count"] == 9

    def test_remote_counters_and_worker_gauges(self, shared_pool):
        ex = remote_executor(shared_pool, chunk_size=4)
        with telemetry.use_registry() as reg:
            ex.run(square, list(range(16)))
        snap = reg.to_dict()
        assert snap["counters"]["parallel.remote.dispatches"] >= 4
        gauges = snap["gauges"]
        assert gauges["parallel.remote.workers_alive"] == 2
        assert "parallel.remote.worker.alive{worker=w0}" in gauges
        assert "parallel.remote.worker.chunks_done{worker=w1}" \
            in gauges

    def test_shmoo_grid_bit_identical(self, shared_pool):
        xs = [float(x) for x in range(6)]
        ys = [float(y) for y in range(5)]
        serial = ShmooRunner(gate).run(xs, ys)
        remote = ShmooRunner(gate).run(
            xs, ys, executor=remote_executor(shared_pool, chunk_size=8))
        assert (serial.passes == remote.passes).all()
        assert (serial.evaluated == remote.evaluated).all()
        assert serial.complete and remote.complete

    def test_ber_characterization_bit_identical(self, shared_pool):
        session = TestSession()
        session.run_bring_up()
        serial = session.characterize_ber(total_bits=3000,
                                          n_shards=3, seed=5)
        remote = session.characterize_ber(
            total_bits=3000, n_shards=3, seed=5,
            executor=remote_executor(shared_pool))
        assert serial.total_bits == remote.total_bits
        assert serial.total_errors == remote.total_errors
        assert serial.shard_errors == remote.shard_errors

    def test_wafer_sort_matches_serial_executor(self, shared_pool):
        def sort_with(executor):
            wafer = WaferMap(diameter_mm=40.0, die_width_mm=6.0,
                             die_height_mm=6.0)
            sched = MultiSiteScheduler(
                ProbeCard(n_sites=4, contact_yield=1.0),
                executor=executor)
            result = sched.sort_wafer(wafer, seed=3)
            states = [d.state for d in wafer]
            times = sorted(a.test_time_s
                           for a in result.assignments)
            return states, times, result.dies_tested

        # Both run the concurrent touchdown path with identical
        # per-site seeds; backend choice must not change outcomes.
        assert sort_with(Executor()) \
            == sort_with(remote_executor(shared_pool))


# -- worker failure --------------------------------------------------------

class TestWorkerFailure:
    def test_kill_mid_chunk_requeues_bit_identical(self, tmp_path):
        fn = functools.partial(exit_once,
                               str(tmp_path / "died.flag"))
        with WorkerPool(n_workers=2) as pool:
            ex = remote_executor(pool, chunk_size=3)
            with telemetry.use_registry() as reg:
                out = ex.run(fn, list(range(12)))
            assert out.ok
            assert out.results == [i * 7 for i in range(12)]
            counters = reg.to_dict()["counters"]
            assert counters["parallel.remote.worker_deaths"] >= 1
            assert counters["parallel.remote.requeues"] >= 1
        assert (tmp_path / "died.flag").exists()

    def test_heartbeat_timeout_detects_frozen_worker(self, tmp_path):
        fn = functools.partial(stall_once,
                               str(tmp_path / "stall.flag"))
        with WorkerPool(n_workers=2, heartbeat_s=0.1,
                        heartbeat_timeout_s=0.6) as pool:
            ex = remote_executor(pool, chunk_size=2)
            with telemetry.use_registry() as reg:
                out = ex.run(fn, list(range(8)))
            assert out.results == [i + 100 for i in range(8)]
            counters = reg.to_dict()["counters"]
            assert counters["parallel.remote.heartbeat_misses"] >= 1
            assert counters["parallel.remote.worker_deaths"] >= 1

    def test_busy_worker_is_not_declared_dead(self):
        # A chunk far longer than the heartbeat timeout must not
        # kill the worker: pongs come from the reader thread.
        with WorkerPool(n_workers=1, heartbeat_s=0.1,
                        heartbeat_timeout_s=0.35) as pool:
            ex = remote_executor(pool, chunk_size=1)
            with telemetry.use_registry() as reg:
                out = ex.run(sleepy, [1.0])
            assert out.results == [1.0]
            counters = reg.to_dict()["counters"]
            assert "parallel.remote.worker_deaths" not in counters

    def test_all_workers_dead_raises_shard_error(self):
        with WorkerPool(n_workers=2) as pool:
            ex = remote_executor(pool, chunk_size=2)
            with pytest.raises(ShardError,
                               match="no live remote workers"):
                ex.run(always_exit, list(range(8)))

    def test_chunk_timeout_fires_on_remote_backend(self):
        # A wedged chunk must trip timeout_s even though the
        # worker's reader thread keeps answering heartbeats.
        with WorkerPool(n_workers=1) as pool:
            ex = remote_executor(pool, chunk_size=1, max_retries=0,
                                 timeout_s=0.25)
            with telemetry.use_registry() as reg:
                with pytest.raises(ShardError, match="timed out"):
                    ex.run(sleepy, [5.0])
            counters = reg.to_dict()["counters"]
            assert counters["parallel.timeouts"] == 1

    def test_chunk_timeout_fires_while_results_stream_in(self):
        # The deadline is checked on every turn of the loop, not only
        # after an idle poll: a second worker returning 10 ms chunks
        # must not hold off the first worker's timeout.
        with WorkerPool(n_workers=2) as pool:
            # Warm both workers, so importing this module does not
            # leave the master an idle poll during the timed run.
            warm = remote_executor(pool, chunk_size=1)
            assert warm.run(sleepy, [0.0, 0.0]).ok
            ex = remote_executor(pool, chunk_size=1, max_retries=0,
                                 timeout_s=0.25)
            t0 = time.monotonic()
            with pytest.raises(ShardError, match="timed out"):
                ex.run(sleepy, [3.0] + [0.01] * 300)
            assert time.monotonic() - t0 < 1.0

    def test_chunk_timeout_fails_the_wedged_worker(self):
        # With retry budget left, the timed-out chunk requeues via
        # the worker-death path and the run surfaces the right
        # terminal error (here: the last worker is gone).
        with WorkerPool(n_workers=1) as pool:
            ex = remote_executor(pool, chunk_size=1, max_retries=2,
                                 timeout_s=0.25)
            with telemetry.use_registry() as reg:
                with pytest.raises(ShardError):
                    ex.run(sleepy, [5.0])
            counters = reg.to_dict()["counters"]
            assert counters["parallel.remote.worker_deaths"] >= 1

    def test_chunk_failure_still_charges_retries(self, tmp_path):
        def run():
            with WorkerPool(n_workers=2) as pool:
                remote_executor(pool, max_retries=1).run(
                    fail_three, list(range(6)))

        with pytest.raises(ShardError, match="chunk"):
            run()


def fail_three(item, seed):
    if item == 3:
        raise ValueError("item three always fails")
    return item


# -- wire protocol ---------------------------------------------------------

class TestProtocol:
    def _dial(self, pool):
        import socket

        sock = socket.create_connection(pool.address, timeout=5.0)
        return transport.MessageStream(sock)

    def test_connection_opens_with_a_challenge(self, shared_pool):
        stream = self._dial(shared_pool)
        try:
            challenge = stream.recv()
            assert challenge["type"] == "challenge"
            assert challenge["protocol"] == \
                transport.PROTOCOL_VERSION
            assert challenge["nonce"]
        finally:
            stream.close()

    def test_protocol_mismatch_rejected(self, shared_pool):
        stream = self._dial(shared_pool)
        try:
            stream.recv()  # challenge
            stream.send({"type": "hello", "protocol": 99,
                         "worker": "intruder", "pid": 1})
            reply = stream.recv()
            assert reply["type"] == "reject"
            assert "protocol mismatch" in reply["reason"]
        finally:
            stream.close()

    def test_wrong_secret_rejected(self, shared_pool):
        stream = self._dial(shared_pool)
        try:
            challenge = stream.recv()
            stream.send(transport.hello_frame(
                "mallory", 1,
                auth=transport.auth_digest(
                    "not-the-secret", challenge["nonce"], "worker"),
                nonce=transport.new_nonce()))
            reply = stream.recv()
            assert reply["type"] == "reject"
            assert "authentication failed" in reply["reason"]
        finally:
            stream.close()

    def test_duplicate_worker_name_rejected(self, shared_pool):
        stream = self._dial(shared_pool)
        try:
            challenge = stream.recv()
            stream.send(transport.hello_frame(
                "w0", os.getpid(),
                auth=transport.auth_digest(
                    shared_pool.secret, challenge["nonce"],
                    "worker"),
                nonce=transport.new_nonce()))
            reply = stream.recv()
            assert reply["type"] == "reject"
            assert "already connected" in reply["reason"]
        finally:
            stream.close()

    def test_welcome_proves_the_master_knows_the_secret(
            self, shared_pool):
        stream = self._dial(shared_pool)
        try:
            challenge = stream.recv()
            my_nonce = transport.new_nonce()
            stream.send(transport.hello_frame(
                "probe-mutual", os.getpid(),
                auth=transport.auth_digest(
                    shared_pool.secret, challenge["nonce"],
                    "worker"),
                nonce=my_nonce))
            reply = stream.recv()
            assert reply["type"] == "welcome"
            assert transport.check_digest(
                shared_pool.secret, my_nonce, "master",
                reply["auth"])
        finally:
            stream.close()

    def test_external_worker_joins_listening_pool(self):
        import subprocess

        pool = WorkerPool(n_workers=0, spawn=False)
        proc = None
        try:
            pool.start()
            host, port = pool.address
            env = os.environ.copy()
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in sys.path if p)
            # External launches must present the pool's secret.
            env[transport.SECRET_ENV] = pool.secret
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.worker",
                 "--connect", f"{host}:{port}",
                 "--name", "external-0"],
                env=env)
            assert pool.wait_for_workers(1, timeout_s=30.0) == 1
            out = remote_executor(pool).run(square, list(range(9)))
            assert out.results == [i * i for i in range(9)]
        finally:
            pool.close()
            if proc is not None:
                assert proc.wait(timeout=10.0) == 0

    def test_payload_roundtrip(self):
        payload = {"entries": [(0, 1.5, 7)], "arr": list(range(50))}
        assert transport.unpack_payload(
            transport.pack_payload(payload)) == payload


# -- wire frame size limits ------------------------------------------------

def big_result(item, seed):
    """Result whose pickled frame exceeds the 16 MiB wire line."""
    return b"\x00" * (14 * 1024 * 1024)


class TestWireLimits:
    def test_oversized_chunk_is_an_actionable_config_error(
            self, shared_pool):
        # One item whose base64 pickle alone exceeds the line cap:
        # dispatch must refuse it with advice, not declare every
        # worker dead in sequence.
        big = b"\x00" * (14 * 1024 * 1024)
        ex = remote_executor(shared_pool, chunk_size=1)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ex.run(square, [big])

    def test_oversized_result_fails_with_advice(self, shared_pool):
        ex = remote_executor(shared_pool, chunk_size=1,
                             max_retries=0)
        with pytest.raises(ShardError,
                           match="does not fit the wire"):
            ex.run(big_result, [0])
        # The worker survived the oversized reply: the connection
        # was preserved, only the chunk failed.
        assert shared_pool.n_alive == 2


# -- the dispatch state machine --------------------------------------------

class TestChunkLedger:
    def test_lifecycle(self):
        ledger = ChunkLedger(3)
        assert ledger.assign("w0") == 0
        assert ledger.assign("w1") == 1
        assert ledger.complete(0, "w0")
        assert ledger.requeue_worker("w1") == [1]
        # Requeued work dispatches before fresh work.
        assert ledger.assign("w0") == 1
        assert ledger.complete(1, "w0")
        assert ledger.assign("w0") == 2
        assert ledger.complete(2, "w0")
        assert ledger.finished
        ledger.check_invariants()

    def test_needs_at_least_one_chunk(self):
        with pytest.raises(ConfigurationError):
            ChunkLedger(0)

    @settings(max_examples=200, deadline=None)
    @given(
        n_chunks=st.integers(1, 12),
        max_retries=st.integers(0, 3),
        timeout_s=st.sampled_from([None, 1.0]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["assign", "assign", "start", "start",
                                 "complete", "stale", "fail", "tick",
                                 "tick", "kill"]),
                st.integers(0, 2)),
            min_size=20, max_size=150),
    )
    def test_any_failure_sequence_yields_each_chunk_once(
            self, n_chunks, max_retries, timeout_s, ops):
        """Any interleaving of dispatch, start, completion (by the
        holder or a stale worker), failure, expiry on an advancing
        clock and worker death keeps the books: every chunk completes
        exactly once, or ShardError is raised exactly when a chunk's
        attempts exceed max_retries. Stopping early stands in for an
        abort."""
        ledger = ChunkLedger(n_chunks, max_retries=max_retries,
                             timeout_s=timeout_s)
        # The model: queue order, who holds what, armed deadlines,
        # charges.
        pending = list(range(n_chunks))
        holder, deadline = {}, {}
        attempts = [0] * n_chunks
        expiries = 0
        completed = set()
        now = 0.0
        raised = False

        def held_by(worker):
            return sorted(c for c, w in holder.items() if w == worker)

        def charge(cid):
            del holder[cid]
            deadline.pop(cid, None)
            pending.insert(0, cid)  # retries run before fresh work
            attempts[cid] += 1
            return attempts[cid] > max_retries

        for op, k in ops:
            worker = f"w{k}"
            exhausted = False
            try:
                if op == "assign":
                    cid = ledger.assign(worker)
                    assert cid == (pending.pop(0) if pending else None)
                    if cid is not None:
                        assert cid not in holder
                        assert cid not in completed
                        holder[cid] = worker
                elif op == "start":
                    for cid in held_by(worker):
                        ledger.start(cid, now)
                        if timeout_s is not None:
                            deadline.setdefault(cid, now + timeout_s)
                elif op == "complete" and held_by(worker):
                    cid = held_by(worker)[0]
                    assert ledger.complete(cid, worker)
                    assert cid not in completed
                    completed.add(cid)
                    del holder[cid]
                    deadline.pop(cid, None)
                elif op == "stale":
                    # A worker that does not hold the chunk (it died,
                    # or the chunk timed out) reports on it.
                    cid = k % n_chunks
                    stale = next(w for w in ("w0", "w1", "w2")
                                 if holder.get(cid) != w)
                    before = (list(ledger.pending),
                              dict(ledger.in_flight),
                              set(ledger.done), list(ledger.attempts))
                    assert not ledger.complete(cid, stale)
                    assert not ledger.fail(cid, stale, "late")
                    assert before == (list(ledger.pending),
                                      dict(ledger.in_flight),
                                      set(ledger.done),
                                      list(ledger.attempts))
                elif op == "fail" and held_by(worker):
                    cid = held_by(worker)[0]
                    exhausted = charge(cid)
                    assert ledger.fail(cid, worker, "boom")
                elif op == "tick":
                    now += 0.5 * (k + 1)
                    # Late chunks are charged in id order; the first
                    # one out of attempts raises.
                    expected = []
                    for cid in sorted(c for c, d in deadline.items()
                                      if now > d):
                        expected.append((cid, holder[cid]))
                        expiries += 1
                        if charge(cid):
                            exhausted = True
                            break
                    assert ledger.expired(now) == expected
                elif op == "kill":
                    lost = ledger.requeue_worker(worker)
                    assert lost == held_by(worker)
                    for cid in lost:
                        del holder[cid]
                        deadline.pop(cid, None)
                    pending[:0] = lost
            except ShardError:
                raised = True
            assert raised == exhausted
            ledger.check_invariants()
            assert list(ledger.pending) == pending
            assert ledger.in_flight == holder
            assert ledger.deadlines == deadline
            assert ledger.attempts == attempts
            assert ledger.retries == sum(attempts)
            assert ledger.timeouts == expiries
            if raised:
                break
        if not raised:
            # Drain: the holders finish, then one survivor runs the
            # rest; every chunk completes exactly once.
            for cid, worker in list(holder.items()):
                assert ledger.complete(cid, worker)
                completed.add(cid)
            while not ledger.finished:
                cid = ledger.assign("w0")
                assert cid is not None and cid not in completed
                assert ledger.complete(cid, "w0")
                completed.add(cid)
                ledger.check_invariants()
            assert completed == ledger.done == set(range(n_chunks))
            assert not ledger.pending and not ledger.in_flight


# -- the read-through cache tier (unit) ------------------------------------

class FakeMaster:
    """In-memory stand-in for the master's cache over the wire."""

    def __init__(self, store=None):
        self.store = dict(store or {})
        self.fetches = 0
        self.publishes = 0

    def fetch(self, key):
        self.fetches += 1
        if key in self.store:
            return True, self.store[key]
        return False, None

    def publish(self, key, value):
        self.publishes += 1
        self.store[key] = value


class TestRemoteCacheTier:
    def test_miss_compute_publish(self):
        master = FakeMaster()
        tier = RemoteCacheTier(master.fetch, master.publish)
        value = tier.get_or_compute("k", lambda: 41 + 1)
        assert value == 42
        assert master.store["k"] == 42
        assert tier.stats()["misses"] == 1
        assert tier.stats()["puts"] == 1

    def test_remote_hit_populates_local_front(self):
        master = FakeMaster({"k": 7})
        tier = RemoteCacheTier(master.fetch, master.publish)
        assert tier.get("k") == (True, 7)
        assert master.fetches == 1
        # Second probe is served locally — no second round trip.
        assert tier.get("k") == (True, 7)
        assert master.fetches == 1
        stats = tier.stats()
        assert stats["remote_hits"] == 1
        assert stats["local_hits"] == 1

    def test_clear_drops_local_not_master(self):
        master = FakeMaster({"k": 7})
        tier = RemoteCacheTier(master.fetch, master.publish)
        tier.get("k")
        tier.clear()
        assert "k" not in tier
        assert tier.get("k") == (True, 7)
        assert master.fetches == 2

    def test_degrades_to_miss_like_worker_binding(self):
        # The worker's fetch binding swallows wire errors; the tier
        # then counts a plain miss.
        tier = RemoteCacheTier(lambda key: (False, None),
                               lambda key, value: None)
        assert tier.get("gone") == (False, None)
        assert tier.stats()["misses"] == 1

    def test_telemetry_counters(self):
        master = FakeMaster({"warm": 1})
        tier = RemoteCacheTier(master.fetch, master.publish)
        with telemetry.use_registry() as reg:
            tier.get("warm")          # remote hit
            tier.get("warm")          # local hit
            tier.get_or_compute("cold", lambda: 2)
        counters = reg.to_dict()["counters"]
        assert counters["cache.hits"] == 2
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 1
        assert counters["cache.remote.hits"] == 1
        assert counters["cache.remote.local_hits"] == 1
        assert counters["cache.remote.puts"] == 1


# -- shared cache over the wire --------------------------------------------

class TestSharedCacheReadThrough:
    def test_workers_read_master_prepopulated_entries(
            self, shared_pool):
        cache = ArtifactCache()
        cache.put("rt-warm:0", 111)  # bucket 0 pre-warmed
        fn = functools.partial(cached_bucket, "rt-warm")
        ex = remote_executor(shared_pool, chunk_size=2)
        with telemetry.use_registry() as reg:
            with artifact_cache.use_cache(cache):
                out = ex.run(fn, list(range(8)))
        # Bucket 0 came from the master's pre-warmed entry; bucket 1
        # was computed on a worker.
        assert out.results == [111] * 4 + [105] * 4
        counters = reg.to_dict()["counters"]
        assert counters["parallel.remote.cache.gets"] >= 1
        assert counters["parallel.remote.cache.served"] >= 1
        # Worker-side tier counters ride home in the snapshots.
        assert counters["cache.remote.hits"] >= 1

    def test_worker_computes_publish_to_master(self, shared_pool):
        cache = ArtifactCache()
        fn = functools.partial(cached_bucket, "rt-pub")
        ex = remote_executor(shared_pool, chunk_size=4)
        with artifact_cache.use_cache(cache):
            out = ex.run(fn, list(range(8)))
            assert out.ok
            # Give the fire-and-forget publishes a moment to land
            # (still inside the scope the master serves them from).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if cache.get("rt-pub:0")[0] \
                        and cache.get("rt-pub:1")[0]:
                    break
                time.sleep(0.02)
        assert cache.get("rt-pub:0") == (True, 5)
        assert cache.get("rt-pub:1") == (True, 105)

    def test_runner_cache_reads_through_the_pool_tier(self, shared_pool):
        """A pre-warmed ``ShmooRunner(cache=)`` is the pool's tier:
        workers read its entries instead of computing their own."""
        xs = ys = [0.0, 1.0, 2.0, 3.0]
        runner = ShmooRunner(column_gate, cache=ArtifactCache())
        warm = runner.run(xs, ys)
        assert runner.cache.stores == 5
        with telemetry.use_registry() as reg:
            remote = runner.run(
                xs, ys,
                executor=remote_executor(shared_pool, chunk_size=4))
        assert (remote.passes == warm.passes).all()
        counters = reg.to_dict()["counters"]
        assert counters.get("cache.misses", 0) == 0
        assert counters["cache.remote.hits"] > 0

    def test_cache_disabled_means_no_wire_traffic(self, shared_pool):
        fn = functools.partial(cached_bucket, "rt-off")
        ex = remote_executor(shared_pool, chunk_size=4)
        artifact_cache.disable()
        with telemetry.use_registry() as reg:
            out = ex.run(fn, list(range(8)))
        assert out.ok
        counters = reg.to_dict()["counters"]
        assert "parallel.remote.cache.gets" not in counters


# -- owned-pool lifecycle --------------------------------------------------

class TestOwnedPool:
    def test_executor_spawns_and_closes_its_own_pool(self):
        with Executor(backend="remote", max_workers=2,
                      chunk_size=5) as ex:
            out = ex.run(square, list(range(20)))
            assert out.results == [i * i for i in range(20)]
            pool = ex._remote_pool
            assert pool is not None and pool.n_alive == 2
        assert pool.n_alive == 0

    def test_backend_options_forwarded(self):
        ex = Executor(backend="remote", max_workers=2,
                      backend_options={"heartbeat_s": 0.25})
        try:
            ex.run(square, [1, 2, 3])
            assert ex._remote_pool.heartbeat_s == 0.25
        finally:
            ex.close()

    def test_close_stops_the_accept_thread(self):
        def accept_threads():
            return {t for t in threading.enumerate()
                    if t.name == "repro-pool-accept"}

        before = accept_threads()
        pool = WorkerPool(n_workers=0, spawn=False).start()
        assert accept_threads() - before
        pool.close()
        assert not accept_threads() - before

    def test_injected_pool_not_closed_by_executor(self, shared_pool):
        ex = remote_executor(shared_pool)
        ex.run(square, [1, 2])
        ex.close()
        assert shared_pool.n_alive == 2
