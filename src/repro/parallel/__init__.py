"""repro.parallel — sharded multi-process execution engine.

The paper's throughput story is explicitly parallel: "the miniature
tester may be replicated in array form ... functional testing can
then be done in parallel, increasing production throughput by an
order of magnitude" (Figure 13). This subsystem is that replication
for the simulation stack: one :class:`Executor` (``serial``,
``thread``, ``process`` or ``remote`` backend — four fixed names)
runs partitioned workloads — a shmoo grid's cells, long BER runs
split by :class:`ShardPlan`, a wafer's concurrent touchdowns — with
deterministic per-shard seeding, bounded retry, timeouts, and
telemetry that merges back into the parent registry so a 16-worker
run reads identically to a serial one. Every backend keeps its books in one
:class:`ChunkLedger`, the property-tested state machine that alone
decides attempts, retries and timeouts; the remote backend runs on
a :class:`WorkerPool` of worker processes over TCP.

Usage::

    from repro.parallel import Executor
    from repro.host.shmoo import ShmooRunner

    runner = ShmooRunner(my_test)
    result = runner.run(xs, ys,
                        executor=Executor(backend="process",
                                          max_workers=4))

The serial backend is the default everywhere, so existing flows and
bit-exactness are untouched unless a caller opts in.
"""

from repro.parallel.executor import (
    CallbackGuard, ChunkLedger, ExecutionResult, Executor, ShardError,
)
from repro.parallel.shards import Shard, ShardPlan
from repro.parallel.workers import (
    ber_shard, ber_shard_worker, run_chunk,
)

# Imported after the executor so its `from repro.parallel import
# Executor` (via repro.service) resolves.
from repro.parallel.pool import WorkerPool

__all__ = [
    "CallbackGuard", "ChunkLedger", "ExecutionResult", "Executor",
    "ShardError", "Shard", "ShardPlan", "WorkerPool",
    "ber_shard", "ber_shard_worker", "run_chunk",
]
