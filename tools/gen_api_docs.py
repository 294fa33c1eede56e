#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collecting the first docstring
line of each public class and function into one browsable index.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def first_line(doc: str) -> str:
    for line in (doc or "").strip().splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def collect(module) -> list:
    rows = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "") != module.__name__:
            continue
        kind = "class" if inspect.isclass(obj) else "func"
        rows.append((kind, name, first_line(obj.__doc__)))
    return rows


# Hand-written prose sections, emitted verbatim ahead of the module
# index so regeneration preserves them.
OBSERVABILITY = """\
## Observability

Every layer of the stack is instrumented through
`repro.telemetry`: hierarchical counters, gauges, histogram
timers, and nested trace spans, with zero dependencies and a
near-zero-cost disabled mode (the default — lookups resolve to
shared no-op singletons, bounded in
`benchmarks/test_bench_telemetry_overhead.py`).

Enable globally, or collect into a private `Registry` through a
scope. `telemetry.enable()` and `disable()` set the process-wide
default. `telemetry.use_registry()` is local to the calling
context: it covers the calling thread, its asyncio tasks and
`to_thread` work, `thread`-executor chunks, and a service started
inside it with `serve_in_thread`, but not threads the caller starts
itself. Two jobs on two threads therefore each record into their
own registry. Every instrumented call records into
`telemetry.active()` of the context it runs in:

```python
from repro import telemetry
from repro.core.minitester import MiniTester

with telemetry.use_registry() as reg:   # or telemetry.enable()
    MiniTester().run_loopback(n_bits=500, seed=1)

print(reg.to_prometheus())   # flat exposition text
snapshot = reg.to_dict()     # {"counters": ..., "gauges": ...,
                             #  "timers": ...}
```

Counter names are dotted per subsystem (`nrz.samples`,
`vortex.deflections`, `shmoo.cells_passed`, `dlc.cycles`,
`session.wafers_sorted`, ...); spans nest into slash-joined timer
paths (`session.bring_up/session.qualify`). Registries merge
associatively (`a.merge(b)`) for aggregating parallel runs.
"""

PERFORMANCE = """\
## Performance & Kernel Contracts

The hot signal kernels are vectorized array code behind
`repro.signal._kernels`; the public models (`NRZEncoder`,
`prbs_bits`, the bathtub curves) keep their APIs and delegate. Each
kernel, and the Data Vortex fabric's routing pass, carries an
explicit equivalence contract against its scalar reference, enforced
by `tests/test_kernels_equivalence.py`:

- **NRZ rendering** (`_kernels.render_nrz_batch`): O(samples +
  edges x window) over a whole `(channels, samples)` block — a step
  baseline plus window-local edge contributions, with no temporary
  spanning the whole record; `NRZEncoder.encode` renders a one-row
  block. The baseline is run-length: the steps of each distinct
  step bin are summed in edge order, a per-row running sum of those
  sums gives each run's level, and one `repeat` fills the runs. The
  window terms are added in blocks of about 64 K window samples,
  cut only at window gaps (every earlier window ends before every
  later one starts, whatever the edge order). Both are
  bit-identical to one full-length `bincount`/`cumsum` and one
  whole-record `bincount`: an empty bin adds `+0.0`, which leaves a
  running sum unchanged, and every bin sums all of its window
  terms, in edge order, inside one block. Edge
  profiles come from an LRU template cache keyed
  `(shape, t20_80, dt)`, oversampled so linear interpolation of
  per-edge sub-sample jitter stays within
  `_kernels.NRZ_EQUIVALENCE_ATOL` (1e-5 of the swing) of direct
  per-edge profile evaluation; zero rise time is bit-exact, and
  `EdgeShape.LINEAR` bypasses the template for the exact ramp.
  Cache traffic is observable as `nrz.template_cache.{hits,misses}`
  (one lookup per profile group on an integer grid, one per block
  otherwise).
- **Eye folds and eye-center reads** (`EyeDiagram.from_batch`,
  `EyeDiagram.samples_near_phase`): a per-row fold stores no phase
  per sample; it is stamped with its sample grid `(offset, dt)`, and
  `EyeDiagram.phases` builds `_binning.fold_phases` of that grid on
  first read (bit for bit the array the fold stored before). The
  phase window reads only what it needs through
  `_binning.grid_phases`, the elementwise arithmetic of
  `fold_phases`: when the fold tiles (`_binning.fold_period`), it is
  evaluated on one period and the selected columns are gathered from
  a `(periods, period)` view of the voltages plus the partial period
  at the end; otherwise it is evaluated on candidate index runs, the
  samples of each UI cycle whose nominal time lies within the half
  window of the phase, widened by one sample at each end (a window
  half the UI wide or wider reads every index). Either way the
  result is the same samples, in the same order, as the
  full-record mask.
  Diagrams with explicit phases (built by the constructor, merged
  folds, cache entries pickled before the grid stamp) take the
  full-record mask.
- **Density binning** (`_kernels.density_bin`, under
  `EyeAccumulator.update`): each sample's grid cell takes one
  `searchsorted` per axis, against the edges with the last one
  raised an ulp (which closes the last bin as `histogramdd` does),
  and one gather through a cached offset table that sends both
  out-of-range sides to a trash cell; one `bincount` counts them.
  When the fold tiles, the accumulator passes one period of phases
  (`_binning.period_phases`), so the time axis is binned once per
  period and tiled. Counts are identical to `histogramdd`. The
  point is the call count: a streaming update is dozens of numpy
  calls, and beside a busy thread each one on a short chunk can cost
  an interpreter-lock hand-off. Fewer, larger updates help more
  than a leaner update: the service's `eye` job folds 32 K-sample
  chunks, while an arithmetic binning that dropped the two
  `searchsorted` calls made 2048-sample updates hand the lock over
  more often and run slower under load.
- **Strobed receive** (`repro.pecl.buffer.ProcessedView`):
  `PECLReceiver.receive_bits` hands its sampler a view of the input
  buffer's output instead of the whole regenerated record. The
  view's `values_at` limits and Gaussian-filters only the two
  samples that `np.interp` reads around each strobe, about 1% of a
  5 Gbps record, so a loopback costs what its strobes cost. It sums
  each output sample as `correlate1d` does for a symmetric filter:
  the centre term first, then the tap pairs from the outermost
  inward, one axis-0 `np.add.reduce` per block of about 64 K terms
  (a one-column block, which numpy would sum pairwise, is widened
  to two). The taps are `gaussian_filter1d`'s own, read back as its
  impulse response. The result is bitwise equal to
  `OutputBuffer.process(wf).values_at(t)`; `process` and
  `PECLReceiver.regenerate` stay the dense path for readers of the
  whole record (`MiniTester.digitize_loopback`).
- **PRBS generation** (`_kernels.prbs_bits_blockwise`): blockwise
  GF(2) matrix products (8192 bits per application), *bit-exact*
  against the scalar Fibonacci LFSR (kept public as
  `prbs_bits_scalar`) and composable with `advance_state` /
  `prbs_shard_states` stream tiling.
- **Vortex fabric stepping**: one routing pass per step over the
  occupied node slots, innermost cylinder first, on link tables
  built once per geometry from `VortexTopology`'s link functions. A
  resident packet's one record is the `VortexPacket` itself, which
  counts its own hops and deflections. The pass produces the same
  decisions, packet journeys, delivery order, and statistics as the
  original dict-of-nodes scan, on quiet and busy fabrics alike;
  `fabric.nodes` remains a live per-node view of the slots.
- **Bathtub curves**: vectorized erfc within
  `BATHTUB_EQUIVALENCE_RTOL` (1e-12, absolute floor 1e-30 for the
  denormal deep tail); `empirical_bathtub` is bit-exact via sorted
  `searchsorted` counting.

Bench history lives in committed `benchmarks/BENCH_<suite>.json`
trajectory files (schema in `benchmarks/_report.py`): each point is
a labelled `{bench: mean_seconds}` snapshot appended when an
intentional performance change lands. CI's `perf-smoke` job runs
`benchmarks/test_bench_simulation_speed.py` with
`--benchmark-json` and gates the result with
`tools/bench_compare.py`, which fails on any mean more than 30%
above the latest committed point. To read a trajectory: each
entry's `label`/`note` say what landed; successive `results` ratios
are the speedups. To extend it after an optimization:

```
python -m pytest benchmarks/test_bench_simulation_speed.py \\
    --benchmark-json=bench.json
python tools/bench_compare.py bench.json \\
    --baseline benchmarks/BENCH_simulation_speed.json \\
    --record --label "what changed"
```
"""

CACHING = """\
## Caching & Adaptive Sweeps

Sweeps re-run nearly identical pipelines cell after cell.
`repro.cache` memoizes expensive stage outputs — PRBS bitstreams,
rendered NRZ waveforms, channel convolutions, folded eyes — in a
bounded content-addressed store (`ArtifactCache`: in-memory LRU
with entry and byte caps, plus an optional atomic on-disk backing
shared across `repro.parallel` process chunks via `disk_path`).

**The `cache_key()` contract.** Every cached stage composes its key
with `repro.cache.canonical_digest(...)` over a type-tagged
canonical serialization (so `1`, `1.0`, `True` and `"1"` never
collide) of *everything that determines its output*: stage name,
configuration (components expose it via a `cache_key()` method —
`NRZEncoder`, `LTIChannel`), and inputs. Waveforms carry a
provenance token attached by their producing stage, so downstream
keys compose from config digests instead of rehashing megasample
records. Stages whose output is not a pure function of the key
bypass the cache (`NRZEncoder.encode` with a jitter model drawing
from a caller RNG; a noisy `SamplingScope` acquisition). The
correctness contract — cached pipelines are *bit-identical* to
uncached ones — is property-tested in `tests/test_cache.py`.

Opt in by scope: every cache-aware stage consults
`cache.active()` when it is called, so a `use_cache` scope is the
one way to hand a cache to stage calls (it is context-local, like
`telemetry.use_registry`; `enable`/`disable` set the process-wide
default). Stages take no `cache=` argument. `ShmooRunner(...,
cache=...)` is the sweep shorthand: it opens the scope around each
sweep. A scope reaches an executor's chunks on every backend:
`serial` and `thread` chunks use the cache itself, each `process`
chunk runs in an empty clone of it (sharing its `disk_path`), and
`remote` workers read through it as the pool's shared tier:

```python
from repro import cache as artifact_cache

with artifact_cache.use_cache() as cache:
    runner.run(rates, margins)       # warm across cells
print(cache.stats())                 # hits/misses/evictions/bytes
```

`ArtifactCache.get_or_compute` is single-flight: the first thread
to miss a key computes it outside the cache lock, and threads asking
for the key meanwhile wait and read the stored entry (a hit), so one
cache computes each artifact once. A compute that raises wakes its
waiters, and each then claims the key and computes it itself; a
compute asking for its own key on the same thread runs inline.
`NullCache`, `RemoteCacheTier`, and processes sharing a `disk_path`
do not single-flight. `ShmooRunner` walks its cells x-major, so an
executor chunk whose size is a multiple of the y axis's length holds
whole x columns (put the rate on x), and its concurrent chunks do
not ask for one key: two thread chunks of a cold sweep compute
different rates side by side instead of waiting on each other, and a
`process` chunk computes its columns' artifacts once.

Traffic is observable as `cache.{hits,misses,evictions,stores,waits}`
counters and the `cache.bytes` gauge: `misses` counts computes, and
`waits` counts the lookups that waited on another thread's compute
(how much of a sweep serialized on in-flight keys). The byte budget
counts an `EyeDiagram` by the arrays it owns, so a cached
`from_batch` row's voltages copy counts and a fold viewing a cached
waveform's samples does not count them twice.

**Streaming eye accumulation.** `EyeDiagram` keeps every folded
sample; `repro.eye.EyeAccumulator` instead folds chunk-by-chunk
into a fixed time x voltage density grid with O(grid) memory, for
BER-length streams. Equivalence bounds: its density grid is
*identical* to `EyeDiagram.histogram2d` over the same axes for any
chunking; its crossover phase is exact (streamed circular mean);
jitter and vertical metrics are histogram-quantized — jitter to
`UI / n_phase_bins`, voltages to one grid bin. `measure_eye`
accepts either object.

**Adaptive shmoo.** `ShmooRunner.run_adaptive` evaluates a coarse
lattice, fills blocks whose four corners agree, and recursively
subdivides only boundary-straddling blocks — typically evaluating
10-25% of the grid. Exact-vs-approximate: the result equals the
exhaustive grid whenever every agreeing coarse block is uniform
(guaranteed for monotone or per-row/column contiguous pass regions
at the coarse scale — the paper's Figure 10/11 margin shapes);
pass features smaller than `coarse_step` cells can be missed.
`ShmooResult.evaluated` is always a boolean mask (inferred cells
read False with `complete=True`).
"""

BATCHED = """\
## Batched Signal Path

Array-scale simulations (the Terabit roadmap's 64-wavelength word,
multi-board channel groups) move a whole `(channels, samples)`
block through every stage with no per-channel Python loop.
`repro.signal.WaveformBatch` is the container: **channel axis
first, C-contiguous float64**, one shared `dt`/`t0` time grid for
every row, `row(i)` returning a zero-copy `Waveform` view. Batched
stage entry points mirror their scalar names — `NRZEncoder
.encode_batch`, `LTIChannel.apply_batch`, `CrosstalkMatrix
.apply_batch`, `EyeDiagram.from_batch`, `EyeAccumulator.update`
(fed `WaveformBatch` chunks), `OutputBuffer.drive_batch`, and
`PECLTransmitter.transmit_serial_batch`.

There is one signal path. The scalar entry points `NRZEncoder
.encode`, `LTIChannel.apply`, `EyeDiagram.from_waveform`,
`EyeAccumulator.update` (fed `Waveform` chunks), `OutputBuffer
.drive`, and `PECLTransmitter.transmit_serial` are the one-row case:
each keeps its signature, input validation, and cache key, and runs
its record as a one-row batch through the same code. The
multi-channel calls have one body too. `CrosstalkMatrix.apply`
stacks the channels of its dict in routing order into one
`apply_batch` block, so they must share one time grid.
`OpticalTestBed.transmit_slot` renders each run of neighbouring
same-configuration high-speed channels as one
`transmit_serial_batch` block, Frame and Header as one slow block,
and board crosstalk through `CrosstalkMatrix.apply`. The WDM mux
and demux (`WDMMux.combine`, `WDMDemux.split`) keep their dict form
only: `OpticalLink`'s lasers, fiber and detector work per channel.

**Equivalence contract** (golden-tested in
`tests/test_batch_equivalence.py` against independent per-stage
references that do not call the batched code):

- *Bit-identical per row*: NRZ rendering (disjoint per-row
  `bincount` ranges preserve each row's accumulation order), LTI
  filtering (`sosfilt` over `axis=-1` runs the identical recurrence
  per row), eye folding with `merge=False`, accumulator density
  grids and crossing counts under any chunking x any batching. A
  scalar call equals row 0 of its one-row batch call bitwise,
  jittered renders included, for the same RNG seed.
- *Bit-identical to a loop when the jitter model draws once*:
  jittered renders of several rows draw offsets in one call over
  all rows' edges, in row-major order. When the model draws from
  the RNG once per call, that equals a loop of one-row calls
  sharing one `Generator`, bitwise. Every `JitterBudget.build()`
  model does (only its one `RandomJitter` draws), so
  `OpticalTestBed.transmit_slot` is bit-identical to rendering each
  channel on its own. A model that draws twice per call (a
  `CompositeJitter` of two `RandomJitter`s) consumes the generator
  in another order.
- *Tolerance-pinned*: crosstalk mixing replaces sequential per-pair
  adds with one matrix product, which reorders float additions. It
  agrees with a per-pair `coupled_noise` sum kept in the tests
  within `repro.channel.crosstalk.XTALK_EQUIVALENCE_RTOL` (1e-9,
  atol 1e-12).

Each signal stage has one cached route, its single-row call:
`NRZEncoder.encode`, `LTIChannel.apply` and
`EyeDiagram.from_waveform` each wrap a one-row call of the batch
form in a single-flight `ArtifactCache.get_or_compute`. The batch
forms (`encode_batch`, `apply_batch`, `from_batch`) always compute,
also inside a `use_cache` scope, and leave the cache untouched
(`tests/test_cache.py::TestOneRoutePerStage`).
`tests/test_batch_equivalence.py` pins the single-row digest
literals, which disk caches read across runs.
`benchmarks/test_bench_scaling_terabit.py
::test_batched_array_throughput` holds the batched 64-channel,
10 Gbps pipeline at >= 3x a loop of scalar calls: the loop runs the
same kernels and memoized setup, so what it pays extra is per-call
overhead.
"""

ARRAY_KERNELS = """\
## Array kernels

The hot loops — NRZ edge rendering, batch Bessel filtering,
crosstalk mixing, eye folding, density binning, blockwise PRBS — are
one kernel set in `repro.signal._kernels`, called directly by
`NRZEncoder.encode_batch`, `LTIChannel.apply_batch`,
`CrosstalkMatrix.apply_batch`, `EyeDiagram.from_batch`,
`EyeAccumulator.update`, and `prbs_bits` / `prbs_bits_batch`. Every
kernel takes a `(channels, samples)` block; the scalar entry points
pass a one-row block. There is nothing to select or configure. The
contract:

- **Bit-identical to the reference ops.** The golden suites keep a
  plain reference op beside each kernel
  (`tests/test_kernels_equivalence.py`: `render_nrz` renders one
  record through `_reference_window_profile`, a copy of the
  template lerp that `_window_profile` is pinned to bitwise,
  `_reference_sosfilt_batch` designs its filter per call,
  `_reference_coupling_mix`, `_reference_eye_fold` diffs an int8
  mask, `_reference_density_bin` goes through `histogramdd`,
  `_reference_prbs_batch` stacks the scalar LFSR per seed) and hold
  each kernel to bitwise equality with it. Batched rows and scalar
  calls are held to per-stage references built on those ops
  (`tests/test_batch_equivalence.py`).
- **Integer-grid fast render, general fallback.** When edge
  instants, `dt`, and the record origin all sit on whole
  picoseconds (every jitter-free paper configuration),
  `render_nrz_batch` evaluates each distinct edge-window profile
  once and gathers it per edge. Jittered edges or a fractional grid
  take the general flattened render. Both produce the same bits.
- **No record-length temporaries in the render.** The step baseline
  is filled run by run from the distinct step bins, and the window
  terms go in cache-sized blocks cut only where no bin gets terms
  from both sides, so each bin's float sum is the one a
  whole-record `bincount` gives. The golden suite holds the blocked
  render to the per-row reference with the block size forced down
  to 64 samples (clock patterns with no legal cut, edges jittered
  out of time order, edges outside the record, blocks spanning
  several rows).
- **Memoized setup.** Bessel designs (with their measured group
  delay) and crosstalk coupling-weight matrices are built once per
  configuration, not once per block or per call.
- **Cache keys sit above the kernels.** Keys come from configs and
  input bits or waveform tokens, never from kernel output.

The kernels run serially on the calling thread; parallelism comes
from the executors in `repro.parallel`.
"""

PARALLEL = """\
## Scaling & Parallel Execution

`repro.parallel` shards large jobs — shmoo grids, wafer sort
touchdowns, long BER runs — across worker pools while keeping
serial semantics: canonical-order results, deterministic per-shard
seeds (`numpy.random.SeedSequence.spawn` via
`repro._rng.spawn_seeds`), and telemetry that merges back into the
parent registry so an N-worker run reads identically to serial.

`Executor` picks the backend (`serial`, `thread`, `process`, or
`remote`, below), chunks the work queue, retries failed or crashed
shards up to `max_retries`, and enforces per-chunk timeouts.
`ShardPlan.split` cuts an ordered list of work items into
contiguous, near-equal shards, and `ShardPlan.for_range` cuts a bit
budget into `(start, count)` ranges; the shards' items, concatenated,
are the canonical order. `ShmooRunner.run` hands an executor its
grid's cells x-major, one item per cell, in one run chunked by the
executor's `chunk_size`; a chunk size that is a multiple of the y
axis's length makes each chunk a run of whole x columns, so cells
sharing cached stimulus (one rate's rendered pattern) stay in one
chunk:

```python
from repro.host.shmoo import ShmooRunner
from repro.parallel import Executor

pool = Executor(backend="process", max_workers=4)
result = ShmooRunner(my_test).run(rates, strobes, executor=pool,
                                  progress=lambda done, total: None)
```

The serial path stays the default everywhere and is bit-exact with
the sharded paths: shmoo grids are identical across backends, and
`TestSession.characterize_ber` spawns the same shard seeds whether
run inline or on a pool. `ShmooRunner.run` also accepts a
`should_abort` predicate for early exit (partial grids expose an
`evaluated` mask). Sharded PRBS generation that must tile the
*same* serial bitstream uses `repro.signal.prbs.prbs_shard_states`
(LFSR fast-forward), not independent seeds.
`benchmarks/test_bench_parallel_shmoo.py` holds the speedup floor:
a 32x32 BER shmoo runs >= 2x faster on 4 process workers.
"""


DISTRIBUTED = """\
## Distributed Execution

The `"remote"` executor backend takes sharded runs off-box: a
`repro.parallel.WorkerPool` master accepts worker *processes* over
TCP speaking the same NDJSON frames as the test-floor service
(`repro.service.wire`), with pickled payloads riding base64 inside
the JSON lines. Every serial-semantics contract carries over
unchanged — canonical-order reassembly, per-shard
`SeedSequence.spawn` seeds, merged telemetry — so a remote run is
**bit-identical to serial**, a property the million-cell shmoo
bench re-proves on every run *including after a worker is killed
mid-sweep* (`benchmarks/test_bench_remote_scaling.py`).

```python
from repro.parallel import Executor, WorkerPool

with WorkerPool(n_workers=4) as pool:        # spawns local workers
    ex = Executor(backend="remote", backend_options={"pool": pool})
    result = ex.run(my_module_level_fn, work_items, seed_root=7)
```

Workers can also join from other machines: start the master with
`WorkerPool(spawn=False, host="0.0.0.0", port=...)` and run
`REPRO_POOL_SECRET=... python -m repro.service.worker --connect
HOST:PORT --name w0` on each box.

**Authentication.** Wire payloads are pickles, so the pool never
accepts a frame from an unauthenticated peer: every connection
opens with an HMAC-SHA256 challenge/response (mutual — the
`welcome` must prove the master holds the secret before the worker
trusts it either, in the style of `multiprocessing.connection`).
The secret is `WorkerPool(secret=...)`, defaulting to
`$REPRO_POOL_SECRET` or a fresh random value; spawned workers
inherit it automatically, external workers pass `--secret` or the
environment variable (the master's value is exposed as
`pool.secret`). This authenticates but does not encrypt: treat the
wire as **trusted-network-only** (lab LAN, SSH tunnel) — never
expose the port to an untrusted network. The handshake also pins
`transport.PROTOCOL_VERSION` (a mismatched, unauthenticated, or
duplicate-named worker is rejected with a reason), after which the
master pickles the work function **once per worker per job** and
streams chunks. Frames are capped at the wire's 16 MiB line limit;
an oversized chunk or result fails fast with advice to lower
`Executor(chunk_size=...)` instead of cascading worker deaths. Liveness is heartbeat-based: workers
answer pings from a dedicated reader thread, so a *busy* worker
still pongs and only a dead or frozen process goes silent; a
worker declared dead has its in-flight chunks requeued to
survivors (chunk failures and timeouts, by contrast, charge
`Executor.max_retries`).

**Shared read-through cache.** With an `ArtifactCache` active
where the master calls the run (a `use_cache` scope), workers resolve
`cache.get_or_compute` through a `repro.cache.RemoteCacheTier`:
worker-local LRU front, then a master fetch over the wire, then
compute-and-publish. The first worker to render an artifact warms
every other worker through the master — cross-worker hits are the
reason the 4-worker shmoo point holds its >= 2.5x floor. Wire
failures degrade to a local miss, never an error.

**Four fixed backends, one set of books.** `backend=` is one of
`serial`, `thread`, `process` or `remote`; any other name raises a
`ConfigurationError` naming all four. Every backend keeps its books
in one `ChunkLedger`: attempts, the retry budget, deadlines,
timeouts and stale-result rejection live there and nowhere else,
and each backend's loop keeps only its transport's work (running
inline, submitting futures, moving frames). The ledger is a pure
state machine, property-tested in `tests/test_parallel_remote.py`
so that *any* interleaving of dispatch, completion, failure,
expiry and worker death completes every chunk exactly once, or
raises `ShardError` exactly when a chunk runs out of retries. A
timed-out chunk is abandoned on `thread`, has its pool's worker
processes terminated on `process`, and fails its worker on
`remote`; `serial` never times out. Only `process` and `remote`
ship work to another process. Submit-time validation fails fast
with an actionable message when the work function is unpicklable
or lives in `__main__`
(remote workers cannot import a script's `__main__`) instead of
dying opaquely on a worker.

Remote health is observable under `parallel.remote.*`:
`dispatches`, `requeues`, `worker_deaths`, `heartbeat_misses`,
`joins`, `rejects`, `cache.{gets,served,puts}` counters, a
`workers_alive` gauge, and per-worker labelled gauges
(`pool.worker_busy{worker=w0}`, `pool.worker_chunks{worker=w0}`)
that `telemetry.split_labels` parses and the Prometheus exporter
renders as proper label sets. Worker-side counters ride home in
each chunk's result frame and merge into the run's registry, so an
N-worker sweep's totals read identically to serial. See
`examples/distributed_shmoo.py` for the full story.
"""


CODING = """\
## Coded Serial Links

The paper's systems drive raw NRZ, but the multi-gigabit links the
related work builds on the same parts are *coded*. `repro.coding`
supplies that layer: an 8b10b encoder/decoder with running-disparity
tracking and K characters (`encode_stream` / `decode_stream`,
vectorized over `(channels, n)` blocks), a self-synchronizing
scrambler (G(x) = 1 + x^39 + x^58), a bit-slip comma aligner, and a
CDR lock state machine (hunt → comma-align → locked, with
loss-of-lock on code-violation bursts). `LinkCodec` composes them
into a framing stack that `PECLTransmitter`, `PECLReceiver`,
`OpticalTestBed`, and `MiniTester` all accept through their
`encoding=` argument (`"8b10b"`, `"8b10b-scrambled"`, or a
configured `LinkCodec`):

```python
from repro.core.minitester import MiniTester

mini = MiniTester(rate_gbps=5.0, encoding="8b10b-scrambled")
result = mini.run_coded_loopback(n_bytes=256, seed=1)
assert result.passed            # payload error-free, link locked
result.stats.code_violations    # line-layer health telemetry
result.stats.lock_time_symbols  # CDR acquisition time
```

Per-frame health lands in `LinkStats` (code violations, disparity
errors, lock acquisitions/losses, slipped and discarded bits) and —
when telemetry is enabled — in dotted counters
(`coding.code_violations`, `coding.lock_losses`,
`coding.payload_errors`, ...). `CodedStreamChecker` grades a raw
line-bit capture end to end: align, decode, descramble, then PRBS-
check the payload with the self-synchronizing fabric checker, whose
density-based resync reports stream slips as single `slips` events.
The fixed-reference BERT gains the same awareness via
`BitErrorRateTester.measure_resync`, which re-aligns at a detected
slip instead of miscomparing the entire tail. Conformance of the
code tables is pinned by `tests/test_coding_conformance.py` (all
512 (code, disparity) pairs plus every K character against an
independent golden table) and `tests/test_coding_properties.py`
(hypothesis round-trip, disparity, run-length, and bit-slip
recovery properties).
"""


SERVICE = """\
## Test-Floor Service

`repro.service` turns the library into a shared shop-floor master:
an asyncio RPC server speaking newline-delimited JSON
(`{"id", "method", "params"}` in; `{"id", "ok", "result"|"error"}`
out; subscribed connections additionally receive
`{"event", "seq", "data"}` lines), a priority scheduler with
bounded worker slots, and a pub/sub hub streaming partial results
live. Everything is stdlib (asyncio + threading + json); jobs run
the same measurement code a direct caller would, so service
results are **bit-identical to direct library calls** — pinned
end-to-end by `tests/test_service_e2e.py`.

```python
from repro.service import serve_in_thread

with serve_in_thread(max_slots=2) as handle:
    with handle.client() as cli:
        cli.subscribe("job.*")            # live event stream
        job = cli.submit(kind="shmoo",
                         params={"rates": [2.0, 3.0, 4.0],
                                 "strobe_fracs": [0.2, 0.5, 0.8],
                                 "n_bits": 200},
                         priority=2, deadline_s=120.0)
        final = cli.result(job_id=job["job_id"])
```

**Scheduling.** Higher priority runs first, FIFO within a
priority, at most `max_slots` jobs on worker threads
(`asyncio.to_thread`). When every slot is busy and a strictly
higher-priority job arrives, the lowest-priority running job is
*preempted cooperatively*: its worker thread parks at the next
`should_abort` checkpoint (the same hook the measurement stack
already polls between cells/shards/touchdowns/chunks), the slot
frees on the pause acknowledgement, and the job auto-resumes —
bit-identically — when a slot opens. Clients can also
`pause`/`resume`/`abort` explicitly; an aborted job returns its
partial results. Per-job `deadline_s` is wall-clock from start;
overruns abort with partials.

**Builtin job kinds** (`JobRunner.register` adds more), each an
adapter over the library's own body: `shmoo` (cells via
`repro.host.shmoo.strobe_rate_test`, one partial per cell), `ber`
(steps `repro.host.session.ber_steps`, the shard loop of the serial
`TestSession.characterize_ber`: a checkpoint before each shard,
cumulative tallies after it), `eye` (chunked `EyeAccumulator`
fold), and `wafer` (steps `MultiSiteScheduler.sort_steps`, the
touchdown loop of `sort_wafer`: a checkpoint before each touchdown
and a progress tick after it, so a pause, an abort or a deadline
lands within one touchdown, 7-10 ms; the summary of a sort cut short
says `complete: false` and counts the touchdowns that ran). A job's
checkpoints and its events are separate choices: every event is a
hand-off through the event loop, the wire and each subscribed
client, so the `eye` job keeps a checkpoint per 32 K-sample chunk
(`repro.service.runner.EYE_CHUNK_SAMPLES`; pause and abort land
within one chunk, about 2 ms beside a busy shmoo) but publishes its
grid-free `snapshot()` partial and progress tick at most every 5 ms
(`repro.service.runner.EYE_PUBLISH_INTERVAL_S`), always the first
and the last folded chunk's. A checkpoint costs more than its poll:
beside a busy thread each chunk's short numpy calls hand the
interpreter lock over, so a default eye job takes about 125 ms there
with 235 chunks of 2048 samples and about 35 ms with its 15 chunks.
It publishes about 4 partials when it runs alone; its result
is the same whatever the chunking (the `chunk_samples` parameter)
or the publishing.

**Streaming.** Topics `job.<id>.state` / `.progress` / `.partial`
with trailing-`*` wildcards. Per-subscriber queues are bounded and
lossy-oldest: a slow reader lags (visible as gaps in per-topic
`seq` numbers, counted in `service.events_dropped`) without ever
stalling publishers. Raising client hooks are quarantined the same
way on the library side: a `progress`/`should_abort` callback that
throws converts the run into a clean abort (counted as
`parallel.callback_errors`) instead of crashing mid-measurement.

Service health is observable under dotted `service.*` names:
`jobs_submitted/completed/failed/aborted`, `preemptions`,
`deadline_aborts`, `rpc_requests/rpc_errors`,
`events_published/events_dropped` counters and
`jobs_queued/jobs_running/jobs_paused`, `subscribers`,
`stream_lag` gauges. Run `python examples/service_demo.py` for the
full multi-client story.
"""


def main() -> int:
    import repro

    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — one line per",
        "public class/function, from the first docstring line.",
        "",
        OBSERVABILITY,
        PERFORMANCE,
        BATCHED,
        ARRAY_KERNELS,
        CACHING,
        PARALLEL,
        DISTRIBUTED,
        CODING,
        SERVICE,
    ]
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    for module in modules:
        rows = collect(module)
        if not rows and module.__name__ != "repro":
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        lines.append(first_line(module.__doc__))
        lines.append("")
        for kind, name, doc in rows:
            lines.append(f"- **{name}** ({kind}) — {doc}")
        lines.append("")
    out = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines, "
          f"{len(modules)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
