"""Golden-equivalence suite for the vectorized hot-path kernels.

Each vectorized kernel is validated against a scalar reference that
reproduces the pre-vectorization implementation:

- NRZ rendering: ``_reference_render_nrz`` (the per-edge window loop
  with full-tail accumulation) versus a one-row
  ``_kernels.render_nrz_batch`` on both its integer-grid path and its
  general fallback, within ``NRZ_EQUIVALENCE_ATOL`` of the swing
  (bit-exact at zero rise time). ``render_nrz``, the single-record
  render kept here, is the bitwise per-row reference for the batch.
  It evaluates edge profiles through ``_reference_window_profile``,
  a copy of the template lerp that ``_kernels._window_profile`` is
  pinned to bitwise.
- PRBS generation: ``prbs_bits_scalar`` (the bit-at-a-time Fibonacci
  LFSR, kept public as the golden reference) versus the blockwise
  GF(2) kernel — bit-exact, property-tested across orders, seeds,
  lengths, and block sizes, and composed with the
  ``advance_state`` / ``prbs_shard_states`` tiling contract.
- Batched array kernels: every op of ``repro.signal._kernels`` that
  the batched signal path calls is **bit-identical** to a plain
  reference op kept here (``_reference_sosfilt_batch`` designing
  its filter per call, ``_reference_coupling_mix``,
  ``_reference_eye_fold`` over an int8 diff,
  ``_reference_density_bin`` through ``histogramdd``,
  ``_reference_prbs_batch`` stacking the scalar LFSR per seed), and
  ``render_nrz_batch`` rows are bit-identical to ``render_nrz`` on
  both its integer-grid fast path and its general fallback, also
  with the in-window block size forced down to 64 samples.
  ``tests/test_batch_equivalence.py`` builds its per-stage
  references on these ops.
- The :func:`array_ops` fixture runs the suites that call those ops
  twice, once on the production kernels (``fused``) and once with
  the reference ops swapped in (``numpy``): the NRZ render, template
  cache and PRBS suites here, and every test of
  ``tests/test_batch_equivalence.py``. The fabric, bathtub,
  telemetry and edge-dtype suites call none of the swapped ops and
  run once.
- Vortex fabric stepping: ``_ReferenceFabric`` (the dict-of-nodes
  scan) versus the fabric's one routing pass, on quiet and busy
  fabrics and under the four standard traffic patterns — identical
  decisions, deliveries, ordering, and statistics.
- Bathtub curves: per-point ``math.erfc`` evaluation versus the
  vectorized curve (``BATHTUB_EQUIVALENCE_RTOL`` with the documented
  denormal floor); the empirical bathtub is bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eye.bathtub import (
    BATHTUB_EQUIVALENCE_ATOL,
    BATHTUB_EQUIVALENCE_RTOL,
    _q_tail,
    bathtub_curve,
    empirical_bathtub,
)
from repro.channel.crosstalk import CouplingSpec, CrosstalkMatrix
from repro.errors import ConfigurationError
from repro.eye._binning import fold_phases, period_phases
from repro.signal import _kernels
from repro.signal.edges import EdgeShape, edge_profile
from repro.signal.jitter import JitterBudget
from repro.signal.nrz import NRZEncoder
from repro.signal.prbs import (
    PRBS_POLYNOMIALS,
    advance_state,
    prbs_bits,
    prbs_bits_batch,
    prbs_bits_scalar,
    prbs_shard_states,
)
from repro.vortex.fabric import DataVortexFabric, FabricConfig
from repro.vortex.node import RoutingDecision, RoutingNode
from repro.vortex.routing import at_destination, wants_descent
from repro.vortex.stats import FabricStats
from repro.vortex.topology import NodeAddress, VortexTopology
from repro.vortex.traffic import (
    BurstyTraffic,
    HotspotTraffic,
    PermutationTraffic,
    UniformTraffic,
)


# ---------------------------------------------------------------------------
# Reference implementations (the pre-vectorization kernels)
# ---------------------------------------------------------------------------


def _reference_render_nrz(n, t_start, dt, base, swing, times,
                          directions, t20_80, shape):
    """The original per-edge rendering loop: windowed profile plus
    full-tail step accumulation (quadratic in the edge count)."""
    t = t_start + dt * np.arange(n)
    v = np.full(n, base, dtype=np.float64)
    window = max(4.0 * t20_80, 4.0 * dt)
    for t_edge, direction in zip(times, directions):
        i0 = max(0, int((t_edge - window - t_start) / dt))
        i1 = min(n, int((t_edge + window - t_start) / dt) + 2)
        local = edge_profile(t[i0:i1] - t_edge, t20_80, shape)
        v[i0:i1] += direction * swing * local
        v[i1:] += direction * swing
    return v


def _reference_window_profile(tau, t20_80, shape, dt, tel=None):
    """The normalized edge profile at offsets *tau*: a unit step at
    zero rise time, the exact ramp for ``LINEAR``, else a linear
    interpolation (lerp) into the cached edge template with the
    index clipped to the template ends. A copy of the formula, so the
    renders built on it do not move with ``_kernels._window_profile``
    (pinned bitwise to this copy)."""
    if t20_80 == 0.0:
        return (tau >= 0.0).astype(np.float64)
    if shape is EdgeShape.LINEAR:
        return np.clip(tau / (t20_80 / 0.6) + 0.5, 0.0, 1.0)
    tmpl = _kernels.edge_template(shape, t20_80, dt, tel=tel)
    pos = (tau - tmpl.x0) / tmpl.sub_dt
    k = pos.astype(np.int64)
    np.clip(k, 0, len(tmpl.values) - 2, out=k)
    frac = pos - k
    lo = tmpl.values[k]
    return lo + frac * (tmpl.values[k + 1] - lo)


def render_nrz(n, t_start, dt, base, swing, times, directions,
               t20_80, shape, tel=None):
    """Single-record NRZ render: the bitwise per-row reference for
    ``_kernels.render_nrz_batch``.

    A step baseline built in one full-length ``bincount``/``cumsum``
    pass plus one flat gather/scatter over the concatenated edge
    windows, evaluated through :func:`_reference_window_profile`.
    """
    v = np.full(n, base, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0:
        return v
    directions = np.asarray(directions, dtype=np.float64)
    window = _kernels.edge_window(t20_80, dt)

    # Window bounds per edge, truncated exactly as the reference
    # loop's int() casts did, then clipped to the record.
    i0 = ((times - window - t_start) / dt).astype(np.int64)
    i1 = ((times + window - t_start) / dt).astype(np.int64) + 2
    np.clip(i0, 0, n, out=i0)
    np.clip(i1, i0, n, out=i1)

    # Saturated tails: every edge adds a +/-swing step from the end
    # of its window onward.
    steps = np.bincount(i1, weights=directions * swing,
                        minlength=n + 1)[:n]
    v += np.cumsum(steps)

    # In-window contribution, flattened across edges.
    lengths = i1 - i0
    total = int(lengths.sum())
    if total == 0:
        return v
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(i0 - starts, lengths) + np.arange(total)
    tau = (t_start + dt * flat) - np.repeat(times, lengths)
    profile = _reference_window_profile(tau, t20_80, shape, dt, tel)
    contrib = np.repeat(directions * swing, lengths) * profile
    v += np.bincount(flat, weights=contrib, minlength=n)
    return v


def _render_row(n, t_start, dt, base, swing, times, directions,
                t20_80, shape):
    """One record through the production kernel as a one-row batch."""
    times = np.asarray(times, dtype=np.float64)
    return _kernels.render_nrz_batch(
        1, n, t_start, dt, base=np.array([base]), swing=swing,
        times=times, directions=directions,
        rows=np.zeros(len(times), dtype=np.int64), t20_80=t20_80,
        shape=shape)[0]


def _reference_sosfilt_batch(values, order, wn, n_imp):
    """Batch Bessel low-pass with the filter designed on every call
    (no memo): ``(filtered, group_delay_samples)``."""
    from scipy import signal as sps

    sos = sps.bessel(order, wn, btype="low", output="sos", norm="mag")
    mean = values.mean(axis=1, keepdims=True)
    filtered = sps.sosfilt(sos, values - mean, axis=-1) + mean
    impulse = np.zeros(n_imp)
    impulse[0] = 1.0
    h = sps.sosfilt(sos, impulse)
    total = float(h.sum())
    group_delay_samples = 0.0
    if abs(total) > 1e-12:
        group_delay_samples = float((np.arange(n_imp) * h).sum()
                                    / total)
    return filtered, group_delay_samples


def _reference_coupling_mix(values, dt, weights):
    """Crosstalk mix with a fresh product per rise scale (no scratch
    buffer)."""
    from scipy.ndimage import gaussian_filter1d

    if not weights or not values.shape[1]:
        return values.copy()
    dv = np.gradient(values, dt, axis=1)
    out = values.copy()
    for rise_scale_ps, w in weights.items():
        mixed = w @ dv
        sigma_samples = rise_scale_ps / dt
        if sigma_samples > 0.05:
            mixed = gaussian_filter1d(mixed, sigma_samples, axis=-1,
                                      mode="nearest")
        out += mixed
    return out


def _reference_eye_fold(values, thresholds):
    """Threshold crossings from an int8 diff of the above-threshold
    mask: ``(rows, cols, frac)``."""
    above = values > thresholds[:, None]
    d = np.diff(above.astype(np.int8), axis=1)
    rows, cols = np.nonzero(d != 0)
    v0 = values[rows, cols]
    v1 = values[rows, cols + 1]
    frac = (thresholds[rows] - v0) / (v1 - v0)
    return rows, cols, frac


def _reference_density_bin(phases, voltages, t_edges, v_edges):
    """Per-row densities from one ``np.histogramdd`` call with the row
    index as a third coordinate (exact counts, as int64); a period of
    phases repeats along the row."""
    voltages = np.asarray(voltages, dtype=np.float64)
    c, n = voltages.shape
    if c == 0 or n == 0:
        return np.zeros((c, len(t_edges) - 1, len(v_edges) - 1),
                        dtype=np.int64)
    rows = np.repeat(np.arange(c, dtype=np.float64), n)
    hist, _ = np.histogramdd(
        (rows, np.tile(np.resize(np.asarray(phases, dtype=np.float64),
                                 n), c),
         voltages.reshape(-1)),
        bins=(np.arange(c + 1, dtype=np.float64), t_edges, v_edges),
    )
    return hist.astype(np.int64)


def _reference_prbs_batch(order, length, seeds):
    """Per-seed stack of the bit-at-a-time scalar LFSR."""
    if not seeds:
        return np.empty((0, length), dtype=np.uint8)
    return np.stack([prbs_bits_scalar(order, length, s)
                     for s in seeds])


def _reference_render_nrz_batch(n_rows, n, t_start, dt, base, swing,
                                times, directions, rows, t20_80, shape,
                                tel=None):
    """``render_nrz`` once per row: the batched render's bitwise
    reference."""
    base = np.asarray(base, dtype=np.float64)
    swing = np.broadcast_to(np.asarray(swing, dtype=np.float64),
                            (n_rows,))
    times = np.asarray(times, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    rows = np.asarray(rows)
    out = np.empty((n_rows, n), dtype=np.float64)
    for r in range(n_rows):
        out[r] = render_nrz(
            n, t_start, dt, base[r], swing[r], times[rows == r],
            directions[rows == r], t20_80, shape, tel=tel)
    return out


_prbs_bits_blockwise = _kernels.prbs_bits_blockwise


def _per_seed_prbs_blockwise(order, length, seeds, tap_a, tap_b,
                             block=None):
    """One blockwise LFSR call per seed, stacked (no shared state
    matrix across seeds)."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        return np.empty((0, length), dtype=np.uint8)
    return np.concatenate([
        _prbs_bits_blockwise(order, length, [s], tap_a, tap_b,
                             block=block)
        for s in seeds
    ])


#: ``repro.signal._kernels`` op -> the plain reference op swapped in
#: for the ``numpy`` run of :func:`array_ops`.
REFERENCE_ARRAY_OPS = {
    "render_nrz_batch": _reference_render_nrz_batch,
    "sosfilt_batch": _reference_sosfilt_batch,
    "coupling_mix": _reference_coupling_mix,
    "eye_fold": _reference_eye_fold,
    "density_bin": _reference_density_bin,
    "prbs_bits_blockwise": _per_seed_prbs_blockwise,
}


@pytest.fixture(scope="class", params=["fused", "numpy"])
def array_ops(request):
    """Run a golden suite twice: ``fused`` on the production kernels
    of ``repro.signal._kernels``, ``numpy`` with every batched op
    replaced by its plain reference op (:data:`REFERENCE_ARRAY_OPS`).
    The pipeline-level identities must hold whichever implementation
    executes the ops. The ids keep the names of the two kernel sets
    this pair of runs replaced. Class-scoped so hypothesis ``@given``
    tests can share it, and so the swap never outlives the class."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "numpy":
            for name, op in REFERENCE_ARRAY_OPS.items():
                mp.setattr(_kernels, name, op)
        yield request.param


class _ReferenceFabric:
    """The original fabric step: a dict-of-``RoutingNode`` scan.

    Reproduces the original routing semantics exactly — release all
    nodes inner-cylinder-first (ascending address within a cylinder),
    claim targets through a ``new_occupancy`` dict, inject round-robin
    by angle — so journeys, ordering, and statistics are the golden
    reference for the fabric's routing pass.
    """

    def __init__(self, config):
        from collections import deque

        from repro.vortex.packet import VortexPacket

        self._VortexPacket = VortexPacket
        self.topology = VortexTopology(config.n_angles, config.n_heights)
        self.nodes = {
            addr: RoutingNode(addr) for addr in self.topology.nodes()
        }
        self.cycle = 0
        self.injection_queue = deque()
        self.output_queues = {h: [] for h in range(config.n_heights)}
        self.stats = FabricStats()
        self._next_packet_id = 0
        self._inject_angle = 0

    def submit(self, destination_height, payload=None):
        packet = self._VortexPacket(
            packet_id=self._next_packet_id,
            destination_height=destination_height,
            payload=payload,
            injected_cycle=self.cycle,
        )
        self._next_packet_id += 1
        self.injection_queue.append(packet)
        self.stats.submitted += 1
        return packet

    def step(self):
        topo = self.topology
        decisions = {}
        new_occupancy = {}
        for c in range(topo.n_cylinders - 1, -1, -1):
            for addr, node in self.nodes.items():
                if addr.cylinder != c or not node.occupied:
                    continue
                packet = node.release()
                packet.hops += 1
                if at_destination(topo, addr, packet.destination_height):
                    self.output_queues[addr.height].append(packet)
                    self.stats.record_delivery(packet, self.cycle + 1)
                    decisions[packet.packet_id] = RoutingDecision.EJECT
                    continue
                if wants_descent(topo, addr, packet.destination_height):
                    target = topo.descend_next(addr)
                    if (target not in new_occupancy
                            and not self.nodes[target].occupied):
                        new_occupancy[target] = packet
                        decisions[packet.packet_id] = \
                            RoutingDecision.DESCEND
                        continue
                    packet.deflections += 1
                    self.stats.deflections += 1
                    decisions[packet.packet_id] = RoutingDecision.DEFLECT
                else:
                    decisions[packet.packet_id] = RoutingDecision.CIRCLE
                target = topo.same_cylinder_next(addr)
                new_occupancy[target] = packet
        self._inject(new_occupancy)
        for addr, packet in new_occupancy.items():
            self.nodes[addr].accept(packet)
        self.cycle += 1
        self.stats.cycles = self.cycle
        return decisions

    def _inject(self, new_occupancy):
        if not self.injection_queue:
            return
        a0 = self._inject_angle
        for k in range(self.topology.n_angles):
            if not self.injection_queue:
                break
            angle = (a0 + k) % self.topology.n_angles
            for height in range(self.topology.n_heights):
                if not self.injection_queue:
                    break
                addr = NodeAddress(0, angle, height)
                if addr in new_occupancy or self.nodes[addr].occupied:
                    continue
                packet = self.injection_queue.popleft()
                packet.injected_cycle = self.cycle
                new_occupancy[addr] = packet
                self.stats.injected += 1
        self.stats.injection_blocks += len(self.injection_queue)
        self._inject_angle = (a0 + 1) % self.topology.n_angles


def _reference_bathtub(budget, unit_interval, n_points=101,
                       transition_density=0.5):
    """The original per-point ``math.erfc`` bathtub loop."""
    dj_half = (budget.dj_pp + budget.dcd_pp + budget.pj_pp) / 2.0
    sigma = budget.rj_rms
    x = np.linspace(0.0, 1.0, n_points) * unit_interval
    ber = np.empty(n_points, dtype=np.float64)
    for i, xi in enumerate(x):
        left = 0.5 * (_q_tail(xi - dj_half, sigma)
                      + _q_tail(xi + dj_half, sigma))
        right = 0.5 * (_q_tail(unit_interval - xi - dj_half, sigma)
                       + _q_tail(unit_interval - xi + dj_half, sigma))
        ber[i] = transition_density * (left + right)
    return x / unit_interval, ber


def _reference_empirical_bathtub(dev, unit_interval, n_points=101):
    """The original per-strobe counting loop."""
    x = np.linspace(0.0, 1.0, n_points) * unit_interval
    n = float(len(dev))
    ber = np.empty(n_points, dtype=np.float64)
    for i, xi in enumerate(x):
        errs = (np.count_nonzero(dev > xi)
                + np.count_nonzero(dev + unit_interval < xi))
        ber[i] = errs / (2.0 * n)
    return x / unit_interval, ber


# ---------------------------------------------------------------------------
# NRZ rendering
# ---------------------------------------------------------------------------


class TestWindowProfile:
    """``_kernels._window_profile`` is bit-identical to the copy of its
    formula kept here, so the reference renders built on that copy
    check the production lerp rather than repeat it."""

    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80", [0.0, 1.0, 30.0, 72.0, 120.0])
    @pytest.mark.parametrize("dt", [0.8, 1.0, 25.0])
    def test_matches_reference_lerp(self, shape, t20_80, dt):
        tmpl = _kernels.edge_template(shape, t20_80, dt)
        x_last = tmpl.x0 + tmpl.sub_dt * (len(tmpl.values) - 1)
        # Past both template ends, so the index clip is exercised.
        reach = max(-tmpl.x0, x_last) + 3.0 * dt
        rng = np.random.default_rng(int(t20_80 * 10 + dt * 100))
        tau = np.concatenate((
            np.linspace(-reach, reach, 5001),
            rng.uniform(-reach, reach, 2000),
            [0.0, tmpl.x0, x_last, -tmpl.window, tmpl.window],
        ))
        if t20_80 > 0.0 and shape is not EdgeShape.LINEAR:
            pos = (tau - tmpl.x0) / tmpl.sub_dt
            assert pos.min() < 0.0
            assert pos.max() > len(tmpl.values) - 1
        got = _kernels._window_profile(tau, t20_80, shape, dt)
        assert got.dtype == np.float64
        assert np.array_equal(
            got, _reference_window_profile(tau, t20_80, shape, dt))


@pytest.mark.usefixtures("array_ops")
class TestNRZRenderEquivalence:
    """A one-row ``render_nrz_batch`` against the per-edge reference
    loop and the single-record reference render."""

    @staticmethod
    def _check_one_row(shape, t20_80, jitter):
        rng = np.random.default_rng(12)
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4,
                         t20_80=t20_80, shape=shape)
        bits = rng.integers(0, 2, 400)
        bits[0] = 1
        times, directions, _ = enc.edge_times_and_directions(bits)
        times = times + rng.normal(0.0, jitter, len(times))
        ui = enc.unit_interval
        n = int(round((len(bits) * ui + 2 * ui) / enc.dt)) + 1
        swing = enc.v_high - enc.v_low
        base = enc.v_low + swing * float(bits[0])
        args = (n, -ui, enc.dt, base, swing, times, directions, t20_80,
                shape)
        got = _render_row(*args)
        assert np.array_equal(got, render_nrz(*args))
        ref = _reference_render_nrz(*args)
        err = np.max(np.abs(got - ref)) / swing
        assert err <= _kernels.NRZ_EQUIVALENCE_ATOL
        if t20_80 == 0.0:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80", [0.0, 1.0, 30.0, 72.0, 120.0])
    def test_matches_reference_loop(self, shape, t20_80):
        """Jittered edges: the general fallback."""
        self._check_one_row(shape, t20_80, jitter=3.0)

    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80", [0.0, 1.0, 30.0, 72.0, 120.0])
    def test_integer_grid_matches_reference_loop(self, shape, t20_80):
        """Clean edges on whole picoseconds: the grouped-profile
        path."""
        self._check_one_row(shape, t20_80, jitter=0.0)

    def test_encode_end_to_end_with_jitter(self):
        """Full encode path (edges + jitter model) stays within the
        documented tolerance of the reference loop."""
        budget = JitterBudget(rj_rms=3.2, dj_pp=23.0).build()
        enc = NRZEncoder(2.5, v_low=-0.4, v_high=0.4, t20_80=72.0)
        bits = prbs_bits(7, 300)
        wf = enc.encode(bits, jitter=budget,
                        rng=np.random.default_rng(1))
        times, directions, history = enc.edge_times_and_directions(bits)
        times = times + budget.offsets(times, directions, history,
                                       np.random.default_rng(1))
        swing = enc.v_high - enc.v_low
        ref = _reference_render_nrz(
            len(wf), wf.t0, enc.dt,
            enc.v_low + swing * float(bits[0]), swing,
            times, directions, enc.t20_80, enc.shape)
        assert np.max(np.abs(wf.values - ref)) / swing \
            <= _kernels.NRZ_EQUIVALENCE_ATOL

    def test_no_edges_is_flat(self):
        got = _render_row(
            50, 0.0, 1.0, base=0.3, swing=0.8,
            times=np.empty(0), directions=np.empty(0),
            t20_80=50.0, shape=EdgeShape.ERF)
        assert np.array_equal(got, np.full(50, 0.3))

    def test_edges_outside_record_only_contribute_steps(self):
        """An edge past the last sample influences nothing; one far
        before the first sample shifts the whole record by its step."""
        ref_args = dict(n=100, t_start=0.0, dt=1.0, base=0.0,
                        swing=1.0, t20_80=5.0, shape=EdgeShape.ERF)
        early = _render_row(
            times=np.array([-500.0]), directions=np.array([1.0]),
            **ref_args)
        assert np.allclose(early, 1.0)
        late = _render_row(
            times=np.array([5000.0]), directions=np.array([1.0]),
            **ref_args)
        assert np.allclose(late, 0.0)


@pytest.mark.usefixtures("array_ops")
class TestTemplateCache:
    def setup_method(self):
        _kernels.clear_template_cache()

    def test_hit_miss_counters(self):
        from repro import telemetry

        reg = telemetry.Registry()
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=reg)
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=reg)
        _kernels.edge_template(EdgeShape.EXPONENTIAL, 70.0, 1.0,
                               tel=reg)
        counters = reg.to_dict()["counters"]
        assert counters["nrz.template_cache.misses"] == 2
        assert counters["nrz.template_cache.hits"] == 1

    def test_cache_is_lru_bounded(self):
        for i in range(_kernels._TEMPLATE_CACHE_MAX + 10):
            _kernels.edge_template(EdgeShape.ERF, 10.0 + i, 1.0)
        assert _kernels.template_cache_size() \
            == _kernels._TEMPLATE_CACHE_MAX

    def test_template_reused_across_encodes(self):
        from repro import telemetry

        with telemetry.use_registry() as reg:
            enc = NRZEncoder(2.5, t20_80=70.0)
            enc.encode([0, 1, 0, 1])
            enc.encode([1, 0, 1, 0])
        counters = reg.to_dict()["counters"]
        assert counters["nrz.template_cache.misses"] == 1
        assert counters["nrz.template_cache.hits"] == 1

    def test_safe_under_concurrency(self):
        """Lookups, inserts, evictions, and clears from many threads
        never corrupt the LRU or overrun its bound."""
        import threading

        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in range(200):
                    t20_80 = float(rng.integers(20, 28))
                    _kernels.edge_template(EdgeShape.ERF, t20_80, 25.0)
                    if i % 50 == 17:
                        _kernels.clear_template_cache()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert (_kernels.template_cache_size()
                <= _kernels._TEMPLATE_CACHE_MAX)


# ---------------------------------------------------------------------------
# PRBS
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("array_ops")
class TestPRBSEquivalence:
    @pytest.mark.parametrize("order", sorted(PRBS_POLYNOMIALS))
    def test_blockwise_matches_scalar(self, order):
        for seed in (1, 5, (1 << order) - 1):
            for length in (0, 1, 7, 300, 9000):
                assert np.array_equal(
                    prbs_bits(order, length, seed),
                    prbs_bits_scalar(order, length, seed))

    @given(
        order=st.sampled_from(sorted(PRBS_POLYNOMIALS)),
        length=st.integers(0, 600),
        seed_frac=st.integers(1, 10_000),
        block=st.integers(1, 257),
    )
    @settings(max_examples=60, deadline=None)
    def test_blockwise_property(self, order, length, seed_frac, block):
        """Bit-exact for arbitrary (order, seed, length, block)."""
        seed = 1 + seed_frac % ((1 << order) - 1)
        tap_a, tap_b = PRBS_POLYNOMIALS[order]
        got = _kernels.prbs_bits_blockwise(order, length, [seed],
                                           tap_a, tap_b, block=block)
        assert np.array_equal(got[0],
                              prbs_bits_scalar(order, length, seed))

    def test_shard_tiling_contract(self):
        """Concatenated shard outputs reproduce the serial stream."""
        lengths = [0, 17, 4096, 501, 9000]
        states = prbs_shard_states(23, 1, lengths)
        parts = [prbs_bits(23, ln, seed=s)
                 for ln, s in zip(lengths, states)]
        serial = prbs_bits(23, sum(lengths), seed=1)
        assert np.array_equal(np.concatenate(parts), serial)

    def test_advance_state_composes_with_blockwise(self):
        mid = advance_state(15, 77, 6000)
        tail = prbs_bits(15, 2500, seed=mid)
        serial = prbs_bits(15, 8500, seed=77)
        assert np.array_equal(tail, serial[6000:])

    def test_batch_rows_match_serial(self):
        seeds = [1, 5, 130, (1 << 15) - 1]
        block = prbs_bits_batch(15, 200, seeds)
        assert block.shape == (4, 200)
        assert block.dtype == np.uint8
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, prbs_bits_scalar(15, 200, seed))

    def test_batch_empty_seeds(self):
        block = prbs_bits_batch(7, 100, [])
        assert block.shape == (0, 100)
        assert block.dtype == np.uint8

    def test_batch_validates_like_serial(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            prbs_bits_batch(8, 10, [1])
        with pytest.raises(ConfigurationError, match="seed"):
            prbs_bits_batch(7, 10, [1, 0])
        with pytest.raises(ConfigurationError, match="seed"):
            prbs_bits_batch(7, 10, [1 << 7])


# ---------------------------------------------------------------------------
# Batched array kernels
# ---------------------------------------------------------------------------


def _jittered_edges(n_rows, n_edges, ui, sigma, seed, grid):
    """Row-major alternating edges every *ui* ps, jittered by *sigma*
    ps rms: rounded to whole picoseconds when *grid*, else moved off
    the integer grid. ``(times, directions, rows)``."""
    rng = np.random.default_rng(seed)
    times = np.tile(ui * np.arange(1, n_edges + 1), n_rows) \
        + rng.normal(0.0, sigma, n_rows * n_edges)
    times = np.rint(times) if grid else times + 0.37
    directions = np.tile(np.where(np.arange(n_edges) % 2, -1.0, 1.0),
                         n_rows)
    return times, directions, np.repeat(np.arange(n_rows), n_edges)


def _render_block_case(case, grid):
    """``(n_rows, n, t_start, dt, times, directions, rows)`` of one
    block-boundary case; 1 ps samples and 30 ps edges give 242-sample
    windows unless stated."""
    if case == "clock":
        # Edges every 100 ps: each window overlaps its neighbours, so
        # no cut is legal inside a row.
        return (3, 3300, 0.0, 1.0) \
            + _jittered_edges(3, 30, 100.0, 0.0, 0, grid)
    if case == "out-of-order":
        # sigma > UI/2: edges arrive out of time order, so an edge's
        # window can overlap the window of an edge several before it.
        return (2, 12500, -200.0, 1.0) \
            + _jittered_edges(2, 40, 300.0, 200.0, 4, grid)
    if case == "outside-record":
        # Windows wholly before t_start, straddling it, inside,
        # straddling the record end, and wholly past it.
        one = np.array([-900.0, -300.0, -60.0, 400.0, 1100.0, 1950.0,
                        2060.0, 2500.0, 9000.0])
        times = np.concatenate((one, one + 150.0))
        if not grid:
            times = times + 0.37
        directions = np.tile(np.where(np.arange(9) % 2, -1.0, 1.0), 2)
        return (2, 2000, 0.0, 1.0, times, directions,
                np.repeat([0, 1], 9))
    # multi-row: 25 ps samples give ~11-sample windows and rows of at
    # most two edges, so one 64-sample block holds several rows.
    counts = [2, 0, 1, 2, 1, 0, 2, 1, 1, 2, 0, 1]
    rng = np.random.default_rng(7)
    times = np.concatenate([np.sort(rng.integers(-150, 1100, c))
                            for c in counts]).astype(np.float64)
    if not grid:
        times = times + 0.37
    directions = np.concatenate([[1.0, -1.0][:c] for c in counts])
    rows = np.repeat(np.arange(len(counts)), counts)
    return len(counts), 40, -100.0, 25.0, times, directions, rows


def _edge_block(n_rows, n_bits, ui, seed):
    """Row-major ``(times, directions, rows, base)`` for a random bit
    block, edges on multiples of *ui*."""
    bits = np.random.default_rng(seed).integers(0, 2, (n_rows, n_bits))
    rows, change = np.nonzero(np.diff(bits, axis=1) != 0)
    times = (change + 1).astype(np.float64) * ui
    directions = np.where(bits[rows, change + 1] > bits[rows, change],
                          1.0, -1.0)
    return times, directions, rows, bits[:, 0].astype(np.float64)


class TestBatchKernelEquivalence:
    """Each batched kernel is bit-identical to its reference op."""

    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80,dt", [
        (0.0, 1.0), (72.0, 1.0), (72.0, 25.0), (30.0, 25.0),
    ])
    def test_render_integer_grid_takes_fast_path(self, monkeypatch,
                                                 shape, t20_80, dt):
        calls = []
        grouped = _kernels._add_windows_grouped
        monkeypatch.setattr(
            _kernels, "_add_windows_grouped",
            lambda *a: calls.append(1) or grouped(*a))
        times, directions, rows, base = _edge_block(6, 48, 100.0, 3)
        # Early and late edges exercise the record-boundary clipping.
        n, t_start = int(round(5000.0 / dt)), -100.0
        got = _kernels.render_nrz_batch(
            6, n, t_start, dt, base=base, swing=0.8, times=times,
            directions=directions, rows=rows, t20_80=t20_80,
            shape=shape)
        assert calls, "integer grid must take the grouped fast path"
        ref = _reference_render_nrz_batch(
            6, n, t_start, dt, base, 0.8, times, directions, rows,
            t20_80, shape)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape", list(EdgeShape))
    @pytest.mark.parametrize("t20_80,dt,jitter", [
        (72.0, 1.0, 3.0), (30.0, 25.0, 2.5), (72.0, 0.8, 0.0),
    ])
    def test_render_off_grid_takes_general_fallback(
            self, monkeypatch, shape, t20_80, dt, jitter):
        def forbidden(*args):  # pragma: no cover
            raise AssertionError("off-grid render took the fast path")

        monkeypatch.setattr(_kernels, "_add_windows_grouped", forbidden)
        times, directions, rows, base = _edge_block(5, 40, 100.0, 8)
        times = times + np.random.default_rng(1).normal(
            0.0, jitter, len(times))
        n = int(round(4200.0 / dt))
        got = _kernels.render_nrz_batch(
            5, n, -100.0, dt, base=base, swing=0.8, times=times,
            directions=directions, rows=rows, t20_80=t20_80,
            shape=shape)
        ref = _reference_render_nrz_batch(
            5, n, -100.0, dt, base, 0.8, times, directions, rows,
            t20_80, shape)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("grid", [True, False],
                             ids=["integer-grid", "off-grid"])
    @pytest.mark.parametrize("case", [
        "clock", "out-of-order", "outside-record", "multi-row"])
    def test_render_blocks_match_reference(self, monkeypatch, case,
                                           grid):
        """With ~64-sample in-window blocks every cut falls where no
        bin gets terms from both sides, for any edge order."""
        monkeypatch.setattr(_kernels, "_RENDER_BLOCK", 64)
        body, other = ("_add_windows_grouped", "_add_windows_flat")
        if not grid:
            body, other = other, body
        calls = []
        per_block = getattr(_kernels, body)
        monkeypatch.setattr(_kernels, body,
                            lambda *a: calls.append(1) or per_block(*a))

        def forbidden(*args):  # pragma: no cover
            raise AssertionError(f"{case} took {other}")

        monkeypatch.setattr(_kernels, other, forbidden)
        n_rows, n, t_start, dt, times, directions, rows = \
            _render_block_case(case, grid)
        base = np.linspace(-0.4, 0.4, n_rows)
        got = _kernels.render_nrz_batch(
            n_rows, n, t_start, dt, base=base, swing=0.8, times=times,
            directions=directions, rows=rows, t20_80=30.0,
            shape=EdgeShape.ERF)
        ref = _reference_render_nrz_batch(
            n_rows, n, t_start, dt, base, 0.8, times, directions, rows,
            30.0, EdgeShape.ERF)
        assert np.array_equal(got, ref)
        if case == "clock":
            assert len(calls) == n_rows  # one block per row
        elif case == "multi-row":
            assert len(calls) < len(np.unique(rows))
        else:
            assert len(calls) > n_rows

    @given(
        n_rows=st.integers(1, 4),
        n_edges=st.integers(0, 24),
        ui=st.sampled_from([60.0, 100.0, 300.0]),
        sigma_ui=st.sampled_from([0.0, 0.2, 0.7]),
        grid=st.booleans(),
        block=st.sampled_from([1, 17, 64, 700]),
        shape=st.sampled_from(list(EdgeShape)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_render_blocks_property(self, n_rows, n_edges, ui, sigma_ui,
                                    grid, block, shape, seed):
        """Any block size, edge spacing, jitter (up to 0.7 UI rms, so
        out of order) and row count: bit-identical to the per-row
        reference render, on both in-window paths."""
        times, directions, rows = _jittered_edges(
            n_rows, n_edges, ui, sigma_ui * ui, seed, grid)
        n = int((n_edges + 1) * ui)
        base = np.full(n_rows, -0.4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_RENDER_BLOCK", block)
            got = _kernels.render_nrz_batch(
                n_rows, n, -ui / 2.0, 1.0, base=base, swing=0.8,
                times=times, directions=directions, rows=rows,
                t20_80=30.0, shape=shape)
        ref = _reference_render_nrz_batch(
            n_rows, n, -ui / 2.0, 1.0, base, 0.8, times, directions,
            rows, 30.0, shape)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("order,wn,n_imp", [
        (4, 0.05, 320), (4, 0.3, 64), (2, 0.12, 128),
    ])
    def test_sosfilt_batch(self, order, wn, n_imp):
        values = np.random.default_rng(order).normal(0.1, 0.4, (6, 700))
        ref, ref_gd = _reference_sosfilt_batch(values, order, wn, n_imp)
        for _ in range(2):  # design memo miss, then hit
            got, gd = _kernels.sosfilt_batch(values, order, wn, n_imp)
            assert np.array_equal(got, ref)
            assert gd == ref_gd

    @pytest.mark.parametrize("dt", [1.0, 25.0])
    def test_coupling_mix(self, dt):
        names = [f"ch{i}" for i in range(7)]
        values = np.cumsum(np.random.default_rng(4).normal(
            0.0, 0.05, (7, 600)), axis=1)
        for matrix in (
                CrosstalkMatrix(names),
                CrosstalkMatrix(
                    names,
                    adjacent=CouplingSpec(0.04, rise_scale_ps=60.0),
                    next_adjacent=CouplingSpec(0.01,
                                               rise_scale_ps=1.0))):
            weights = matrix.coupling_weights()
            got = _kernels.coupling_mix(values, dt, weights)
            assert np.array_equal(
                got, _reference_coupling_mix(values, dt, weights))
            assert not np.shares_memory(got, values)
        empty = np.empty((7, 0))
        assert _kernels.coupling_mix(empty, dt, weights).shape \
            == (7, 0)
        assert np.array_equal(_kernels.coupling_mix(values, dt, {}),
                              values)

    def test_eye_fold(self):
        rng = np.random.default_rng(6)
        values = np.cumsum(rng.normal(0.0, 0.2, (5, 900)), axis=1)
        values[:, ::37] = 0.25  # samples exactly on the threshold
        thresholds = np.array([0.25, 0.0, -0.3, 0.25, 5.0])
        for block in (values, values[:, 100:700], values[:, :1],
                      values[:0]):
            got = _kernels.eye_fold(block, thresholds[:len(block)])
            ref = _reference_eye_fold(block, thresholds[:len(block)])
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    def test_density_bin(self):
        rng = np.random.default_rng(9)
        ui, n = 400.0, 4000
        t_edges = np.linspace(0.0, ui, 65)
        v_edges = np.linspace(-0.5, 0.5, 49)
        phases = fold_phases(-37.0, 1.0, n, ui)
        values = rng.normal(0.0, 0.3, (4, n))  # some out of range
        values[0, :200] = v_edges[rng.integers(0, 49, 200)]  # on edges
        values[1, :5] = [-0.5, 0.5, np.nextafter(0.5, 1.0),
                         np.nextafter(-0.5, -1.0), 1e300]
        got = _kernels.density_bin(phases, values, t_edges, v_edges)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, _reference_density_bin(phases, values, t_edges,
                                        v_edges))
        # The time axis's last edge folds into the last bin too.
        edge_phases = np.concatenate(([0.0, ui], phases[2:]))
        assert np.array_equal(
            _kernels.density_bin(edge_phases, values, t_edges, v_edges),
            _reference_density_bin(edge_phases, values, t_edges,
                                   v_edges))
        assert _kernels.density_bin(phases[:0], values[:, :0], t_edges,
                                    v_edges).shape == (4, 64, 48)

    def test_density_bin_periodic_phases(self):
        """One period of phases bins as the tiled fold's every phase:
        on a tiling grid, on edges, and for a one-row block."""
        rng = np.random.default_rng(10)
        ui, n = 400.0, 2048
        t_edges = np.linspace(0.0, ui, 33)
        v_edges = np.linspace(-0.45, 0.45, 33)
        values = rng.normal(0.0, 0.3, (3, n))
        values[0, :100] = v_edges[rng.integers(0, 33, 100)]
        for offset in (0.0, -37.0, 1234.5):
            period = period_phases(offset, 1.0, n, ui)
            assert len(period) == 400
            tiled = fold_phases(offset, 1.0, n, ui)
            for block in (values, values[1:2]):
                assert np.array_equal(
                    _kernels.density_bin(period, block, t_edges,
                                         v_edges),
                    _kernels.density_bin(tiled, block, t_edges,
                                         v_edges))
        on_edges = t_edges[:-1].copy()  # 32 phases, every one an edge
        assert np.array_equal(
            _kernels.density_bin(on_edges, values, t_edges, v_edges),
            _reference_density_bin(np.resize(on_edges, n), values,
                                   t_edges, v_edges))

    @pytest.mark.parametrize("order", sorted(PRBS_POLYNOMIALS))
    def test_prbs_batch(self, order):
        tap_a, tap_b = PRBS_POLYNOMIALS[order]
        seeds = [1, 3, (1 << order) - 1, 1 + 977 % ((1 << order) - 1)]
        for length in (0, 1, 300, 9000):
            for block in (None, 64):
                got = _kernels.prbs_bits_blockwise(
                    order, length, seeds, tap_a, tap_b, block=block)
                assert got.dtype == np.uint8
                assert np.array_equal(
                    got, _reference_prbs_batch(order, length, seeds))
        assert _kernels.prbs_bits_blockwise(
            order, 50, [], tap_a, tap_b).shape == (0, 50)


# ---------------------------------------------------------------------------
# Vortex fabric
# ---------------------------------------------------------------------------


def _drive(fab, seed, n_cycles, n_heights, submit_prob, attempts=1,
           pattern=None):
    """Drive *fab* with a deterministic workload: 12 packets up front,
    then *attempts* submissions a cycle, each with probability
    *submit_prob*, addressed by *pattern* (uniform by default).
    Returns the journal, deliveries and statistics."""
    rng = np.random.default_rng(seed)
    pattern = pattern or UniformTraffic()
    journal = []
    for _ in range(12):
        fab.submit(pattern.destination(rng, n_heights))
    for _ in range(n_cycles):
        decisions = fab.step()
        journal.append(sorted((pid, d.name)
                              for pid, d in decisions.items()))
        for _ in range(attempts):
            if rng.random() < submit_prob:
                fab.submit(pattern.destination(rng, n_heights))
    deliveries = {
        h: [(p.packet_id, p.hops, p.deflections, p.injected_cycle)
            for p in q]
        for h, q in fab.output_queues.items()
    }
    return journal, deliveries, vars(fab.stats)


class TestFabricEquivalence:
    @pytest.mark.parametrize(
        "n_angles,n_heights,attempts,load,min_peak", [
            (1, 1, 1, 0.7, 1),
            (3, 4, 1, 0.7, 1),
            (5, 8, 1, 0.7, 1),
            (3, 16, 1, 0.7, 1),
            # Busy fabrics: 48 or more resident packets at the peak.
            (5, 8, 8, 0.9, 48),
            (4, 32, 8, 1.0, 48),
        ])
    def test_matches_reference_fabric(self, n_angles, n_heights,
                                      attempts, load, min_peak):
        config = FabricConfig(n_angles=n_angles, n_heights=n_heights)
        for seed in (3, 41):
            ref_out = _drive(_ReferenceFabric(config), seed, 120,
                             n_heights, load, attempts)
            got_out = _drive(DataVortexFabric(config), seed, 120,
                             n_heights, load, attempts)
            assert got_out[0] == ref_out[0], \
                f"decision journal diverged (seed {seed})"
            assert got_out[1] == ref_out[1], \
                f"deliveries diverged (seed {seed})"
            assert got_out[2] == ref_out[2], \
                f"stats diverged (seed {seed})"
            # Each step decides once per resident packet.
            assert max(map(len, got_out[0])) >= min_peak

    @pytest.mark.parametrize("pattern", [
        "uniform", "hotspot", "permutation", "bursty"])
    def test_matches_reference_under_traffic(self, pattern):
        """The four standard traffic patterns, one attempt per angle
        a cycle at 0.9 offered load: hotspot and bursty traffic pile
        packets onto one output, the contention that deflects most."""
        make = {
            "uniform": UniformTraffic,
            "hotspot": lambda: HotspotTraffic(hot_fraction=0.5),
            "permutation": lambda: PermutationTraffic(seed=7),
            "bursty": lambda: BurstyTraffic(burst_length=8),
        }[pattern]
        config = FabricConfig(n_angles=4, n_heights=8)
        ref_out = _drive(_ReferenceFabric(config), 5, 150, 8, 0.9,
                         attempts=4, pattern=make())
        got_out = _drive(DataVortexFabric(config), 5, 150, 8, 0.9,
                         attempts=4, pattern=make())
        assert got_out[0] == ref_out[0], "decision journal diverged"
        assert got_out[1] == ref_out[1], "deliveries diverged"
        assert got_out[2] == ref_out[2], "stats diverged"
        assert got_out[2]["deflections"] > 0

    def test_node_view_round_trip(self):
        """The live nodes view reads and writes the fabric's state."""
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4))
        pkt = fab.submit(2)
        fab.step()
        occupied = [(addr, node) for addr, node in fab.nodes.items()
                    if node.occupied]
        assert len(occupied) == 1
        addr, node = occupied[0]
        assert addr.cylinder == 0
        assert node.packet is pkt
        released = node.release()
        assert released is pkt
        assert fab.packets_in_flight == 0
        node.accept(pkt)
        assert fab.packets_in_flight == 1
        assert fab.nodes[addr].packet.hops == pkt.hops


# ---------------------------------------------------------------------------
# Bathtub
# ---------------------------------------------------------------------------


class TestBathtubEquivalence:
    @pytest.mark.parametrize("budget", [
        JitterBudget(rj_rms=3.0, dj_pp=20.0),
        JitterBudget(rj_rms=0.0, dj_pp=50.0),
        JitterBudget(rj_rms=7.5),
        JitterBudget(rj_rms=2.0, dj_pp=10.0, dcd_pp=4.0, pj_pp=6.0),
    ])
    def test_analytic_matches_reference(self, budget):
        x_ref, ber_ref = _reference_bathtub(budget, 400.0,
                                            n_points=501)
        x_got, ber_got = bathtub_curve(budget, 400.0, n_points=501)
        assert np.array_equal(x_got, x_ref)
        assert np.allclose(ber_got, ber_ref,
                           rtol=BATHTUB_EQUIVALENCE_RTOL,
                           atol=BATHTUB_EQUIVALENCE_ATOL)

    def test_empirical_bit_exact(self):
        rng = np.random.default_rng(5)
        for dev in (rng.normal(0.0, 8.0, 5000),
                    rng.uniform(-30.0, 30.0, 777),
                    np.zeros(3)):
            x_ref, ber_ref = _reference_empirical_bathtub(dev, 400.0)
            x_got, ber_got = empirical_bathtub(dev, 400.0)
            assert np.array_equal(x_got, x_ref)
            assert np.array_equal(ber_got, ber_ref)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1,
                    max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_empirical_property(self, devs):
        dev = np.array(devs)
        _, ber_ref = _reference_empirical_bathtub(dev, 250.0,
                                                  n_points=41)
        _, ber_got = empirical_bathtub(dev, 250.0, n_points=41)
        assert np.array_equal(ber_got, ber_ref)


# ---------------------------------------------------------------------------
# Kernel telemetry
# ---------------------------------------------------------------------------


class TestKernelTelemetry:
    def test_steps_counter(self):
        from repro import telemetry

        with telemetry.use_registry() as reg:
            fab = DataVortexFabric(FabricConfig(n_angles=3,
                                                n_heights=4))
            fab.submit(1)
            fab.step()
            fab.step()
        counters = reg.to_dict()["counters"]
        assert counters["vortex.steps"] == 2
        assert counters["vortex.injected"] == 1
        assert counters["vortex.hops"] == 1

    def test_null_registry_path_is_allocation_free(self):
        """Disabled telemetry returns shared no-op singletons — the
        hot kernels never allocate instruments per call."""
        import tracemalloc

        from repro import telemetry
        from repro.telemetry.instruments import NULL_COUNTER

        null = telemetry.NULL_REGISTRY
        # Every lookup is the same shared object, not a fresh one.
        assert null.counter("nrz.template_cache.hits") is NULL_COUNTER
        assert null.counter("vortex.steps") is NULL_COUNTER
        _kernels.clear_template_cache()
        _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0, tel=null)
        tracemalloc.start()
        for _ in range(50):
            tmpl = _kernels.edge_template(EdgeShape.ERF, 70.0, 1.0,
                                          tel=null)
            null.counter("nrz.template_cache.hits").inc()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        tel_allocs = [
            s for s in snapshot.statistics("filename")
            if "telemetry" in s.traceback[0].filename
        ]
        assert tel_allocs == []
        assert tmpl is not None

    def test_null_registry_leaves_no_metrics_behind(self):
        from repro import telemetry

        telemetry.disable()
        before = telemetry.get_registry().names()
        fab = DataVortexFabric(FabricConfig(n_angles=3, n_heights=4))
        fab.submit(2)
        fab.run(10)
        enc = NRZEncoder(2.5, t20_80=70.0)
        enc.encode([0, 1, 0, 1])
        assert telemetry.get_registry().names() == before


# ---------------------------------------------------------------------------
# Regression pins
# ---------------------------------------------------------------------------


class TestEdgeTimesDtypes:
    def test_empty_returns_pinned_dtypes(self):
        enc = NRZEncoder(2.5)
        for bits in ([], [1], [0]):
            times, directions, history = \
                enc.edge_times_and_directions(np.array(bits))
            assert times.dtype == np.float64
            assert directions.dtype == np.float64
            assert history.dtype == np.int64
            assert len(times) == len(directions) == len(history) == 0

    def test_nonempty_dtypes_match_empty(self):
        enc = NRZEncoder(2.5)
        times, directions, history = \
            enc.edge_times_and_directions(np.array([0, 1, 1, 0]))
        assert times.dtype == np.float64
        assert directions.dtype == np.float64
        assert history.dtype == np.int64
