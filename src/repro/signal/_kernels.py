"""Vectorized hot-path kernels for the signal layer.

The behavioural models in :mod:`repro.signal` stand in for hardware
paths that sustain multi-gigabit line rates, so their inner loops
must be array kernels, not interpreted Python. This module holds
those kernels, one implementation each, called directly by the
signal, channel, and eye layers. Every kernel works on a
``(channels, samples)`` block; the scalar entry points
(``NRZEncoder.encode``, ``LTIChannel.apply``,
``EyeDiagram.from_waveform``, ``EyeAccumulator.update`` on a
``Waveform``) pass a one-row block.

``render_nrz_batch``
    O(samples + edges * window) NRZ rendering of every row at once.
    The per-edge full-tail accumulation of the original
    implementation (each transition did ``v[i1:] += direction *
    swing``, making the render quadratic in the edge count) is
    replaced by a step-level baseline plus a window-local
    contribution evaluated through a cached, oversampled
    edge-profile template, and no temporary spans the whole record.
    The baseline sums the edge steps of each distinct step bin,
    takes a per-row running sum of those sums, and fills the runs
    between step bins with one ``repeat``. The window terms are
    added in blocks of about ``_RENDER_BLOCK`` window samples, cut
    only at window gaps: where every earlier window ends before
    every later one starts. Both stay bit-identical to one
    full-length ``bincount``/``cumsum`` and one whole-record
    ``bincount``: a bin with no step adds ``+0.0``, which leaves a
    running sum unchanged, and every bin sums all of its window
    terms, in edge order, inside one block. On an integer time grid
    (edge instants, ``dt``, and record origin on whole picoseconds:
    every jitter-free paper configuration) the per-edge window
    profiles collapse into a handful of distinct rows, evaluated
    once and gathered per edge. Any other grid takes the general
    flattened render.

``edge_template``
    The template cache. Templates are keyed on
    ``(shape, t20_80, dt)`` and hold the normalized transition
    profile sampled on a sub-sample grid; per-edge sub-sample jitter
    is applied by linear interpolation into the template instead of
    re-evaluating the analytic profile per edge. Hits and misses are
    reported through ``nrz.template_cache.{hits,misses}``.

``sosfilt_batch``
    Bessel low-pass over every row of a block, with the filter design
    and its measured group delay memoized per ``(order, wn, n_imp)``.

``coupling_mix``
    Crosstalk: one derivative pass, one coupling-matrix product per
    rise scale, and one smoothing pass per mixed block.

``eye_fold`` / ``density_bin``
    Threshold crossings over every row of a block, and per-row
    (time x voltage) histogram counts (``int64``, the
    ``histogramdd`` bin convention). The counts take one
    ``searchsorted`` and one offset gather per axis and one
    ``bincount``; a tiled fold's time axis is binned on one period.
    A streaming accumulator calls them once per chunk, so their call
    count, not their arithmetic, sets its cost beside a busy thread.

``prbs_bits_blockwise``
    Blockwise GF(2) PRBS generation. The Fibonacci LFSR output
    obeys ``out[i] = out[i-n] ^ out[i-m]``; expressing a whole block
    of outputs as a binary matrix applied to the current state turns
    bit-at-a-time Python iteration into a handful of small matrix
    products per 8192 bits, for every seed of a batch at once.

Equivalence contracts (enforced by tests/test_kernels_equivalence.py
and tests/test_batch_equivalence.py): the PRBS kernel is bit-exact
against the scalar LFSR; the NRZ kernel matches the per-edge
reference loop within ``NRZ_EQUIVALENCE_ATOL`` of the swing
(template interpolation error; exact for zero rise time), and each
of its rows is bit-identical to the single-record render those
suites keep; every other kernel is bit-identical to the reference
op those suites keep.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.signal.edges import EdgeShape, edge_profile

#: Documented absolute equivalence tolerance of the template-based
#: NRZ render versus direct per-edge profile evaluation, as a
#: fraction of the swing.
NRZ_EQUIVALENCE_ATOL = 1e-5

#: Template sub-sampling: at least this many template points per
#: output sample, scaled up when the transition is fast relative to
#: the sample spacing so interpolation error stays below the
#: documented tolerance.
_MIN_OVERSAMPLE = 64
_MAX_OVERSAMPLE = 4096
_TEMPLATE_POINTS_PER_T2080 = 256

_TEMPLATE_CACHE_MAX = 32

#: Window samples per block of :func:`render_nrz_batch`'s in-window
#: pass: small enough that a block's temporaries (512 KB each) stay
#: in cache, large enough that the per-block overhead stays small.
#: Two renders on two threads, as a thread-executor sweep runs them,
#: can hand the interpreter lock over at every short numpy call; at
#: 16 K such renders spent a quarter to a third of their time waiting
#: for it, at 64 K about a sixth.
_RENDER_BLOCK = 65536


@dataclasses.dataclass(frozen=True)
class EdgeTemplate:
    """One cached, oversampled normalized edge profile.

    Attributes
    ----------
    shape, t20_80, dt:
        The cache key: analytic edge shape, 20-80% transition time
        (ps), and output sample spacing (ps).
    window:
        Half-width (ps) of the region around each edge where the
        profile is evaluated; outside it the edge is saturated.
    x0:
        Time (ps, relative to the edge) of the first template point.
    sub_dt:
        Template point spacing in ps (``dt / oversample``).
    values:
        Profile samples over ``[x0, -x0]``.
    """

    shape: EdgeShape
    t20_80: float
    dt: float
    window: float
    x0: float
    sub_dt: float
    values: np.ndarray


_template_cache: "OrderedDict[Tuple[EdgeShape, float, float], EdgeTemplate]" \
    = OrderedDict()

#: Guards every read-modify-write on the template LRU: the thread
#: executor and the service's worker threads can hit it
#: concurrently, and an unguarded ``move_to_end`` during a
#: ``popitem`` eviction corrupts the OrderedDict. Templates
#: themselves are immutable, so readers only need the lock around
#: the dict operations.
_cache_lock = threading.Lock()


def edge_window(t20_80: float, dt: float) -> float:
    """Half-width of the per-edge evaluation window in ps."""
    return max(4.0 * t20_80, 4.0 * dt)


def edge_template(shape: EdgeShape, t20_80: float, dt: float,
                  tel=None) -> EdgeTemplate:
    """The cached oversampled template for one edge configuration.

    Templates are immutable and shared; the cache is LRU-bounded at
    ``_TEMPLATE_CACHE_MAX`` entries and thread-safe (lookups,
    inserts, and evictions hold a lock; concurrent misses on the
    same key may both build, but the builds are identical and the
    second insert wins harmlessly). When *tel* (a telemetry
    registry) is given, lookups tally ``nrz.template_cache.hits`` /
    ``nrz.template_cache.misses``.
    """
    key = (shape, float(t20_80), float(dt))
    with _cache_lock:
        tmpl = _template_cache.get(key)
        if tmpl is not None:
            _template_cache.move_to_end(key)
    if tmpl is not None:
        if tel is not None:
            tel.counter("nrz.template_cache.hits").inc()
        return tmpl
    if tel is not None:
        tel.counter("nrz.template_cache.misses").inc()

    window = edge_window(t20_80, dt)
    if t20_80 > 0.0:
        oversample = int(min(
            _MAX_OVERSAMPLE,
            max(_MIN_OVERSAMPLE,
                math.ceil(_TEMPLATE_POINTS_PER_T2080 * dt / t20_80)),
        ))
    else:
        oversample = _MIN_OVERSAMPLE
    sub_dt = dt / oversample
    half_span = window + 2.0 * dt
    n_pts = int(math.ceil(2.0 * half_span / sub_dt)) + 2
    x0 = -half_span
    xs = x0 + sub_dt * np.arange(n_pts)
    values = edge_profile(xs, t20_80, shape)
    tmpl = EdgeTemplate(shape=shape, t20_80=float(t20_80), dt=float(dt),
                        window=window, x0=x0, sub_dt=sub_dt,
                        values=values)
    with _cache_lock:
        _template_cache[key] = tmpl
        while len(_template_cache) > _TEMPLATE_CACHE_MAX:
            _template_cache.popitem(last=False)
    return tmpl


def clear_template_cache() -> None:
    """Drop every cached template (tests and memory control)."""
    with _cache_lock:
        _template_cache.clear()


def template_cache_size() -> int:
    """Number of currently cached edge templates."""
    with _cache_lock:
        return len(_template_cache)


def _window_profile(tau: np.ndarray, t20_80: float, shape: EdgeShape,
                    dt: float, tel=None) -> np.ndarray:
    """Normalized edge profile at offsets *tau* from the transition.

    Shared by both in-window paths of :func:`render_nrz_batch` so
    they evaluate bit-identical contributions.
    """
    if t20_80 == 0.0:
        return (tau >= 0.0).astype(np.float64)
    if shape is EdgeShape.LINEAR:
        # A ramp's slope kinks defeat interpolation accuracy, and the
        # exact profile is cheaper than a template lookup anyway.
        return np.clip(tau / (t20_80 / 0.6) + 0.5, 0.0, 1.0)
    tmpl = edge_template(shape, t20_80, dt, tel=tel)
    pos = (tau - tmpl.x0) / tmpl.sub_dt
    k = pos.astype(np.int64)
    np.clip(k, 0, len(tmpl.values) - 2, out=k)
    frac = pos - k
    lo = tmpl.values[k]
    # The window edges sit in the saturated skirt; the step baseline
    # already carries the saturated value, so the in-window term must
    # decay to exactly 0/1 there. Template interpolation does (the
    # profile is flat), no correction needed.
    return lo + frac * (tmpl.values[k + 1] - lo)


def render_nrz_batch(n_channels: int, n: int, t_start: float, dt: float,
                     base: np.ndarray, swing, times: np.ndarray,
                     directions: np.ndarray, rows: np.ndarray,
                     t20_80: float, shape: EdgeShape,
                     tel=None) -> np.ndarray:
    """Render a ``(channels, samples)`` block of NRZ waveforms.

    Every channel's edges are flattened into one set of arrays and
    rendered together, sharing one edge template across all rows.
    Each row is *bit-identical* to rendering that channel alone
    (tested against the single-record reference render in
    ``tests/test_kernels_equivalence.py``), and no temporary spans
    the whole record:

    - The step baseline (:func:`_step_baseline`) sums the edge steps
      of each distinct step bin in edge order, takes a per-row
      running sum of those sums and fills each run of
      ``base + running sum`` with one ``repeat``. Those are the
      values a full-length ``bincount``/``cumsum`` produces, since
      adding a zero bin leaves a running sum unchanged.
    - The in-window terms are added in blocks of about
      ``_RENDER_BLOCK`` window samples (:func:`_window_blocks`),
      cut only where no bin gets terms from both sides of the cut.
      Every bin then sums all of its terms, in edge order, inside
      one block, exactly as one whole-record ``bincount`` would.

    On an integer time grid each block takes the grouped-profile
    body (:func:`_add_windows_grouped`); otherwise (jittered edges,
    fractional ``dt``) the general flattened body
    (:func:`_add_windows_flat`). Both produce the same per-bin float
    sums.

    Parameters
    ----------
    n_channels, n, t_start, dt:
        Output block shape and shared time grid (ps).
    base:
        Per-row level before the first edge, shape ``(n_channels,)``.
    swing:
        ``v_high - v_low``; a scalar or per-row array.
    times, directions, rows:
        Flattened edge instants (ps), +1/-1 directions, and owning
        row indices — sorted by row (row-major edge order).
    t20_80, shape:
        Transition time and analytic edge shape.
    tel:
        Optional telemetry registry for template-cache counters.
    """
    base = np.asarray(base, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(times) == 0 or n == 0:
        return np.repeat(base, n).reshape(n_channels, n)
    directions = np.asarray(directions, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    swing_row = np.broadcast_to(
        np.asarray(swing, dtype=np.float64), (n_channels,))
    edge_amp = directions * swing_row[rows]
    window = edge_window(t20_80, dt)

    i0r = ((times - window - t_start) / dt).astype(np.int64)
    i1r = ((times + window - t_start) / dt).astype(np.int64) + 2
    i0 = np.clip(i0r, 0, n)
    i1 = np.clip(i1r, i0, n)
    v = _step_baseline(n, base, edge_amp, rows, i1)

    # Flat bins of the clipped windows: row r owns [r*n, (r+1)*n).
    start = rows * n + i0
    end = rows * n + i1
    if (dt == np.rint(dt) and t_start == np.rint(t_start)
            and bool(np.all(times == np.rint(times)))):
        prof, gid = _profile_groups(t_start, dt, times, i0r, i1r,
                                    t20_80, shape, tel)
        for a, b, lo, hi in _window_blocks(start, end, i1 - i0):
            _add_windows_grouped(v, lo, hi, edge_amp[a:b], rows[a:b],
                                 i0r[a:b], i1r[a:b], prof, gid[a:b])
    else:
        for a, b, lo, hi in _window_blocks(start, end, i1 - i0):
            _add_windows_flat(v, lo, hi, t_start, dt, times[a:b],
                              edge_amp[a:b], rows[a:b], i0[a:b],
                              i1[a:b], t20_80, shape, tel)
    return v


def _step_baseline(n: int, base: np.ndarray, edge_amp: np.ndarray,
                   rows: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """The ``(channels, n)`` block of *base* plus the saturated tails.

    Every edge adds its ``+/-swing`` step from the end of its window
    (bin ``i1``, ``n`` meaning past the record) onward. The steps of
    each distinct bin are summed in edge order, the per-row running
    sums of those sums give the level of each run between step bins,
    and one ``repeat`` fills the runs. Each sample equals ``base``
    plus the ``cumsum`` of a full-length per-row ``bincount`` of the
    steps: a bin with no step adds ``+0.0``, which leaves a running
    sum unchanged (no sum starting from ``+0.0`` is ``-0.0``).
    """
    n_channels = len(base)
    # Row r owns keys [r*(n+1), (r+1)*(n+1)).
    uniq, inv = np.unique(rows * (n + 1) + i1, return_inverse=True)
    sums = np.bincount(inv, weights=edge_amp)
    urow, ubin = np.divmod(uniq, n + 1)
    first = np.searchsorted(urow, np.arange(n_channels))
    pos = np.arange(len(uniq)) - first[urow]
    # At most n + 1 step bins per row: never larger than the
    # full-length block of steps this replaces.
    padded = np.zeros((n_channels, int(pos.max()) + 1))
    padded[urow, pos] = sums
    running = np.cumsum(padded, axis=1)[urow, pos]
    # Runs in row-major order: each row's leading run at its base
    # level, then one run per distinct step bin of that row.
    lead = first + np.arange(n_channels)
    step = np.arange(len(uniq)) + urow + 1
    levels = np.empty(n_channels + len(uniq))
    levels[lead] = base + 0.0
    levels[step] = base[urow] + running
    run_start = np.empty(n_channels + len(uniq), dtype=np.int64)
    run_start[lead] = np.arange(n_channels) * n
    run_start[step] = urow * n + ubin
    counts = np.diff(run_start, append=n_channels * n)
    return np.repeat(levels, counts).reshape(n_channels, n)


def _window_blocks(start: np.ndarray, end: np.ndarray,
                   lengths: np.ndarray):
    """Blocks ``(a, b, lo, hi)`` of about ``_RENDER_BLOCK`` samples.

    Edge *e* covers the *lengths[e]* flat bins ``[start[e],
    end[e])``. A block is the edge range ``[a, b)``, and every bin
    its edges cover lies in ``[lo, hi)``: *lo* is the lowest start
    bin it holds, *hi* the highest end bin. A cut before edge *e* is
    legal when the largest end bin of the edges before it is at most
    the smallest start bin of the edges from it on, so no bin gets
    terms from both sides. This holds for any edge order, including
    jitter that swaps edges in time; a rule that compared only
    neighbouring edges would not. Each block ends at the first legal
    cut holding at least ``_RENDER_BLOCK`` samples (a window run
    with no legal cut becomes one large block).
    """
    n_edges = len(start)
    done = np.concatenate(([0], np.cumsum(lengths)))
    legal = np.flatnonzero(
        np.maximum.accumulate(end)[:-1]
        <= np.minimum.accumulate(start[::-1])[::-1][1:]) + 1
    at_cut = done[legal]
    a = 0
    while a < n_edges:
        k = int(np.searchsorted(at_cut, done[a] + _RENDER_BLOCK))
        b = int(legal[k]) if k < len(legal) else n_edges
        yield a, b, int(start[a:b].min()), int(end[a:b].max())
        a = b


def _add_windows_flat(v, lo, hi, t_start, dt, times, edge_amp, rows,
                      i0, i1, t20_80, shape, tel) -> None:
    """Add one block of edges' in-window terms to *v* in place.

    The general path: one flat gather/scatter over the block's
    concatenated (clipped) edge windows, whose flat bins
    (``row * n + sample``) all lie in ``[lo, hi)``.
    """
    n_channels, n = v.shape
    lengths = i1 - i0
    total = int(lengths.sum())
    if total == 0:
        return
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(i0 - starts, lengths) + np.arange(total)
    tau = (t_start + dt * flat) - np.repeat(times, lengths)
    profile = _window_profile(tau, t20_80, shape, dt, tel)
    contrib = np.repeat(edge_amp, lengths) * profile
    # Bins relative to the block; one row (every scalar render) needs
    # no per-row offset.
    if n_channels == 1:
        flat -= lo
    else:
        flat += np.repeat(rows * n - lo, lengths)
    v.reshape(-1)[lo:hi] += np.bincount(flat, weights=contrib,
                                        minlength=hi - lo)


def _profile_groups(t_start, dt, times, i0r, i1r, t20_80, shape, tel):
    """``(prof, gid)``: the distinct window profiles of an integer grid.

    Every edge's first in-window offset is then an exact integer, so
    edges whose unclipped windows share (first offset, length) share
    one profile row: ``prof[gid[e], :i1r[e] - i0r[e]]`` is edge *e*'s
    profile, evaluated once per group instead of over every window
    sample. Rows are zero-padded to the longest window.
    """
    first_tau = (t_start + dt * i0r) - times
    lengths_raw = i1r - i0r
    l_max = int(lengths_raw.max())
    # 0 < length <= l_max, so the key is one-to-one on the pair.
    kint = first_tau.astype(np.int64) * (l_max + 1) + lengths_raw
    uniq, first_idx, gid = np.unique(kint, return_index=True,
                                     return_inverse=True)
    prof = np.zeros((len(uniq), l_max))
    for g in range(len(uniq)):
        e = int(first_idx[g])
        lg = int(lengths_raw[e])
        taus = first_tau[e] + dt * np.arange(lg, dtype=np.float64)
        prof[g, :lg] = _window_profile(taus, t20_80, shape, dt, tel)
    return prof, gid


def _add_windows_grouped(v, lo, hi, edge_amp, rows, i0r, i1r, prof,
                         gid) -> None:
    """:func:`_add_windows_flat` for an integer time grid.

    Each edge's window terms are its amplitude times its group's
    profile row (:func:`_profile_groups`), gathered per edge.
    Clipped and padded elements go to a discard bin, so every real
    bin accumulates the same terms in the same (edge-major) order as
    the flat path and its float sum is bit-identical.
    """
    n = v.shape[1]
    l_max = prof.shape[1]
    col = np.arange(l_max, dtype=np.int64)
    trash = hi - lo
    bins = (rows * n + i0r - lo)[:, None] + col
    # Even a signed zero from a clipped element could flip a -0.0 sum.
    # Only edges at the record boundary or in a short-length group
    # have such elements, so mask just those rows.
    partial = np.flatnonzero((i0r < 0) | (i1r > n)
                             | (i1r - i0r < l_max))
    if len(partial):
        samp = i0r[partial, None] + col
        stop = np.minimum(i1r[partial], n)
        sub = bins[partial]
        sub[(samp < 0) | (samp >= stop[:, None])] = trash
        bins[partial] = sub
    weights = edge_amp[:, None] * prof[gid]
    acc = np.bincount(bins.ravel(), weights=weights.ravel(),
                      minlength=trash + 1)
    v.reshape(-1)[lo:hi] += acc[:trash]


# -- LTI filtering ----------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _bessel_design(order: int, wn: float,
                   n_imp: int) -> Tuple[np.ndarray, float]:
    """Bessel low-pass SOS and its group delay in samples.

    The delay is the first moment of an *n_imp*-sample impulse
    response. Memoized: the design costs more than filtering a
    64-channel block.
    """
    from scipy import signal as sps

    sos = sps.bessel(order, wn, btype="low", output="sos", norm="mag")
    impulse = np.zeros(n_imp)
    impulse[0] = 1.0
    h = sps.sosfilt(sos, impulse)
    total = float(h.sum())
    group_delay_samples = 0.0
    if abs(total) > 1e-12:
        group_delay_samples = float((np.arange(n_imp) * h).sum()
                                    / total)
    return sos, group_delay_samples


def sosfilt_batch(values: np.ndarray, order: int, wn: float,
                  n_imp: int) -> Tuple[np.ndarray, float]:
    """Bessel low-pass over every row of *values*.

    Returns ``(filtered, group_delay_samples)`` where *filtered* has
    each row's mean restored (AC-coupled filtering around the per-row
    midpoint). The caller applies gain and timebase.
    """
    from scipy import signal as sps

    sos, group_delay_samples = _bessel_design(int(order), float(wn),
                                              int(n_imp))
    mean = values.mean(axis=1, keepdims=True)
    filtered = sps.sosfilt(sos, values - mean, axis=-1)
    filtered += mean
    return filtered, group_delay_samples


# -- crosstalk --------------------------------------------------------------


def coupling_mix(values: np.ndarray, dt: float,
                 weights: dict) -> np.ndarray:
    """Couple every row of *values* into its neighbours.

    *weights* maps each coupling ``rise_scale_ps`` to its ``(c, c)``
    weight matrix (see
    :meth:`repro.channel.crosstalk.CrosstalkMatrix.coupling_weights`):
    each matrix mixes the row derivatives, the mix is smoothed over
    its rise scale, and the sum is added to a copy of *values*.
    Returns a fresh array, never a view of *values*.
    """
    if not weights or not values.shape[1]:
        return values.copy()
    dv = np.gradient(values, dt, axis=1)
    out = values.copy()
    mixed_buf = np.empty_like(values)
    for rise_scale_ps, w in weights.items():
        mixed = np.matmul(w, dv, out=mixed_buf)
        sigma_samples = rise_scale_ps / dt
        if sigma_samples > 0.05:
            from scipy.ndimage import gaussian_filter1d

            mixed = gaussian_filter1d(mixed, sigma_samples, axis=-1,
                                      mode="nearest")
        out += mixed
    return out


# -- eye fold / density -----------------------------------------------------


def eye_fold(values: np.ndarray, thresholds: np.ndarray):
    """Threshold crossings over every row of *values*.

    Returns ``(rows, cols, frac)``: the crossing between samples
    ``cols`` and ``cols + 1`` of channel ``rows`` sits at fractional
    position *frac* of that interval. Crossings come out row-major.
    """
    if values.shape[1] < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0, dtype=np.float64)
    above = values > thresholds[:, None]
    # flatnonzero + divmod beats np.nonzero on the 2-D mask, and the
    # flat index doubles as the gather index: the mask has n - 1
    # columns, so sample (r, c) sits at flat + r in values.
    flat_idx = np.flatnonzero(above[:, 1:] ^ above[:, :-1])
    rows, cols = np.divmod(flat_idx, values.shape[1] - 1)
    flat = values.ravel()
    v0 = flat[flat_idx + rows]
    v1 = flat[flat_idx + rows + 1]
    frac = (thresholds[rows] - v0) / (v1 - v0)
    return rows, cols, frac


@functools.lru_cache(maxsize=64)
def _bin_table(edges: bytes, stride: int,
               trash: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(closed, offsets)`` of one :func:`density_bin` axis.

    ``searchsorted(closed, x, side='right')`` numbers the bins from 1
    as ``histogramdd`` does, the last bin closed: *closed* is the
    edges (raw ``float64`` bytes) with the last one raised by one ulp,
    so a sample on it counts in the last bin and any larger one
    falls out. *offsets* maps a bin number to that bin's flat grid
    offset, *stride* apart, and both out-of-range numbers (0 and
    ``len(edges)``) to *trash*.
    """
    e = np.frombuffer(edges, dtype=np.float64)
    closed = e.copy()
    closed[-1] = np.nextafter(closed[-1], np.inf)
    offsets = np.full(len(e) + 1, trash, dtype=np.intp)
    offsets[1:-1] = np.arange(len(e) - 1) * stride
    closed.flags.writeable = False
    offsets.flags.writeable = False
    return closed, offsets


def density_bin(phases: np.ndarray, values: np.ndarray,
                t_edges: np.ndarray, v_edges: np.ndarray) -> np.ndarray:
    """Per-row 2-D (time x voltage) histogram counts.

    *values* holds the ``(channels, samples)`` voltages and *phases*
    their shared time coordinate: one per sample, or one period that
    repeats along the row (sample ``j`` at ``phases[j % p]``, as a
    tiled fold's phases do), which is binned once. Row *c* of the
    ``(channels, nt, nv)`` ``int64`` result holds exactly the counts
    of ``np.histogram2d(phases, values[c], bins=(t_edges, v_edges))``
    over the row's phases: ``side='right'`` bins with the rightmost
    (finite) edge folded into the last bin, out-of-range samples
    dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    c, n = values.shape
    nt = len(t_edges) - 1
    nv = len(v_edges) - 1
    if c == 0 or n == 0:
        return np.zeros((c, nt, nv), dtype=np.int64)
    trash = c * nt * nv
    t_closed, t_offsets = _bin_table(
        np.asarray(t_edges, dtype=np.float64).tobytes(), nv, trash)
    v_closed, v_offsets = _bin_table(
        np.asarray(v_edges, dtype=np.float64).tobytes(), 1, trash)
    # Flat grid index of every sample; one outside either axis lands
    # at or past the trash bin, which the minimum then collects.
    t_idx = t_offsets[np.searchsorted(
        t_closed, np.asarray(phases, dtype=np.float64), side="right")]
    if len(t_idx) < n:
        t_idx = np.tile(t_idx, -(-n // len(t_idx)))[:n]
    idx = v_offsets[np.searchsorted(v_closed, values, side="right")]
    idx += t_idx
    if c > 1:
        idx += np.arange(0, trash, nt * nv)[:, None]
    np.minimum(idx, trash, out=idx)
    counts = np.bincount(idx.ravel(), minlength=trash + 1)
    return counts[:trash].reshape(c, nt, nv)


# -- blockwise PRBS ---------------------------------------------------------

#: Bits produced per matrix application. Must be >= the LFSR order;
#: large enough to amortize per-block overhead, small enough that
#: building the cached matrices (one symbolic pass of this length)
#: stays cheap.
PRBS_BLOCK = 8192


@functools.lru_cache(maxsize=32)
def _prbs_block_matrices(order: int, tap_a: int, tap_b: int,
                         block: int) -> Tuple[np.ndarray, np.ndarray]:
    """GF(2) output-projection and state-advance matrices, transposed
    to act on row-vector states: ``(order, block)`` and
    ``(order, order)``.

    Column ``i`` of the output matrix expresses output bit ``i`` of a
    block as a parity over the current state bits (LSB-first); the
    advance matrix maps the state across one whole block. Built once
    per ``(order, block)`` by running the recurrence
    ``out[i] = out[i-n] ^ out[i-m]`` symbolically over bitmasks.
    """
    n, m = tap_a, tap_b
    # Ring buffer of the last n symbolic outputs; out[-k] is state
    # bit k-1, i.e. basis mask 1 << (k - 1).
    ring = [1 << (n - 1 - j) for j in range(n)]  # ring[j] = out[j - n]
    masks = []
    for i in range(block):
        mask = ring[i % n] ^ ring[(i + (n - m)) % n]
        masks.append(mask)
        ring[i % n] = mask
    mask_arr = np.array(masks, dtype=np.int64)
    bit_cols = np.arange(n, dtype=np.int64)
    out_mat = ((mask_arr[None, :] >> bit_cols[:, None]) & 1)
    state_masks = mask_arr[block - 1 - np.arange(n)]
    adv_mat = ((state_masks[None, :] >> bit_cols[:, None]) & 1)
    mats = out_mat.astype(np.float32), adv_mat.astype(np.float32)
    for mat in mats:
        mat.setflags(write=False)  # memoized and shared
    return mats


def prbs_bits_blockwise(order: int, length: int, seeds: Sequence[int],
                        tap_a: int, tap_b: int,
                        block: Optional[int] = None) -> np.ndarray:
    """A ``(len(seeds), length)`` block of LFSR output bits.

    Row *k* is bit-exact against the scalar Fibonacci LFSR started
    from ``seeds[k]`` for every supported polynomial, seed, length,
    and *block* (property-tested). All seeds advance through one
    ``(seeds, order) x (order, block)`` matrix product per block, and
    state advances through the same GF(2) algebra as
    :func:`repro.signal.prbs.advance_state`, so the rows also compose
    with shard tiling. *block* defaults to ``PRBS_BLOCK``, capped at
    *length* so a short request does not compute a full block.
    """
    seeds = [int(s) for s in seeds]
    if not seeds or length == 0:
        return np.empty((len(seeds), length), dtype=np.uint8)
    if block is None:
        block = min(PRBS_BLOCK, length)
    block = max(block, order)
    out_mat, adv_mat = _prbs_block_matrices(order, tap_a, tap_b, block)
    # float32 matmul is exact here: parities sum at most `order` ones
    # (< 2**24) before the mod-2 reduction.
    states = np.array([[(s >> j) & 1 for j in range(order)]
                       for s in seeds], dtype=np.float32)
    n_blocks = -(-length // block)
    out = np.empty((len(seeds), n_blocks * block), dtype=np.uint8)
    for b in range(n_blocks):
        out[:, b * block:(b + 1) * block] = \
            (states @ out_mat).astype(np.uint8) & 1
        states = (states @ adv_mat) % np.float32(2.0)
    return out[:, :length]
