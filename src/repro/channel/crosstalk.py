"""Channel-to-channel crosstalk.

Five serialized channels share the test-bed board and the probe
card's interposer routes dozens of signals at fine pitch — adjacent-
trace coupling is the signal-integrity hazard both layouts fight.
The model couples a fraction of each aggressor's *edge energy*
(crosstalk is capacitive/inductive: proportional to dV/dt) into the
victim.

A :class:`CrosstalkMatrix` couples a whole channel group in one
block (:meth:`CrosstalkMatrix.apply_batch`); its dict form stacks
the channels it is given into that block. :func:`coupled_noise` and
:func:`apply_crosstalk` are the single-victim helpers: they take an
aggressor on any time grid (a skewed neighbour, say).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.signal.waveform import Waveform, WaveformBatch

#: Documented equivalence tolerances of the coupling-matrix block
#: versus a sequential per-pair sum of :func:`coupled_noise` terms
#: (the reference ``tests/test_batch_equivalence.py`` keeps). The
#: block mixes derivatives with one matrix product before smoothing
#: (convolution and the coupling mix are both linear, so they
#: commute), which reorders float additions; results agree to
#: rounding, not bitwise.
XTALK_EQUIVALENCE_RTOL = 1e-9
XTALK_EQUIVALENCE_ATOL = 1e-12


@dataclasses.dataclass(frozen=True)
class CouplingSpec:
    """Strength and speed of one aggressor-victim coupling.

    Attributes
    ----------
    coupling:
        Fraction of the aggressor's slew coupled into the victim
        (0.0-0.5; tight probe-card pitches run a few percent).
    rise_scale_ps:
        Time scale of the coupled pulse (the mutual L/C time
        constant).
    """

    coupling: float = 0.03
    rise_scale_ps: float = 50.0

    def __post_init__(self):
        if not 0.0 <= self.coupling <= 0.5:
            raise ConfigurationError(
                f"coupling must be in [0, 0.5], got {self.coupling}"
            )
        if self.rise_scale_ps <= 0.0:
            raise ConfigurationError("rise scale must be positive")


def coupled_noise(aggressor: Waveform,
                  spec: CouplingSpec = CouplingSpec()) -> Waveform:
    """The noise one aggressor injects into a parallel victim.

    Near-end crosstalk shape: the aggressor's derivative smoothed
    over the coupling time constant, scaled by the coupling factor.
    """
    dv = np.gradient(aggressor.values, aggressor.dt)
    # Smooth over the coupling time constant.
    sigma_samples = spec.rise_scale_ps / aggressor.dt
    if sigma_samples > 0.05:
        from scipy.ndimage import gaussian_filter1d

        dv = gaussian_filter1d(dv, sigma_samples, mode="nearest")
    noise = spec.coupling * spec.rise_scale_ps * dv
    return Waveform(noise, dt=aggressor.dt, t0=aggressor.t0)


def apply_crosstalk(victim: Waveform,
                    aggressors: Sequence[Waveform],
                    spec: CouplingSpec = CouplingSpec()) -> Waveform:
    """Victim plus every aggressor's coupled noise."""
    out = victim
    for aggressor in aggressors:
        out = out + coupled_noise(aggressor, spec)
    return out


class CrosstalkMatrix:
    """Pairwise coupling across a named channel group.

    Parameters
    ----------
    names:
        Channel names, in physical (routing) order — adjacency in
        this list is adjacency on the board.
    adjacent:
        Coupling spec for nearest neighbours.
    next_adjacent:
        Coupling for next-nearest (weaker); None disables.
    """

    def __init__(self, names: Sequence[str],
                 adjacent: CouplingSpec = CouplingSpec(),
                 next_adjacent: CouplingSpec = CouplingSpec(
                     coupling=0.008)):
        if len(names) < 2:
            raise ConfigurationError("need >= 2 channels")
        if len(set(names)) != len(names):
            raise ConfigurationError("channel names must be unique")
        self.names = list(names)
        self.adjacent = adjacent
        self.next_adjacent = next_adjacent

    def _spec_for(self, i: int, j: int):
        distance = abs(i - j)
        if distance == 1:
            return self.adjacent
        if distance == 2 and self.next_adjacent is not None:
            return self.next_adjacent
        return None

    def apply(self, waveforms: Dict[str, Waveform]
              ) -> Dict[str, Waveform]:
        """Couple every channel into its neighbours.

        Missing channels (quiet lines) neither aggress nor receive.
        The channels given are stacked in routing order and coupled
        as one :meth:`apply_batch` block, so they must share one time
        grid (:class:`ConfigurationError` otherwise).
        """
        unknown = set(waveforms) - set(self.names)
        if unknown:
            raise ConfigurationError(
                f"channels not in the matrix: {sorted(unknown)}"
            )
        present = [name for name in self.names if name in waveforms]
        if not present:
            return {}
        mixed = self.apply_batch(
            WaveformBatch.from_waveforms(
                [waveforms[name] for name in present]),
            names=present)
        return dict(zip(present, mixed))

    def coupling_weights(self, names: Sequence[str] = None
                         ) -> Dict[float, np.ndarray]:
        """Per-rise-scale coupling weight matrices for a batch.

        Returns ``{rise_scale_ps: W}`` where ``W[i, j] = coupling *
        rise_scale_ps`` of the spec coupling aggressor *j* into
        victim *i* (zero on the diagonal and beyond the coupling
        range). One matrix per distinct ``rise_scale_ps`` because
        the smoothing width is part of the pulse shape. *names*
        selects and orders the rows (default: every channel);
        distances are always measured in the full matrix's physical
        routing order, so a subset batch couples exactly like the
        same subset in :meth:`apply`.
        """
        if names is None:
            names = self.names
        unknown = set(names) - set(self.names)
        if unknown:
            raise ConfigurationError(
                f"channels not in the matrix: {sorted(unknown)}"
            )
        idx = [self.names.index(n) for n in names]
        c = len(idx)
        weights: Dict[float, np.ndarray] = {}
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                if a == b:
                    continue
                spec = self._spec_for(i, j)
                if spec is None:
                    continue
                w = weights.setdefault(
                    spec.rise_scale_ps, np.zeros((c, c)))
                w[a, b] = spec.coupling * spec.rise_scale_ps
        return weights

    def apply_batch(self, batch: WaveformBatch,
                    names: Sequence[str] = None) -> WaveformBatch:
        """Couple every row of *batch* into its neighbours at once.

        One ``gradient`` over the block, one coupling-matrix product
        per distinct rise scale, and one smoothing pass over the
        mixed derivatives (mixing and smoothing are both linear, so
        they commute with a per-pair sum of :func:`coupled_noise`
        terms). Row *k* of the result corresponds to ``names[k]``
        (default: the matrix's channel order; a subset models quiet
        lines). :meth:`apply` is the dict form. Equivalent to the
        per-pair sum within ``XTALK_EQUIVALENCE_RTOL``/``ATOL`` — the
        reordered float sums agree to rounding, not bitwise.
        """
        if names is None:
            names = self.names
        if batch.n_channels != len(names):
            raise ConfigurationError(
                f"batch has {batch.n_channels} rows for "
                f"{len(names)} names"
            )
        from repro.signal import _kernels

        weights = _coupling_weights(tuple(names), tuple(self.names),
                                    self.adjacent, self.next_adjacent)
        out = _kernels.coupling_mix(batch.values, batch.dt, weights)
        return WaveformBatch(out, dt=batch.dt, t0=batch.t0)


@functools.lru_cache(maxsize=16)
def _coupling_weights(names, all_names, adjacent, next_adjacent
                      ) -> Dict[float, np.ndarray]:
    """:meth:`CrosstalkMatrix.coupling_weights`, memoized on the
    matrix's value key: re-walking the O(c^2) spec table costs more
    than mixing a small batch. The shared matrices are read-only."""
    weights = CrosstalkMatrix(all_names, adjacent,
                              next_adjacent).coupling_weights(names)
    for w in weights.values():
        w.setflags(write=False)
    return weights
