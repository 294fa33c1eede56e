"""Pseudo-random binary sequence utilities.

The DLC generates its test patterns with LFSRs (the paper's eye
diagrams use "a pseudo-random bit pattern produced by an LFSR in the
DLC"). This module provides the standard PRBS polynomials and a fast
software generator. The test equipment models
(``repro.instruments.bert``, ``repro.instruments.jtol``) use the
generator; the DLC's register-accurate model
(``repro.dlc.lfsr.LFSR``) takes only the tap table and steps its
own register bit by bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._rng import spawn_seeds  # noqa: F401  (re-exported: the
# sharded-generation entry point lives beside the PRBS tools)
from repro.errors import ConfigurationError

#: Standard PRBS feedback tap pairs (x^n + x^m + 1), keyed by order.
PRBS_POLYNOMIALS: Dict[int, Tuple[int, int]] = {
    7: (7, 6),
    9: (9, 5),
    11: (11, 9),
    15: (15, 14),
    23: (23, 18),
    31: (31, 28),
}


def _check_prbs_args(order: int, length: int, seed: int) -> None:
    if order not in PRBS_POLYNOMIALS:
        raise ConfigurationError(
            f"unsupported PRBS order {order}; choose from "
            f"{sorted(PRBS_POLYNOMIALS)}"
        )
    if length < 0:
        raise ConfigurationError(f"length must be >= 0, got {length}")
    if seed <= 0 or seed >= (1 << order):
        raise ConfigurationError(
            f"seed must be in [1, 2^{order}-1], got {seed}"
        )


def prbs_bits(order: int, length: int, seed: int = 1) -> np.ndarray:
    """Generate *length* bits of a PRBS-*order* sequence.

    Generation is blockwise over GF(2) (see
    :func:`repro.signal._kernels.prbs_bits_blockwise`) and bit-exact
    against the scalar LFSR (:func:`prbs_bits_scalar`), including
    the :func:`advance_state` / :func:`prbs_shard_states` tiling
    contract used by sharded runs.

    The stream is memoized in the active artifact cache
    (:func:`repro.cache.active`) keyed ``(order, length, seed)``;
    hits are bit-identical to fresh generation.

    Parameters
    ----------
    order:
        PRBS order; must be one of :data:`PRBS_POLYNOMIALS`.
    length:
        Number of bits to produce.
    seed:
        Nonzero initial LFSR state.

    Returns
    -------
    numpy.ndarray
        Array of 0/1 ``uint8`` values.
    """
    _check_prbs_args(order, length, seed)
    from repro import cache as _cache
    from repro.signal import _kernels

    tap_a, tap_b = PRBS_POLYNOMIALS[order]

    def generate():
        return _kernels.prbs_bits_blockwise(order, length, [seed],
                                            tap_a, tap_b)[0]

    store = _cache.active()
    if store.enabled:
        key = _cache.canonical_digest("prbs_bits", order, length, seed)
        return store.get_or_compute(key, generate)
    return generate()


def prbs_bits_batch(order: int, length: int,
                    seeds: Sequence[int]) -> np.ndarray:
    """A ``(len(seeds), length)`` block of PRBS-*order* streams.

    Row *k* is bit-exact ``prbs_bits(order, length, seeds[k])`` —
    the batched entry point hands all seeds to the blockwise kernel
    at once, which advances every state through one matrix product
    per block instead of one per seed. Combine with
    :func:`prbs_shard_states` to tile one serial stream across rows.
    """
    seeds = [int(s) for s in seeds]
    _check_prbs_args(order, length, 1)  # order/length, even seedless
    for s in seeds:
        _check_prbs_args(order, length, s)
    from repro.signal import _kernels

    tap_a, tap_b = PRBS_POLYNOMIALS[order]
    return _kernels.prbs_bits_blockwise(order, length, seeds,
                                        tap_a, tap_b)


def prbs_bits_scalar(order: int, length: int, seed: int = 1) -> np.ndarray:
    """Bit-at-a-time reference LFSR (the pre-vectorization kernel).

    Kept as the golden reference the blockwise generator is
    validated against; prefer :func:`prbs_bits` everywhere else.
    """
    _check_prbs_args(order, length, seed)
    tap_a, tap_b = PRBS_POLYNOMIALS[order]
    state = seed
    out = np.empty(length, dtype=np.uint8)
    mask = (1 << order) - 1
    # Fibonacci LFSR, shifting left: for x^n + x^m + 1 the feedback
    # is the XOR of state bits n-1 and m-1 (0-indexed from the LSB).
    shift_a = tap_a - 1
    shift_b = tap_b - 1
    for i in range(length):
        bit = ((state >> shift_a) ^ (state >> shift_b)) & 1
        state = ((state << 1) | bit) & mask
        out[i] = bit
    return out


def advance_state(order: int, seed: int, steps: int) -> int:
    """The LFSR state after *steps* bits from *seed*.

    ``prbs_bits(order, m, seed=advance_state(order, seed, k))``
    yields exactly bits ``[k, k+m)`` of the serial stream — the
    primitive that lets shards continue one PRBS stream mid-flight.
    """
    if order not in PRBS_POLYNOMIALS:
        raise ConfigurationError(f"unsupported PRBS order {order}")
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    if seed <= 0 or seed >= (1 << order):
        raise ConfigurationError(
            f"seed must be in [1, 2^{order}-1], got {seed}"
        )
    tap_a, tap_b = PRBS_POLYNOMIALS[order]
    shift_a, shift_b = tap_a - 1, tap_b - 1
    mask = (1 << order) - 1
    # The state sequence is periodic; only the residual walk matters.
    steps %= (1 << order) - 1
    state = seed
    for _ in range(steps):
        bit = ((state >> shift_a) ^ (state >> shift_b)) & 1
        state = ((state << 1) | bit) & mask
    return state


def prbs_shard_states(order: int, seed: int,
                      shard_lengths: Sequence[int]) -> List[int]:
    """Per-shard start states that exactly tile the serial stream.

    Shard k generating ``shard_lengths[k]`` bits from its returned
    state produces the same bits a single serial generator would
    have produced over that span — concatenating the shard outputs
    reproduces ``prbs_bits(order, sum(shard_lengths), seed)``
    bit-for-bit. This is how a sharded BER run replays the *same*
    pattern the serial run checks, rather than n independent ones.
    """
    states: List[int] = []
    state = seed
    for length in shard_lengths:
        if length < 0:
            raise ConfigurationError(
                f"shard lengths must be >= 0, got {length}"
            )
        states.append(state)
        state = advance_state(order, state, length)
    return states


def prbs_period(order: int) -> int:
    """The repetition period of a maximal-length PRBS of *order*.

    >>> prbs_period(7)
    127
    """
    if order not in PRBS_POLYNOMIALS:
        raise ConfigurationError(f"unsupported PRBS order {order}")
    return (1 << order) - 1


def run_length_histogram(bits: np.ndarray) -> Dict[int, int]:
    """Histogram of run lengths (consecutive identical bits).

    A maximal-length PRBS has a characteristic run-length
    distribution; tests use this to validate generator correctness.
    """
    bits = np.asarray(bits)
    if len(bits) == 0:
        return {}
    change = np.flatnonzero(np.diff(bits.astype(np.int8)) != 0)
    boundaries = np.concatenate(([-1], change, [len(bits) - 1]))
    runs = np.diff(boundaries)
    hist: Dict[int, int] = {}
    for r in runs:
        hist[int(r)] = hist.get(int(r), 0) + 1
    return hist
