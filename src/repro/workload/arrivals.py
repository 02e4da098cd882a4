"""Arrival curves: when each user's session starts.

Four shapes, all open-loop (arrivals never wait for the system):

* ``open-loop`` — a homogeneous Poisson process conditioned on exactly
  ``n_users`` arrivals in the window, i.e. sorted iid uniforms scaled
  to the window;
* ``diurnal`` — an inhomogeneous process whose intensity follows a
  day-curve ``1 + a·sin(2π·t/T − π/2)`` (trough at the window edges,
  peak mid-window), inverted through a piecewise-linear cumulative
  intensity grid;
* ``flash-crowd`` — baseline intensity 1 with a trapezoid burst: a
  linear ramp up to ``burst_multiplier``, a plateau, and a linear
  decay back to baseline (all positioned as window fractions);
* ``correlated-spike`` — the same trapezoid burst, but meant to be
  paired with :func:`spike_site_flags` so the *excess* arrivals all
  target one site-of-the-day (the correlated-interest regime that
  makes shared path infrastructure a single overload point).

All draws come from the dedicated ``arrivals:{seed}`` stream (and the
spike-site coin flips from ``spike-site:{seed}``), so every curve is a
pure deterministic function of ``(n_users, curve, seed)`` — replays
stay bit-for-bit at any worker count.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

#: Resolution of the inverse-CDF grid (shared by all shaped curves).
_DIURNAL_BINS = 512

#: Shapes whose intensity carries the trapezoid burst.
BURST_SHAPES = ("flash-crowd", "correlated-spike")


@dataclass(frozen=True)
class ArrivalCurve:
    """Shape and span of a population's arrival process."""

    window_ms: float = 10_000.0
    shape: str = "open-loop"  # "open-loop" | "diurnal" | BURST_SHAPES
    #: Diurnal swing in [0, 1): intensity ranges 1±amplitude.
    diurnal_amplitude: float = 0.6
    #: Day-cycles across the window.
    diurnal_periods: float = 1.0
    #: Peak intensity of the burst relative to baseline (>= 1).
    burst_multiplier: float = 10.0
    #: Burst geometry, as fractions of the window: ramp starts at
    #: ``burst_start``, holds the plateau for ``burst_duration`` after
    #: ``burst_ramp``, then decays back over ``burst_decay``.
    burst_start: float = 0.35
    burst_ramp: float = 0.05
    burst_duration: float = 0.15
    burst_decay: float = 0.10


def _diurnal_cdf(curve: ArrivalCurve) -> tuple[float, ...]:
    """Normalized cumulative intensity on the bin grid (len = bins+1)."""
    cumulative = [0.0]
    total = 0.0
    for index in range(_DIURNAL_BINS):
        midpoint = (index + 0.5) / _DIURNAL_BINS
        intensity = 1.0 + curve.diurnal_amplitude * math.sin(
            2.0 * math.pi * curve.diurnal_periods * midpoint - math.pi / 2.0)
        total += max(intensity, 0.0)
        cumulative.append(total)
    return tuple(value / total for value in cumulative)


def _check_burst(curve: ArrivalCurve) -> None:
    if curve.burst_multiplier < 1.0:
        raise ValueError("burst_multiplier must be >= 1")
    if min(curve.burst_start, curve.burst_ramp, curve.burst_duration,
           curve.burst_decay) < 0.0:
        raise ValueError("burst geometry fractions must be >= 0")
    end = (curve.burst_start + curve.burst_ramp + curve.burst_duration
           + curve.burst_decay)
    if end > 1.0:
        raise ValueError("burst must end inside the window "
                         f"(geometry sums to {end:.3f} > 1)")


def burst_intensity(curve: ArrivalCurve, fraction: float) -> float:
    """Relative arrival intensity at window fraction ``fraction``:
    1 off-burst, linear ramp to ``burst_multiplier``, plateau, linear
    decay back to 1."""
    start = curve.burst_start
    ramp_end = start + curve.burst_ramp
    plateau_end = ramp_end + curve.burst_duration
    decay_end = plateau_end + curve.burst_decay
    peak = curve.burst_multiplier
    if fraction < start or fraction >= decay_end:
        return 1.0
    if fraction < ramp_end:
        if curve.burst_ramp <= 0.0:
            return peak
        return 1.0 + (peak - 1.0) * (fraction - start) / curve.burst_ramp
    if fraction < plateau_end:
        return peak
    if curve.burst_decay <= 0.0:
        return 1.0
    return peak - (peak - 1.0) * (fraction - plateau_end) / curve.burst_decay


def _burst_cdf(curve: ArrivalCurve) -> tuple[float, ...]:
    """Normalized cumulative burst intensity on the same bin grid."""
    cumulative = [0.0]
    total = 0.0
    for index in range(_DIURNAL_BINS):
        midpoint = (index + 0.5) / _DIURNAL_BINS
        total += burst_intensity(curve, midpoint)
        cumulative.append(total)
    return tuple(value / total for value in cumulative)


def _invert(cdf: tuple[float, ...], draws: list[float],
            window_ms: float) -> tuple[float, ...]:
    """Map sorted uniforms through the piecewise-linear inverse CDF."""
    times = []
    for u in draws:
        bin_index = max(1, bisect.bisect_left(cdf, u))
        lo, hi = cdf[bin_index - 1], cdf[bin_index]
        fraction = 0.0 if hi == lo else (u - lo) / (hi - lo)
        times.append((bin_index - 1 + fraction) / _DIURNAL_BINS * window_ms)
    return tuple(times)


def arrival_times(n_users: int, curve: ArrivalCurve,
                  seed: int) -> tuple[float, ...]:
    """Sorted session start times in ms for ``n_users`` arrivals."""
    if n_users < 0:
        raise ValueError("n_users must be >= 0")
    rng = random.Random(f"arrivals:{seed}")
    draws = sorted(rng.random() for _ in range(n_users))
    if curve.shape == "open-loop":
        return tuple(u * curve.window_ms for u in draws)
    if curve.shape == "diurnal":
        return _invert(_diurnal_cdf(curve), draws, curve.window_ms)
    if curve.shape in BURST_SHAPES:
        _check_burst(curve)
        return _invert(_burst_cdf(curve), draws, curve.window_ms)
    raise ValueError(f"unknown arrival shape {curve.shape!r}")


def burst_window_ms(curve: ArrivalCurve) -> tuple[float, float]:
    """The ``(start, end)`` of the elevated-intensity window in ms
    (ramp start through decay end)."""
    _check_burst(curve)
    start = curve.burst_start * curve.window_ms
    end = (curve.burst_start + curve.burst_ramp + curve.burst_duration
           + curve.burst_decay) * curve.window_ms
    return start, end


def burst_mass(curve: ArrivalCurve) -> float:
    """Analytic expected fraction of arrivals that land inside the
    burst window, computed on the same grid :func:`arrival_times`
    inverts through (so samples converge to exactly this number)."""
    _check_burst(curve)
    start_fraction = curve.burst_start
    end_fraction = (curve.burst_start + curve.burst_ramp
                    + curve.burst_duration + curve.burst_decay)
    inside = total = 0.0
    for index in range(_DIURNAL_BINS):
        midpoint = (index + 0.5) / _DIURNAL_BINS
        intensity = burst_intensity(curve, midpoint)
        total += intensity
        if start_fraction <= midpoint < end_fraction:
            inside += intensity
    return inside / total


def spike_site_flags(times: tuple[float, ...], curve: ArrivalCurve,
                     seed: int) -> tuple[bool, ...]:
    """One flag per arrival: is this user part of the correlated
    site-of-the-day spike?

    The *excess* intensity above baseline is attributed to the spike:
    at window fraction ``t`` an arrival joins with probability
    ``(i(t) − 1) / i(t)``, zero off-burst. Draws come from the
    dedicated ``spike-site:{seed}`` stream, one per arrival regardless
    of outcome, so the flag sequence is a pure deterministic function
    of ``(times, curve, seed)`` and never perturbs any other stream.
    """
    rng = random.Random(f"spike-site:{seed}")
    flags = []
    for t in times:
        roll = rng.random()
        if curve.shape in BURST_SHAPES and curve.window_ms > 0.0:
            intensity = burst_intensity(curve, t / curve.window_ms)
            flags.append(roll < (intensity - 1.0) / intensity)
        else:
            flags.append(False)
    return tuple(flags)
