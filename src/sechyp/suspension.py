"""Cocycle machinery for suspension semiflows over skew-product sections.

In suspension coordinates (x, y, s) the flow is unit speed in s between
section crossings, so the tangent cocycle is the identity there and all
expansion/contraction is carried by the per-crossing factor

    [ f'(x)      0       0 ]
    [ g_x(x,y)  g_y(x,y) 0 ]
    [ -tau'(x)   0       1 ]

whose third column shows the flow direction e_s is invariant.  An orbit
of the semiflow is therefore stored on the crossing-time grid with one
factor per return, and the generic cocycle/splitting machinery applies
unchanged.

For ensemble statistics the per-crossing scalars are also exposed as
vectorized streams across seeds; the fiber direction e_y is exactly
invariant, and the center-unstable plane is the graph
span{(1, h, 0), e_s} with tilt recursion h' = (g_x + g_y h) / f'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularPoint
from .flowcalc import OrbitSegment
from .models import SuspensionModel

# Quotient coordinates closer to the singular line than this are clipped
# when evaluating the roof; the clipping error is bounded by
# delta * (1 + |log delta|) per crossing.
ROOF_CLIP = 1e-12


def crossing_matrix(model: SuspensionModel, x, y):
    """Tangent factor of one section return at (x, y)."""
    skew = model.section_map
    fp = skew.base.derivative(x)
    return np.array([
        [fp, 0.0, 0.0],
        [skew.fiber_dx(x, y), skew.fiber_dy(x, y), 0.0],
        [-model.roof_derivative(x), 0.0, 1.0],
    ])


def suspension_orbit(model: SuspensionModel, xy0, n_returns: int) -> OrbitSegment:
    """Orbit of the semiflow on the crossing-time grid with matrix factors."""
    skew = model.section_map
    x, y = float(xy0[0]), float(xy0[1])
    times = np.empty(n_returns + 1)
    states = np.empty((n_returns + 1, 3))
    factors = np.empty((n_returns, 3, 3))
    times[0] = 0.0
    states[0] = (x, y, 0.0)
    t = 0.0
    for k in range(n_returns):
        if x == 0.0:
            raise SingularPoint("orbit hit the singular line")
        factors[k] = crossing_matrix(model, x, y)
        xc = x if abs(x) >= ROOF_CLIP else np.copysign(ROOF_CLIP, x)
        t += model.roof(xc)
        x, y = skew.eval(x, y)
        times[k + 1] = t
        states[k + 1] = (x, y, 0.0)
    return OrbitSegment(
        model=model,
        times=times,
        states=states,
        step_cocycles=factors,
        renorm_log=np.zeros(n_returns),
    )


@dataclass
class SectionStreams:
    """Vectorized per-crossing scalars for a batch of section seeds.

    Arrays are indexed (crossing, seed).  `log_a` is the log of the
    restricted center-unstable determinant factor per crossing, which
    is also the one-dimensional restricted linear-Poincare factor on
    N^cu; `log_gy` is the stable (fiber) factor.
    """

    model: SuspensionModel
    x: np.ndarray          # (n+1, B) quotient coordinates
    y: np.ndarray          # (n+1, B) fiber coordinates
    times: np.ndarray      # (n+1, B) accumulated crossing times
    log_fp: np.ndarray     # (n, B) log |f'|
    log_gy: np.ndarray     # (n, B) log |g_y|
    tilt: np.ndarray       # (n+1, B) center-unstable graph slope h
    log_a: np.ndarray      # (n, B)
    clipped: int           # crossings where the roof argument was clipped

    @property
    def n_returns(self):
        return self.log_fp.shape[0]

    @property
    def n_seeds(self):
        return self.log_fp.shape[1]


def run_section_streams(model: SuspensionModel, seeds, n_returns: int,
                        tilt_warmup: int = 12) -> SectionStreams:
    """Iterate the section map for a batch of seeds and collect streams.

    seeds has shape (B, 2).  The tilt recursion is warmed up over
    `tilt_warmup` pre-returns so the center-unstable graph slope has
    converged before crossing 0.  The batch moves through the base
    map's batched forms and the model's elementwise fiber and roof.
    """
    seeds = np.asarray(seeds, dtype=float)
    x = seeds[:, 0].copy()
    y = seeds[:, 1].copy()
    b = x.shape[0]
    if np.any(x == 0.0):
        raise SingularPoint("seed on the singular line")
    skew = model.section_map
    base = skew.base

    # The graph slope h at a point is determined by its backward
    # itinerary, so the recursion is warmed up forward and the orbit is
    # recorded from the warmed-up point on (the slope contraction is
    # |g_y / f'|, uniformly < 1 for the shipped fiber maps).
    h = np.zeros(b)
    for _ in range(tilt_warmup):
        fp = base.derivative_batch(x)
        h = (skew.fiber_dx(x, y) + skew.fiber_dy(x, y) * h) / fp
        x, y = base.eval_batch(x), skew.fiber(x, y)

    xs = np.empty((n_returns + 1, b))
    ys = np.empty((n_returns + 1, b))
    ts = np.empty((n_returns + 1, b))
    log_fp = np.empty((n_returns, b))
    log_gy = np.empty((n_returns, b))
    tilts = np.empty((n_returns + 1, b))
    log_a = np.empty((n_returns, b))

    xs[0], ys[0], ts[0] = x, y, 0.0
    tilts[0] = h
    clipped = 0
    for k in range(n_returns):
        if np.count_nonzero(x) < b:
            raise SingularPoint(f"orbit hit the singular line at return {k}")
        fp = base.derivative_batch(x)
        gy = skew.fiber_dy(x, y)
        xa = np.abs(x)
        small = xa < ROOF_CLIP
        if np.any(small):
            clipped += int(np.sum(small))
            xa = np.maximum(xa, ROOF_CLIP)
        hn = (skew.fiber_dx(x, y) + gy * h) / fp
        log_fp[k] = np.log(np.abs(fp))
        log_gy[k] = np.log(np.abs(gy)) if np.all(gy > 0) else np.log(np.maximum(np.abs(gy), 1e-300))
        log_a[k] = log_fp[k] + 0.5 * (np.log1p(hn * hn) - np.log1p(h * h))
        ts[k + 1] = ts[k] + model.roof(xa)
        x, y, h = base.eval_batch(x), skew.fiber(x, y), hn
        xs[k + 1], ys[k + 1] = x, y
        tilts[k + 1] = h

    return SectionStreams(
        model=model, x=xs, y=ys, times=ts,
        log_fp=log_fp, log_gy=log_gy, tilt=tilts, log_a=log_a,
        clipped=clipped,
    )


# ----------------------------------------------------------------------
# windowed quantities from streams (all per seed, vectorized in windows)
# ----------------------------------------------------------------------

def window_log_det_cu(streams: SectionStreams, seed: int, t0: float, t1: float):
    """log |det D(flow over [t0, t1])| restricted to the center-unstable
    plane, for one seed: the sum of log_a over crossings inside (t0, t1]."""
    t = streams.times[:, seed]
    s = np.concatenate([[0.0], np.cumsum(streams.log_a[:, seed])])
    i = np.searchsorted(t[1:], t0, side="right")
    j = np.searchsorted(t[1:], t1, side="right")
    return float(s[j] - s[i])


def mnuse_rate_stream(streams: SectionStreams, seed: int, tau: float):
    """Per-unit-time average of log ||[wedge^2 D(time-tau map)|E^cu]^{-1}||
    along the suspension orbit of one seed.

    For the two-dimensional center-unstable plane the integrand at s is
    -log|det| over the crossing window (s, s+tau]; integrating the
    piecewise-constant windowed sum in s reduces to an exact
    overlap-weighted sum of the per-crossing factors.  The result is
    normalized by tau so it is a rate per unit flow time.
    """
    t = streams.times[:, seed]
    T = t[-1] - tau
    if T <= 0:
        raise ValueError("orbit shorter than one tau window")
    tk = t[1:]  # crossing times carrying the factors
    overlap = np.clip(np.minimum(tk, T) - np.maximum(0.0, tk - tau), 0.0, tau)
    return float(-(streams.log_a[:, seed] @ overlap) / (T * tau))


def nuse_rate_stream(streams: SectionStreams, seed: int, tau: float):
    """Per-unit-time average of log ||(P^tau | N^cu)^{-1}|| over the
    discrete orbit of the time-tau map (exact telescoping sum)."""
    t = streams.times[:, seed]
    n = int(np.floor(t[-1] / tau))
    if n < 1:
        raise ValueError("orbit shorter than one tau window")
    s = np.concatenate([[0.0], np.cumsum(streams.log_a[:, seed])])
    edges = np.searchsorted(t[1:], np.arange(n + 1) * tau, side="right")
    return float(-(s[edges[-1]] - s[edges[0]]) / (n * tau))


def ash_running_max(streams: SectionStreams, seed: int, n_checkpoints: int = 24):
    """Running max over geometrically spaced horizons of the windowed
    sectional (= 2-plane determinant) rate from time zero."""
    t = streams.times[:, seed]
    s = np.concatenate([[0.0], np.cumsum(streams.log_a[:, seed])])
    total = t[-1]
    horizons = np.geomspace(max(4.0 * streams.model.roof_floor, total / 256.0),
                            total, n_checkpoints)
    best = -np.inf
    for horizon in horizons:
        j = np.searchsorted(t[1:], horizon, side="right")
        if j == 0:
            continue
        best = max(best, s[j] / t[j])
    return float(best)


def sectional_rate_stream(streams: SectionStreams, seed: int, window: float,
                          n_starts: int = 16):
    """Windowed center-unstable determinant rates: (mean, min, max) over
    window starting points spread along the orbit."""
    t = streams.times[:, seed]
    total = t[-1]
    if total <= window:
        starts = np.array([0.0])
    else:
        starts = np.linspace(0.0, total - window, n_starts)
    rates = [window_log_det_cu(streams, seed, s0, s0 + window) / window
             for s0 in starts]
    rates = np.array(rates)
    return float(rates.mean()), float(rates.min()), float(rates.max())
