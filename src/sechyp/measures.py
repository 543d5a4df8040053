"""Birkhoff averaging, Lyapunov spectra, empirical measures and basins.

Statistics carry their own uncertainty: the spectrum estimator reports
block-bootstrap half-widths, Birkhoff series report the oscillation of
the running mean over the final quarter of the window, and the entropy
chain reports the roof truncation bound explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .flowcalc import (OrbitSegment, StepControl, batch_rk4, dp5_steps,
                       rk4_step)
from .models import IntervalMap, SuspensionModel, VectorFieldModel
from .util import haar_frame, qr_pos, window_products

BOOT_BLOCKS = 50
BOOT_RESAMPLES = 1000
BOOT_SEED = 53117
# accepted steps per Benettin window on the orbit of a vector field:
# error-controlled DP5 steps are close to the identity, so the product of
# a few stays well conditioned between QR factorisations
_FLOW_WINDOW = 8
# accepted steps handed to a BenettinFold at once (its chunks hold one
# state and one step factor per step)
_FOLD_CHUNK = 512

# Geometrically spaced checkpoints of a Birkhoff running average.
BIRKHOFF_CHECKPOINTS = 40

# The entropy chain passes within PESIN_SLACK; base points closer than
# PESIN_CLIP to the singular point x = 0 are moved out to it.
PESIN_SLACK = 0.05
PESIN_CLIP = 1e-12


# ----------------------------------------------------------------------
# Birkhoff series
# ----------------------------------------------------------------------

@dataclass
class BirkhoffSeries:
    """Running time averages of one observable with geometric checkpoints.

    `oscillation` is the max absolute deviation of the running mean from
    its final value over the last quarter of the window, a cheap
    convergence diagnostic.
    """

    observable: str
    checkpoints: np.ndarray
    averages: np.ndarray
    final: float
    oscillation: float


def birkhoff_map(m: IntervalMap, observable: Callable, x0: float, n: int,
                 name="obs") -> BirkhoffSeries:
    """Running average of observable along a map orbit of length n."""
    f = m.eval
    vals = np.empty(n)
    x = float(x0)
    for i in range(n):
        vals[i] = observable(x)
        x = f(x)
    running = np.cumsum(vals) / np.arange(1, n + 1)
    idx = np.unique(np.geomspace(1, n, BIRKHOFF_CHECKPOINTS).astype(int)) - 1
    final = float(running[-1])
    tail = running[3 * n // 4:]
    return BirkhoffSeries(
        observable=name,
        checkpoints=idx.astype(float) + 1.0,
        averages=running[idx],
        final=final,
        oscillation=float(np.max(np.abs(tail - final))),
    )


def series_to_csv(series: BirkhoffSeries, path, header_comment=None):
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("checkpoint,average\n")
        for c, a in zip(series.checkpoints, series.averages):
            fh.write(f"{c:.17g},{a:.17g}\n")


# ----------------------------------------------------------------------
# Lyapunov spectrum
# ----------------------------------------------------------------------

@dataclass
class SpectrumEstimate:
    """Top-k Lyapunov exponents with block-bootstrap half-widths.

    The time after the warmup, from the first grid point at or after it
    to the end of the run, is cut into `BOOT_BLOCKS` equal time spans; a
    bootstrap block holds the steps that start at or after its span's
    start, up to the next block's.  The frame is re-orthonormalized once
    per window of step factors: up to `_FLOW_WINDOW` = 8 accepted steps
    on the orbit of a vector field, a single factor (one return map) on
    a matrix orbit.  Windows never cross the warmup cut or a block edge,
    and `reorthonormalizations` counts the windows after the warmup.

    `divergence_average` is the trapezoid average of the Jacobian trace
    along the orbit after the warmup (on a matrix orbit, the average of
    log |det| of its factors), an independent route to the exponent sum
    (Liouville identity); `sum_half_width` is the bootstrap half-width
    of the sum.
    """

    exponents: np.ndarray
    half_widths: np.ndarray
    window: float
    reorthonormalizations: int
    divergence_average: float
    sum_half_width: float


class BenettinFold:
    """The Benettin iteration and divergence average of one orbit, fed its
    accepted steps in chunks of any size as they are taken.

    `add(times, states, factors)` takes the next m steps: their end times
    (m,), end states (m, n) and step factors (m, n, n); `finish()` gives
    the `SpectrumEstimate`.  Per window after the warmup the fold keeps
    its k log values (and its block), per step after the warmup one
    divergence term; the window still open at the end of a chunk waits
    for the next one.  The estimate is the same bit for bit however the
    steps are chunked.

    The orbit starts at time t0 in state x0 and ends at t_end: the
    block rule (see `SpectrumEstimate`) is fixed before any step is
    taken, and the edges once the first step after the warmup starts,
    whatever the run's step count.  A vector-field `model` makes the windows
    up to `_FLOW_WINDOW` steps long and the divergence the trapezoid of
    the Jacobian trace; any other model (a matrix orbit) one factor per
    window and the log |det| of its factors.
    """

    def __init__(self, model, k: int, t0: float, x0, warmup: float,
                 t_end: float):
        x0 = np.asarray(x0, dtype=float)
        if k > x0.shape[0]:
            raise ValueError("k exceeds the model dimension")
        self.model = model
        self.flow = isinstance(model, VectorFieldModel)
        self.width = _FLOW_WINDOW if self.flow else 1
        self.k = k
        self.cut = t0 + warmup          # steps starting from here count
        self.t_end = t_end
        self.edges = None               # inner block edges, once the cut is met
        self.q = haar_frame(x0.shape[0], k, seed=4201)
        self.t_last, self.x_last = t0, x0
        # the open window's step start times and factors
        self.open_t = np.empty(0)
        self.open_f = np.empty((0,) + (x0.shape[0],) * 2)
        self.logs, self.blocks, self.terms = [], [], []
        self.block_t0 = np.full(BOOT_BLOCKS, np.inf)

    def add(self, times, states, factors):
        """Fold in the next steps (see the class docstring)."""
        m = len(times)
        if m == 0:
            return
        t_grid = np.concatenate([[self.t_last], times])
        starts_t = t_grid[:-1]
        # divergence terms of the steps that start at or after the cut
        a = int(np.searchsorted(starts_t, self.cut, side="left"))
        if a < m:
            if self.flow:
                x_grid = np.concatenate([self.x_last[None], states])
                tr = np.trace(self.model.jacobian_batch(x_grid[a:]),
                              axis1=1, axis2=2)
                self.terms.append(0.5 * (tr[1:] + tr[:-1]) * np.diff(t_grid[a:]))
            else:
                self.terms.append(np.linalg.slogdet(factors[a:])[1])
            if self.edges is None:
                self.edges = np.linspace(starts_t[a], self.t_end,
                                         BOOT_BLOCKS + 1)[1:-1]
        self.t_last, self.x_last = t_grid[-1], np.array(states[-1], dtype=float)

        ts = np.concatenate([self.open_t, starts_t])
        fs = np.concatenate([self.open_f, factors])
        seg = self._segments(ts)
        # windows start at each segment's first step, width apart; the
        # open window is such a start
        idx = np.arange(len(ts))
        first = np.maximum.accumulate(
            np.where(np.concatenate([[True], seg[1:] != seg[:-1]]), idx, 0))
        starts = np.flatnonzero((idx - first) % self.width == 0)
        stops = np.append(starts[1:], len(ts))
        # the last window may go on into the next chunk unless it is full
        done = len(starts) - int(stops[-1] - starts[-1] < self.width)
        self._windows(fs, ts, seg, starts[:done], stops[:done])
        rest = stops[done - 1] if done else 0
        self.open_t, self.open_f = ts[rest:].copy(), fs[rest:].copy()

    def _segments(self, ts):
        """Per step start time: -1 in the warmup, else its bootstrap block."""
        if self.edges is None:
            return np.full(len(ts), -1)
        return np.where(ts < self.cut, -1,
                        np.searchsorted(self.edges, ts, side="right"))

    def _windows(self, fs, ts, seg, starts, stops):
        """One QR per window fs[starts[w]:stops[w]], in order."""
        mats, log_scales = window_products(fs, starts, stops)
        logs = np.empty((len(starts), self.k))
        q = self.q
        for w in range(len(starts)):
            q, r = qr_pos(mats[w] @ q)
            logs[w] = np.log(np.abs(np.diag(r))) + log_scales[w]
        self.q = q
        blocks = seg[starts]
        post = blocks >= 0              # the warmup's logs are discarded
        self.logs.append(logs[post])
        self.blocks.append(blocks[post])
        np.minimum.at(self.block_t0, blocks[post], ts[starts][post])

    def finish(self) -> SpectrumEstimate:
        """The estimate of the steps fed so far, taken as the whole orbit.

        Raises ConfigError naming `spectrum.warmup` when a bootstrap
        block holds no step."""
        if len(self.open_t):
            self._windows(self.open_f, self.open_t,
                          self._segments(self.open_t), [0], [len(self.open_t)])
        empty = np.flatnonzero(np.isinf(self.block_t0))
        if len(empty):
            raise ConfigError(
                "spectrum.warmup",
                f"must leave each of the {BOOT_BLOCKS} bootstrap blocks an "
                f"orbit step: the {self.t_end - self.cut:g} time units after "
                f"it, cut into {BOOT_BLOCKS} equal blocks, leave block "
                f"{empty[0] + 1} none")
        logs = np.concatenate(self.logs)
        # block 0 starts at the first grid point at or after the cut
        span = float(self.t_last - self.block_t0[0])
        exponents = logs.sum(axis=0) / span

        # block bootstrap over contiguous time blocks
        blocks = np.concatenate(self.blocks)
        block_sums = np.add.reduceat(
            logs, np.searchsorted(blocks, np.arange(BOOT_BLOCKS)), axis=0)
        block_spans = np.diff(np.append(self.block_t0, self.t_last))
        rng = np.random.default_rng(BOOT_SEED)
        picks = rng.integers(0, BOOT_BLOCKS, size=(BOOT_RESAMPLES, BOOT_BLOCKS))
        boot = (block_sums[picks].sum(axis=1)
                / block_spans[picks].sum(axis=1)[:, None])
        return SpectrumEstimate(
            exponents=exponents,
            half_widths=1.96 * boot.std(axis=0),
            window=span,
            reorthonormalizations=len(logs),
            divergence_average=float(np.sum(np.concatenate(self.terms)) / span),
            sum_half_width=float(1.96 * boot.sum(axis=1).std()),
        )


def benettin_spectrum(orbit: OrbitSegment, k: int,
                      warmup: float = 0.0) -> SpectrumEstimate:
    """Top-k exponents by QR-reorthonormalized cocycle iteration.

    `warmup` discards the initial frame-alignment transient before the
    log diagonal factors start accumulating (the pushed frame converges
    to the backward singular directions at the spectral-gap rate).  The
    accumulated factors are bootstrapped over contiguous time blocks
    (50 blocks of equal time span, 1000 resamples, fixed seed) for
    confidence half-widths.  One QR factorisation per window product
    (see `SpectrumEstimate`).  The stored orbit goes through the same
    `BenettinFold` as `flow_spectrum`'s steps, `_FOLD_CHUNK` steps at a
    time, so `flow_spectrum` of an orbit equals this of its `integrate`
    output bit for bit.
    """
    fold = BenettinFold(orbit.model, k, orbit.times[0], orbit.states[0],
                        warmup, orbit.times[-1])
    for a in range(0, orbit.n_steps, _FOLD_CHUNK):
        b = a + _FOLD_CHUNK
        fold.add(orbit.times[a + 1:b + 1], orbit.states[a + 1:b + 1],
                 orbit.step_cocycles[a:b])
    return fold.finish()


def flow_spectrum(model: VectorFieldModel, x0, t_span: float, k: int,
                  warmup: float,
                  step_ctrl: Optional[StepControl] = None) -> SpectrumEstimate:
    """`benettin_spectrum` of the orbit `integrate(model, x0, t_span,
    step_ctrl)` would store, without storing it: the accepted steps of
    `dp5_steps` go into a `BenettinFold` `_FOLD_CHUNK` at a time, as they
    are taken.  Raises as integrate does."""
    x0 = np.asarray(x0, dtype=float)
    fold = BenettinFold(model, k, 0.0, x0, warmup, t_span)
    steps = dp5_steps(model, x0, t_span, step_ctrl)
    while chunk := list(islice(steps, _FOLD_CHUNK)):
        ys = np.stack([y for _, y in chunk])
        fold.add(np.array([t for t, _ in chunk]), ys[:, :, 0], ys[:, :, 1:])
    return fold.finish()


# ----------------------------------------------------------------------
# empirical measures
# ----------------------------------------------------------------------

@dataclass
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    @property
    def density(self):
        widths = np.diff(self.edges)
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(widths)
        return self.counts / (total * widths)


def empirical_measure(samples, bins: int = 64,
                      support: Optional[tuple] = None) -> Histogram:
    samples = np.asarray(samples, dtype=float)
    if support is None:
        support = (float(samples.min()), float(samples.max()))
    counts, edges = np.histogram(samples, bins=bins, range=support)
    return Histogram(edges=edges, counts=counts.astype(float))


def tv_distance(h1: Histogram, h2: Histogram) -> float:
    """Total variation between two histograms on the same bin edges."""
    if h1.edges.shape != h2.edges.shape or not np.allclose(h1.edges, h2.edges):
        raise ValueError("histograms must share bin edges")
    p = h1.counts / max(h1.counts.sum(), 1.0)
    q = h2.counts / max(h2.counts.sum(), 1.0)
    return float(0.5 * np.sum(np.abs(p - q)))


def ks_statistic(samples, cdf: Callable) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a reference CDF.

    The CDF may be vectorized (preferred) or scalar."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.shape[0]
    f = np.asarray(cdf(xs))
    if f.shape != xs.shape:
        f = np.array([cdf(v) for v in xs])
    hi = np.max(np.arange(1, n + 1) / n - f)
    lo = np.max(f - np.arange(0, n) / n)
    return float(max(hi, lo))


def uniform_cdf(lo, hi):
    def cdf(x):
        return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return cdf


def map_pushforward(m: IntervalMap, samples):
    """One application of the map to a sample array through its
    `eval_batch`; samples at the map's singular points are dropped."""
    x = np.asarray(samples, dtype=float)
    return m.eval_batch(x[~np.isin(x, m.singular_points)])


def histogram_to_csv(h: Histogram, path, header_comment=None):
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("bin_left,bin_right,count,density\n")
        d = h.density
        for i in range(len(h.counts)):
            fh.write(f"{h.edges[i]:.17g},{h.edges[i+1]:.17g},"
                     f"{h.counts[i]:.17g},{d[i]:.17g}\n")


# ----------------------------------------------------------------------
# basin sampling
# ----------------------------------------------------------------------

@dataclass
class BasinSample:
    fraction: float
    converged: np.ndarray
    averages: np.ndarray
    reference: np.ndarray
    tolerance: float


def basin_sample(model: VectorFieldModel, reference, grid_states,
                 T: float = 800.0, dt: float = 0.02, tol: float = 0.05,
                 transient: float = 20.0, panel: str = "abs") -> BasinSample:
    """Fraction of initial conditions whose Birkhoff averages match
    `reference` within relative tolerance tol.

    The observable panel is one running mean per coordinate: of |x_i|
    with panel="abs" (symmetric chaotic attractors otherwise hide
    behind cancelling signs) or of x_i with panel="signed" (needed to
    separate basins of distinct sinks).  The comparison is
    |avg - ref| <= tol * (1 + |ref|) per component.  Fixed-step RK4
    on the model's `eval_batch` drives the ensemble (statistics only,
    cross-validated against the adaptive integrator); `reference` is
    typically the panel of a long reference run.  Pass reference=None
    together with a single grid point to compute such a panel.
    """
    if panel not in ("abs", "signed"):
        raise ValueError("panel must be 'abs' or 'signed'")
    x = batch_rk4(model, grid_states, dt, int(round(transient / dt)))
    n_avg = int(round(T / dt))
    acc = np.zeros_like(x)
    for _ in range(n_avg):
        x = rk4_step(model.eval_batch, x, dt)
        acc += np.abs(x) if panel == "abs" else x
    avg = acc / n_avg

    if reference is None:
        ref = avg[0]
        converged = np.ones(x.shape[0], dtype=bool)
    else:
        ref = np.asarray(reference, dtype=float)
        converged = np.all(np.abs(avg - ref) <= tol * (1.0 + np.abs(ref)),
                           axis=1)
    return BasinSample(
        fraction=float(np.mean(converged)),
        converged=converged,
        averages=avg,
        reference=ref,
        tolerance=tol,
    )


# ----------------------------------------------------------------------
# entropy chain on the one-dimensional quotient
# ----------------------------------------------------------------------

@dataclass
class PesinReport:
    """Numerical entropy chain for the suspension over an interval map.

    The base entropy is computed as the Birkhoff average of log|f'|
    (the log-derivative integral identity for these piecewise monotone
    maps); the flow side is the time-1 center-unstable log-determinant
    average along the suspension orbit.  `chain_ok` checks
    flow_side >= h_base / mean_roof - slack within the stated slack.
    """

    h_base: float
    mean_roof: float
    quotient: float
    flow_side: float
    truncation_bound: float
    slack: float
    chain_ok: bool
    details: dict = field(default_factory=dict)


def pesin_check_1d(m: IntervalMap, suspension_model: SuspensionModel,
                   n: int = 10 ** 5, seed: int = 73301) -> PesinReport:
    from . import suspension as susp

    rng = np.random.default_rng(seed)
    x0 = float(rng.uniform(-1.0, 1.0))
    y0 = float(rng.uniform(-1.0, 1.0))

    f, df, roof = m.eval, m.derivative, suspension_model.roof
    log_df = np.empty(n)
    roofs = np.empty(n)
    x = x0
    for i in range(n):
        xa = x if abs(x) >= PESIN_CLIP else np.copysign(PESIN_CLIP, x)
        log_df[i] = np.log(abs(df(xa)))
        roofs[i] = roof(xa)
        x = f(xa)
    h_base = float(np.mean(log_df))
    mean_roof = float(np.mean(roofs))
    quotient = h_base / mean_roof

    n_flow = min(n, 20000)
    streams = susp.run_section_streams(suspension_model,
                                       [[x0, y0]], n_flow)
    flow_side = -susp.mnuse_rate_stream(streams, 0, 1.0)
    trunc = PESIN_CLIP * (1.0 + abs(np.log(PESIN_CLIP)))
    return PesinReport(
        h_base=h_base,
        mean_roof=mean_roof,
        quotient=quotient,
        flow_side=float(flow_side),
        truncation_bound=float(trunc),
        slack=PESIN_SLACK,
        chain_ok=bool(flow_side >= quotient - PESIN_SLACK),
        details={"n_base": n, "n_flow_returns": n_flow, "seed": seed},
    )
