"""Birkhoff averaging, Lyapunov spectra, empirical measures and basins.

Statistics carry their own uncertainty: the spectrum estimator reports
block-bootstrap half-widths, Birkhoff series report the oscillation of
the running mean over the final quarter of the window, and the entropy
chain reports the roof truncation bound explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .flowcalc import OrbitSegment, batch_rk4, rk4_step
from .models import IntervalMap, SuspensionModel, VectorFieldModel
from .util import haar_frame, qr_pos, window_products

BOOT_BLOCKS = 50
BOOT_RESAMPLES = 1000
BOOT_SEED = 53117
# accepted steps per Benettin window on the orbit of a vector field:
# error-controlled DP5 steps are close to the identity, so the product of
# a few stays well conditioned between QR factorisations
_FLOW_WINDOW = 8
# states whose Jacobians the divergence average forms at once
_TRACE_CHUNK = 4096


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


def _checkpoint_indices(n, n_checkpoints):
    idx = np.unique(np.geomspace(1, n, n_checkpoints).astype(int))
    return idx


def birkhoff_map(m: IntervalMap, observable: Callable, x0: float, n: int,
                 name="obs", n_checkpoints: int = 40) -> BirkhoffSeries:
    """Running average of observable along a map orbit of length n."""
    f = m.eval
    vals = np.empty(n)
    x = float(x0)
    for i in range(n):
        vals[i] = observable(x)
        x = f(x)
    running = np.cumsum(vals) / np.arange(1, n + 1)
    idx = _checkpoint_indices(n, n_checkpoints) - 1
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

    The frame is re-orthonormalized once per window of step factors:
    up to `_FLOW_WINDOW` = 8 accepted steps on the orbit of a vector
    field, a single factor (one return map) on a matrix orbit.  Windows
    never cross the end of the warmup or a bootstrap block edge, and
    `reorthonormalizations` counts the windows after the warmup.

    `divergence_average` is the trapezoid average of the Jacobian trace
    along the orbit, an independent route to the exponent sum (Liouville
    identity); `sum_half_width` is the bootstrap half-width of the sum.
    """

    exponents: np.ndarray
    half_widths: np.ndarray
    window: float
    reorthonormalizations: int
    divergence_average: float
    sum_half_width: float


def benettin_spectrum(orbit: OrbitSegment, k: int,
                      warmup: float = 0.0) -> SpectrumEstimate:
    """Top-k exponents by QR-reorthonormalized cocycle iteration.

    `warmup` discards the initial frame-alignment transient before the
    log diagonal factors start accumulating (the pushed frame converges
    to the backward singular directions at the spectral-gap rate).  The
    accumulated factors are bootstrapped over contiguous time blocks
    (50 blocks, 1000 resamples, fixed seed) for confidence half-widths.
    One QR factorisation per window product (see `SpectrumEstimate`).
    """
    n = orbit.states.shape[1]
    if k > n:
        raise ValueError("k exceeds the model dimension")
    model = orbit.model
    flow = isinstance(model, VectorFieldModel)
    i0 = warmup_index(orbit, warmup)
    n_acc = orbit.n_steps - i0
    if n_acc < BOOT_BLOCKS:
        raise ValueError("orbit too short after warmup discard")
    edges = np.linspace(0, n_acc, BOOT_BLOCKS + 1).astype(int)
    width = _FLOW_WINDOW if flow else 1
    # segments: the warmup, then each bootstrap block.  Segment j's
    # windows start at cuts[j], width apart, and their logs are rows
    # rows[j]:rows[j + 1]; one segment's window products are held at once
    cuts = np.concatenate([[0], i0 + edges])
    rows = np.concatenate([[0], np.cumsum(-(-np.diff(cuts) // width))])
    logs = np.empty((rows[-1], k))
    q = haar_frame(n, k, seed=4201)
    for j in range(BOOT_BLOCKS + 1):
        starts = np.arange(cuts[j], cuts[j + 1], width)
        mats, log_scales = window_products(
            orbit.step_cocycles, starts,
            np.minimum(starts + width, cuts[j + 1]))
        for w in range(len(starts)):
            q, r = qr_pos(mats[w] @ q)
            logs[rows[j] + w] = np.log(np.abs(np.diag(r))) + log_scales[w]
    logs = logs[rows[1]:]                    # the warmup's are discarded
    span = float(orbit.times[-1] - orbit.times[i0])
    exponents = logs.sum(axis=0) / span

    # block bootstrap over contiguous time blocks
    block_sums = np.add.reduceat(logs, rows[1:-1] - rows[1], axis=0)
    block_spans = np.diff(orbit.times[i0 + edges])
    rng = np.random.default_rng(BOOT_SEED)
    picks = rng.integers(0, BOOT_BLOCKS, size=(BOOT_RESAMPLES, BOOT_BLOCKS))
    boot = (block_sums[picks].sum(axis=1)
            / block_spans[picks].sum(axis=1)[:, None])
    half = 1.96 * boot.std(axis=0)
    sum_half = float(1.96 * boot.sum(axis=1).std())

    # independent divergence route (trapezoid of the Jacobian trace)
    if flow:
        states = orbit.states[i0:]
        # in chunks, so that the Jacobians held at once stay small
        tr = np.concatenate([
            np.trace(model.jacobian_batch(states[a:a + _TRACE_CHUNK]),
                     axis1=1, axis2=2)
            for a in range(0, len(states), _TRACE_CHUNK)])
        dt = np.diff(orbit.times[i0:])
        div_avg = float(np.sum(0.5 * (tr[1:] + tr[:-1]) * dt) / span)
    else:
        div_avg = float(np.sum(
            np.linalg.slogdet(orbit.step_cocycles[i0:])[1]) / span)

    return SpectrumEstimate(
        exponents=exponents,
        half_widths=half,
        window=span,
        reorthonormalizations=len(logs),
        divergence_average=div_avg,
        sum_half_width=sum_half,
    )


def warmup_index(orbit: OrbitSegment, warmup: float) -> int:
    """Index of the first step that starts at or after `warmup` time
    units into the orbit; the spectrum accumulates from there."""
    return int(np.searchsorted(orbit.times, orbit.times[0] + warmup,
                               side="left"))


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
                   n: int = 10 ** 5, seed: int = 73301,
                   slack: float = 0.05, clip: float = 1e-12) -> PesinReport:
    from . import suspension as susp

    rng = np.random.default_rng(seed)
    x0 = float(rng.uniform(-1.0, 1.0))
    y0 = float(rng.uniform(-1.0, 1.0))

    f, df, roof = m.eval, m.derivative, suspension_model.roof
    log_df = np.empty(n)
    roofs = np.empty(n)
    x = x0
    for i in range(n):
        xa = x if abs(x) >= clip else np.copysign(clip, x)
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
    trunc = clip * (1.0 + abs(np.log(clip)))
    return PesinReport(
        h_base=h_base,
        mean_roof=mean_roof,
        quotient=quotient,
        flow_side=float(flow_side),
        truncation_bound=float(trunc),
        slack=slack,
        chain_ok=bool(flow_side >= quotient - slack),
        details={"n_base": n, "n_flow_returns": n_flow, "seed": seed},
    )
