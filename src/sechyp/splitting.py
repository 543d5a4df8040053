"""Invariant splitting estimation and finite-time domination certificates.

Subspaces are estimated by finite-time singular directions: a generic
orthonormal frame is pushed through the cocycle with QR
re-orthonormalization (forward for the center-unstable bundle, backward
through the step inverses for the stable bundle).  Estimates are
reported only after a configurable warmup has elapsed at both ends of
the orbit.

Because a swept sequence is pullback-consistent with itself by
construction, the per-step defect only diagnoses conditioning; the
estimation quality measure is `estimator_consistency`, which compares
the sweep against fresh fixed-window estimates at probe points.

All verdicts are finite-time: a fitted (rate, intercept, window) triple
in the ambient Euclidean metric, never an asymptotic claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpectralGapFailure
from .flowcalc import OrbitSegment
from .util import (fit_log_rate, haar_frame, log_norms, longest_first,
                   principal_angles, qr_pos, window_products)

# Minimum acceptable singular-value ratio at the splitting cut over one
# warmup window; below this there is no numerical domination to lock onto.
GAP_RATIO_FLOOR = 1.0 + 1e-3

# Verdict margin per unit time separating genuine zero rates from noise.
RATE_MARGIN = 1e-3

# Blocks whose products are formed at once, which bounds the temporaries.
_BLOCK_CHUNK = 256

# Window starts per span of the domination and contraction fits.
RATE_STARTS = 5

# Seed of window_splitting's fresh frames (E^cu; E^s uses the next one).
WINDOW_SEED = 77001


@dataclass(frozen=True)
class Splitting:
    """Orthonormal bases of E^s and E^cu at one point, with the smallest
    principal angle between them."""

    point: np.ndarray
    Es_basis: np.ndarray
    Ecu_basis: np.ndarray
    angle: float


@dataclass
class SplittingSequence:
    """Splitting estimates along (a decimation of) an orbit grid.

    `grid` holds the absolute orbit indices of the K+1 checkpoints;
    `factors[k]` is the cocycle block over [grid[k], grid[k+1]].  Es/Ecu
    hold the bases at the checkpoints.  gap_s / gap_cu are per-unit-time
    singular-value gaps at the two cuts, estimated from the sweep's QR
    log streams.

    Formed once from those, not passed in: `Rs` / `Rcu`, the (K, d, d)
    block factors restricted to E^s / E^cu in the stored bases, and
    `defect_s` / `defect_cu`, each block's relative leakage off the
    bundle (see `_restrict`).  Every functional reads these.
    """

    orbit: OrbitSegment
    d_s: int
    d_cu: int
    grid: np.ndarray
    factors: np.ndarray
    Es: np.ndarray
    Ecu: np.ndarray
    angles: np.ndarray
    gap_s: float
    gap_cu: float
    Rs: np.ndarray = field(init=False)
    Rcu: np.ndarray = field(init=False)
    defect_s: np.ndarray = field(init=False)
    defect_cu: np.ndarray = field(init=False)

    def __post_init__(self):
        self.Rs, self.defect_s = _restrict(self.factors, self.Es)
        self.Rcu, self.defect_cu = _restrict(self.factors, self.Ecu)

    def __len__(self):
        return self.grid.shape[0]

    @property
    def times(self):
        return self.orbit.times[self.grid]

    @property
    def n_blocks(self):
        return self.factors.shape[0]

    def at(self, k) -> Splitting:
        return Splitting(
            point=self.orbit.states[self.grid[k]],
            Es_basis=self.Es[k],
            Ecu_basis=self.Ecu[k],
            angle=float(self.angles[k]),
        )


def _restrict(factors, bases):
    """Block factors (K, n, n) restricted to the bundle with orthonormal
    bases (K+1, n, d) at the checkpoints: the (K, d, d) coordinates of
    each pushed basis in the next one, and per block the relative norm
    of the pushed basis that leaks off the next one."""
    w = np.einsum("kij,kjl->kil", factors, bases[:-1])
    coords = np.einsum("kji,kjl->kil", bases[1:], w)
    leak = w - np.einsum("kij,kjl->kil", bases[1:], coords)
    wn = np.linalg.norm(w, axis=(1, 2))
    defects = np.where(wn > 0,
                       np.linalg.norm(leak, axis=(1, 2)) / np.maximum(wn, 1e-300),
                       0.0)
    return coords, defects


def block_factors(orbit: OrbitSegment, stride: int):
    """The checkpoint grid of every `stride`-th step and the last one, and
    the products of the step factors over each block between
    checkpoints: (grid, (K_b, n, n) factors)."""
    n_steps = orbit.n_steps
    grid = np.arange(0, n_steps + 1, stride)
    if grid[-1] != n_steps:
        grid = np.append(grid, n_steps)
    steps = orbit.step_cocycles
    mats = np.empty((len(grid) - 1,) + steps.shape[1:])
    for lo in range(0, len(mats), _BLOCK_CHUNK):
        at = slice(lo, lo + _BLOCK_CHUNK)
        part, log_scales = window_products(steps, grid[:-1][at], grid[1:][at])
        mats[at] = part * np.exp(log_scales)[:, None, None]
    return grid, mats


def _sweep(factors, n, seed, cols, kept, backward=False):
    """QR sweeps of many members at once: forward through each member's
    (K_b, n, n) block factors, or backward through their inverses.

    Members run longest first, so the ones still open at step j are a
    prefix and each step is one stacked QR (and solve).  Returns per
    member the first `cols` columns of its frames at the checkpoints of
    the slice `kept[i]`, as a compact copy, and the sum of its
    log |diag R| over the sweep.
    """
    lengths = [f.shape[0] for f in factors]
    order, n_open = longest_first(lengths)
    members = [factors[i] for i in order]
    frames = np.empty((len(factors), len(n_open) + 1, n, cols))
    logs = np.ones((len(factors), len(n_open), n))
    q = np.tile(haar_frame(n, n, seed + 1 if backward else seed), (len(factors), 1, 1))
    frames[:, 0] = q[:, :, :cols]
    for j, m in enumerate(n_open.tolist()):
        # each open member's block j, or its block j from the end
        f = np.stack([f[-1 - j if backward else j] for f in members[:m]])
        q, r = qr_pos(np.linalg.solve(f, q[:m]) if backward else f @ q[:m])
        frames[:m, j + 1] = q[:, :, :cols]
        logs[:m, j] = np.diagonal(r, axis1=1, axis2=2)
    # summed block by block in sweep order, in place
    np.cumsum(np.log(np.abs(logs, out=logs), out=logs), axis=1, out=logs)
    out = []
    for i, size, k in zip(np.argsort(order), lengths, kept):
        # backward, frame j is the one at checkpoint K_b - j
        mine = frames[i, size::-1] if backward else frames[i, :size + 1]
        out.append((mine[k].copy(), logs[i, size - 1] if size else np.zeros(n)))
    return out


def estimate_splitting(orbit: OrbitSegment, d_s: int, warmup: float,
                       init_seed: int = 12902, stride: int = 1) -> SplittingSequence:
    """Estimate E^s (+) E^cu along the orbit.

    E^cu at a checkpoint is the span of the top d_cu = n - d_s
    directions of the cocycle pushed forward over at least `warmup`
    time units; E^s the top d_s directions of the inverse cocycle
    pulled back over at least `warmup`.  `stride` decimates the
    checkpoint grid (frames are re-orthonormalized once per block).

    Raises SpectralGapFailure when the singular-value ratio at either
    cut over one warmup window falls below 1 + 1e-3.
    """
    return estimate_splittings([orbit], d_s, warmup, init_seed, stride)[0]


def estimate_splittings(orbits, d_s: int, warmup: float,
                        init_seed: int = 12902, stride: int = 1):
    """`estimate_splitting` of each orbit in a list, one
    SplittingSequence per member, bit for bit; the first failing member
    raises what `estimate_splitting` raises on it (see
    `splittings_of_blocks`).
    """
    seqs = splittings_of_blocks(orbits, [block_factors(orbit, stride)
                                         for orbit in orbits],
                                d_s, warmup, init_seed)
    for seq in seqs:
        if isinstance(seq, Exception):
            raise seq
    return seqs


def splittings_of_blocks(orbits, blocks, d_s: int, warmup: float,
                         init_seed: int = 12902) -> list:
    """Per member its SplittingSequence from its `block_factors` output,
    or the ValueError or SpectralGapFailure `estimate_splitting` raises
    on it.

    Reads no step factors, so the caller may release the orbits'
    `step_cocycles` once the blocks are formed.  One sweep runs each way
    over the members longer than twice the warmup, one stacked QR (and
    solve) per block over the members still open, so short members of
    one dimension share the per-call cost; a stacked sweep gives each
    member's frames bit for bit, whichever members fail.
    """
    if not orbits:
        return []
    n = orbits[0].states.shape[1]
    d_cu = n - d_s
    if d_s < 1 or d_cu < 2:
        return [ValueError("need d_s >= 1 and d_cu = n - d_s >= 2") for _ in orbits]
    out = [ValueError("orbit shorter than twice the warmup")
           if orbit.t_span <= 2 * warmup else None for orbit in orbits]
    live = [i for i, failed in enumerate(out) if failed is None]
    factors = [blocks[i][1] for i in live]
    kept = [_kept_checkpoints(orbits[i].times[blocks[i][0]], warmup) for i in live]
    forward = _sweep(factors, n, init_seed, d_cu, kept)
    backward = _sweep(factors, n, init_seed, d_s, kept, backward=True)
    for i, k, fwd, bwd in zip(live, kept, forward, backward):
        grid, f = blocks[i]
        try:
            out[i] = _sequence(orbits[i], grid[k], f[k.start:k.stop - 1], fwd, bwd,
                               d_s, warmup)
        except (ValueError, SpectralGapFailure) as exc:
            out[i] = exc
    return out


def _kept_checkpoints(t_grid, warmup):
    """The slice of the checkpoints at times t_grid that lie at least
    `warmup` from both ends."""
    k0 = int(np.searchsorted(t_grid, t_grid[0] + warmup, side="left"))
    k1 = int(np.searchsorted(t_grid, t_grid[-1] - warmup, side="right")) - 1
    return slice(k0, k1 + 1)


def _sequence(orbit, grid, factors, forward, backward, d_s, warmup):
    """One member's SplittingSequence from its kept checkpoints, the block
    factors between them, and its swept frames there and log sums."""
    (ecu, f_logs), (es, b_logs) = forward, backward
    n = orbit.states.shape[1]
    d_cu = n - d_s
    span = orbit.t_span
    if len(grid) < 2:
        raise ValueError("no checkpoints left after warmup trimming")

    f_rates = f_logs / span
    b_rates = b_logs / span
    gap_cu = float(f_rates[d_cu - 1] - f_rates[d_cu]) if d_cu < n else np.inf
    gap_s = float(b_rates[d_s - 1] - b_rates[d_s]) if d_s < n else np.inf
    for gap, name in ((gap_cu, "E^cu"), (gap_s, "E^s")):
        if np.exp(gap * warmup) < GAP_RATIO_FLOOR:
            raise SpectralGapFailure(
                f"singular value ratio {np.exp(gap * warmup):.6f} at the {name} cut "
                f"over warmup {warmup:g} is below {GAP_RATIO_FLOOR}"
            )

    return SplittingSequence(
        orbit=orbit, d_s=d_s, d_cu=d_cu, grid=grid, factors=factors,
        Es=es, Ecu=ecu, angles=principal_angles(es, ecu)[:, 0],
        gap_s=gap_s, gap_cu=gap_cu,
    )


def window_splitting(orbit: OrbitSegment, grid_index: int, d_s: int,
                     warmup: float) -> Splitting:
    """Splitting at one orbit grid point from fresh frames over exact
    windows: E^cu from [t - warmup, t] forward, E^s from [t, t + warmup]
    backward.  Independent of the sweep estimator."""
    n = orbit.states.shape[1]
    d_cu = n - d_s
    t = orbit.times
    tc = t[grid_index]
    ia = int(np.searchsorted(t, tc - warmup, side="left"))
    ib = int(np.searchsorted(t, tc + warmup, side="right")) - 1
    if ia < 0 or ib > orbit.n_steps:
        raise ValueError("window leaves the orbit")

    q = haar_frame(n, d_cu, WINDOW_SEED)
    for k in range(ia, grid_index):
        q, _ = qr_pos(orbit.step_cocycles[k] @ q)
    ecu = q
    q = haar_frame(n, d_s, WINDOW_SEED + 1)
    for k in range(ib - 1, grid_index - 1, -1):
        q, _ = qr_pos(np.linalg.solve(orbit.step_cocycles[k], q))
    es = q
    return Splitting(
        point=orbit.states[grid_index],
        Es_basis=es,
        Ecu_basis=ecu,
        angle=float(principal_angles(es, ecu)[0]),
    )


def estimator_consistency(orbit: OrbitSegment, seq: SplittingSequence,
                          warmup: float, n_probes: int = 4):
    """Max principal angle between the sweep estimate and fresh
    fixed-window estimates (window = warmup and 2 * warmup) at probe
    checkpoints.  This is the honest estimation-quality measure: the
    sweep is self-consistent by construction, windows are not."""
    ks = np.linspace(0, len(seq) - 1, n_probes + 2, dtype=int)[1:-1]
    worst = 0.0
    for k in ks:
        gi = int(seq.grid[k])
        tc = orbit.times[gi]
        if tc - 2 * warmup < orbit.times[0] or tc + 2 * warmup > orbit.times[-1]:
            continue
        sweep = seq.at(k)
        for w in (warmup, 2 * warmup):
            win = window_splitting(orbit, gi, seq.d_s, w)
            worst = max(
                worst,
                float(principal_angles(sweep.Es_basis, win.Es_basis)[-1]),
                float(principal_angles(sweep.Ecu_basis, win.Ecu_basis)[-1]),
            )
    return worst


# ----------------------------------------------------------------------
# rate fits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares rate of a log quantity against the time span.

    `intercept` is the uniform constant c with every sampled value
    <= exp(slope * t + c); `residual` the max absolute fit residual.
    `passed` applies the verdict rule of the operation that produced
    the fit.
    """

    slope: float
    intercept: float
    residual: float
    passed: bool
    window: float
    n_samples: int


def span_windows(times, spans, n_starts):
    """Index pairs (i, j) into `times` of windows of each span, with
    n_starts window starts spread evenly over the grid per span.

    Spans default to six from a tenth of the grid length up to all of
    it; longer spans are dropped.  A window ends at the last grid time
    within its span, and windows shorter than one block are dropped.
    """
    window = times[-1] - times[0]
    if spans is None:
        spans = np.linspace(window / 10.0, window, 6)
    spans = np.asarray(spans, dtype=float)
    spans = spans[spans <= window + 1e-12]
    starts = np.concatenate([
        np.linspace(times[0], max(times[0], times[-1] - span), n_starts)
        for span in spans])
    ends = np.minimum(starts + np.repeat(spans, n_starts), times[-1])
    i = np.searchsorted(times, starts, side="left")
    j = np.searchsorted(times, ends, side="right") - 1
    keep = j > i
    return i[keep], j[keep]


def _rate_fit(times, i, j, log_values):
    spans = times[j] - times[i]
    slope, _, resid = fit_log_rate(spans, log_values)
    intercept = float(np.max(log_values - slope * spans))
    return RateFit(slope=slope, intercept=intercept, residual=resid,
                   passed=slope <= -RATE_MARGIN,
                   window=float(times[-1] - times[0]), n_samples=len(i))


def domination_rate(seq: SplittingSequence, spans=None) -> RateFit:
    """Fit the domination quantity D(t) = ||DX_t|E^s|| * ||DX_{-t}|E^cu||.

    Norms are taken from per-block factors restricted to the estimated
    subspaces (projected each block), so long-window decay is not
    polluted by estimation leakage.  Verdict: dominated iff the fitted
    slope is <= -1e-3 per unit time.
    """
    times = seq.times
    i, j = span_windows(times, spans, RATE_STARTS)
    log_d = (log_norms(*window_products(seq.Rs, i, j))
             + log_norms(*window_products(seq.Rcu, i, j), inverse=True))
    return _rate_fit(times, i, j, log_d)


def contraction_rate(seq: SplittingSequence, spans=None) -> RateFit:
    """Fit ||DX_t|E^s|| decay; verdict: uniformly contracted iff the
    slope is <= -1e-3 per unit time."""
    times = seq.times
    i, j = span_windows(times, spans, RATE_STARTS)
    return _rate_fit(times, i, j, log_norms(*window_products(seq.Rs, i, j)))


def _checkpoint_flow_dirs(seq: SplittingSequence):
    """Unit flow directions at the checkpoints, (K+1, n): the vertical
    unit vector on a suspension, else the normalized vector field (zero
    where the field vanishes)."""
    from .models import SuspensionModel

    model = seq.orbit.model
    if isinstance(model, SuspensionModel):
        return np.tile([0.0, 0.0, 1.0], (len(seq), 1))
    v = model.eval_batch(seq.orbit.states[seq.grid])
    speed = np.sqrt(np.vecdot(v, v))[:, None]
    return np.divide(v, speed, out=np.zeros_like(v), where=speed > 0)
