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

from dataclasses import dataclass

import numpy as np

from .errors import SpectralGapFailure
from .flowcalc import OrbitSegment
from .util import (fit_log_rate, haar_frame, log_norms, principal_angles, qr_pos,
                   window_products)

# Minimum acceptable singular-value ratio at the splitting cut over one
# warmup window; below this there is no numerical domination to lock onto.
GAP_RATIO_FLOOR = 1.0 + 1e-3

# Verdict margin per unit time separating genuine zero rates from noise.
RATE_MARGIN = 1e-3


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
    `factors[k]` is the cocycle block over [grid[k], grid[k+1]] with any
    renormalization scale folded back in.  Es/Ecu hold the bases at the
    checkpoints.  gap_s / gap_cu are per-unit-time singular-value gaps
    at the two cuts, estimated from the sweep's QR log streams.
    """

    orbit: OrbitSegment
    d_s: int
    d_cu: int
    grid: np.ndarray
    factors: np.ndarray
    Es: np.ndarray
    Ecu: np.ndarray
    angles: np.ndarray
    defect_s: np.ndarray
    defect_cu: np.ndarray
    gap_s: float
    gap_cu: float

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

    def restricted(self, which):
        """Per-block factors restricted to E^s ('s') or E^cu ('cu') in the
        stored bases, plus per-block relative leakage defects."""
        b = self.Es if which == "s" else self.Ecu
        w = np.einsum("kij,kjl->kil", self.factors, b[:-1])
        coords = np.einsum("kji,kjl->kil", b[1:], w)
        leak = w - np.einsum("kij,kjl->kil", b[1:], coords)
        wn = np.linalg.norm(w, axis=(1, 2))
        defects = np.where(wn > 0,
                           np.linalg.norm(leak, axis=(1, 2)) / np.maximum(wn, 1e-300),
                           0.0)
        return coords, defects


def _block_factors(orbit: OrbitSegment, stride: int):
    """Products of `stride` consecutive step factors, with renorm folded in."""
    n_steps = orbit.n_steps
    grid = np.arange(0, n_steps + 1, stride)
    if grid[-1] != n_steps:
        grid = np.append(grid, n_steps)
    steps = orbit.step_cocycles * np.exp(orbit.renorm_log)[:, None, None]
    mats, log_scales = window_products(steps, grid[:-1], grid[1:])
    return grid, mats * np.exp(log_scales)[:, None, None]


def _sweep(factors, n, seed, backward=False):
    """QR sweeps of many members at once: forward through each member's
    (K_b, n, n) block factors, or backward through their inverses.

    Members run longest first, so the ones still open at step j are a
    prefix and each step is one stacked QR (and solve).  Returns per
    member its K_b + 1 frames and cumulative log |diag R|, in checkpoint
    order.
    """
    lengths = np.array([f.shape[0] for f in factors])
    order = np.argsort(-lengths, kind="stable")
    n_open = len(lengths) - np.searchsorted(
        np.sort(lengths), np.arange(lengths.max()), side="right")
    # the block each sorted member starts from in the concatenated stack
    start = np.cumsum(lengths)[order] - (1 if backward else lengths[order])
    step = -1 if backward else 1
    flat = np.concatenate(factors)
    frames = np.empty((len(factors), len(n_open) + 1, n, n))
    diag = np.ones((len(factors), len(n_open), n))
    q = np.tile(haar_frame(n, n, seed + 1 if backward else seed), (len(factors), 1, 1))
    frames[:, 0] = q
    for j, m in enumerate(n_open.tolist()):
        f = flat.take(start[:m] + step * j, axis=0)
        q, r = qr_pos(np.linalg.solve(f, q[:m]) if backward else f @ q[:m])
        frames[:m, j + 1] = q
        diag[:m, j] = np.diagonal(r, axis1=1, axis2=2)
    logs = np.zeros((len(factors), len(n_open) + 1, n))
    logs[:, 1:] = np.cumsum(np.log(np.abs(diag)), axis=1)
    rows = zip(np.argsort(order), lengths)
    if backward:  # index j holds checkpoint K_b - j
        return [(frames[i, size::-1].copy(), logs[i, size::-1].copy())
                for i, size in rows]
    return [(frames[i, :size + 1], logs[i, :size + 1]) for i, size in rows]


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
    SplittingSequence per member, bit for bit.

    The members' sweeps run together, one stacked QR (and solve) per
    block over the members still open, so short members of one
    dimension share the per-call cost.  If any member fails, the
    members are redone one by one, and the first failing member raises
    what `estimate_splitting` raises on it.
    """
    if not orbits:
        return []
    try:
        return _estimate_members(orbits, d_s, warmup, init_seed, stride)
    except (ValueError, SpectralGapFailure):
        if len(orbits) == 1:
            raise
        return [_estimate_members([orbit], d_s, warmup, init_seed, stride)[0]
                for orbit in orbits]


def _estimate_members(orbits, d_s, warmup, init_seed, stride):
    n = orbits[0].states.shape[1]
    d_cu = n - d_s
    if d_s < 1 or d_cu < 2:
        raise ValueError("need d_s >= 1 and d_cu = n - d_s >= 2")
    for orbit in orbits:
        if orbit.t_span <= 2 * warmup:
            raise ValueError("orbit shorter than twice the warmup")

    blocks = [_block_factors(orbit, stride) for orbit in orbits]
    factors = [f for _, f in blocks]
    forward = _sweep(factors, n, init_seed)
    backward = _sweep(factors, n, init_seed, backward=True)
    return [_sequence(orbit, grid, f, fwd, bwd, d_s, warmup)
            for orbit, (grid, f), fwd, bwd in zip(orbits, blocks, forward, backward)]


def _sequence(orbit, full_grid, factors, forward, backward, d_s, warmup):
    """One member's SplittingSequence from its swept frames and logs."""
    (f_frames, f_logs), (b_frames, b_logs) = forward, backward
    n = orbit.states.shape[1]
    d_cu = n - d_s
    t_full = orbit.times[full_grid]
    span = orbit.t_span
    k0 = int(np.searchsorted(t_full, t_full[0] + warmup, side="left"))
    k1 = int(np.searchsorted(t_full, t_full[-1] - warmup, side="right")) - 1
    if k1 <= k0:
        raise ValueError("no checkpoints left after warmup trimming")

    f_rates = (f_logs[-1] - f_logs[0]) / span
    b_rates = (b_logs[0] - b_logs[-1]) / span
    gap_cu = float(f_rates[d_cu - 1] - f_rates[d_cu]) if d_cu < n else np.inf
    gap_s = float(b_rates[d_s - 1] - b_rates[d_s]) if d_s < n else np.inf
    for gap, name in ((gap_cu, "E^cu"), (gap_s, "E^s")):
        if np.exp(gap * warmup) < GAP_RATIO_FLOOR:
            raise SpectralGapFailure(
                f"singular value ratio {np.exp(gap * warmup):.6f} at the {name} cut "
                f"over warmup {warmup:g} is below {GAP_RATIO_FLOOR}"
            )

    ecu = f_frames[k0:k1 + 1, :, :d_cu]
    es = b_frames[k0:k1 + 1, :, :d_s]
    k_count = k1 - k0
    seq = SplittingSequence(
        orbit=orbit, d_s=d_s, d_cu=d_cu,
        grid=full_grid[k0:k1 + 1],
        factors=factors[k0:k1],
        Es=es, Ecu=ecu, angles=principal_angles(es, ecu)[:, 0],
        defect_s=np.zeros(k_count), defect_cu=np.zeros(k_count),
        gap_s=gap_s, gap_cu=gap_cu,
    )
    _, ds = seq.restricted("s")
    _, dcu = seq.restricted("cu")
    seq.defect_s = ds
    seq.defect_cu = dcu
    return seq


def window_splitting(orbit: OrbitSegment, grid_index: int, d_s: int,
                     warmup: float, init_seed: int = 77001) -> Splitting:
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

    scale = np.exp(orbit.renorm_log)
    q = haar_frame(n, d_cu, init_seed)
    for k in range(ia, grid_index):
        q, _ = qr_pos((orbit.step_cocycles[k] * scale[k]) @ q)
    ecu = q
    q = haar_frame(n, d_s, init_seed + 1)
    for k in range(ib - 1, grid_index - 1, -1):
        q, _ = qr_pos(np.linalg.solve(orbit.step_cocycles[k] * scale[k], q))
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


def domination_rate(seq: SplittingSequence, spans=None, n_starts: int = 5) -> RateFit:
    """Fit the domination quantity D(t) = ||DX_t|E^s|| * ||DX_{-t}|E^cu||.

    Norms are taken from per-block factors restricted to the estimated
    subspaces (projected each block), so long-window decay is not
    polluted by estimation leakage.  Verdict: dominated iff the fitted
    slope is <= -1e-3 per unit time.
    """
    rs, _ = seq.restricted("s")
    rcu, _ = seq.restricted("cu")
    times = seq.times
    i, j = span_windows(times, spans, n_starts)
    log_d = (log_norms(*window_products(rs, i, j))
             + log_norms(*window_products(rcu, i, j), inverse=True))
    return _rate_fit(times, i, j, log_d)


def contraction_rate(seq: SplittingSequence, spans=None, n_starts: int = 5) -> RateFit:
    """Fit ||DX_t|E^s|| decay; verdict: uniformly contracted iff the
    slope is <= -1e-3 per unit time."""
    rs, _ = seq.restricted("s")
    times = seq.times
    i, j = span_windows(times, spans, n_starts)
    return _rate_fit(times, i, j, log_norms(*window_products(rs, i, j)))


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


def flow_containment(seq: SplittingSequence) -> float:
    """Max angle (radians) between the flow direction and its projection
    onto E^cu along the checkpoints; 0 means the flow direction is
    contained in the estimated center-unstable bundle."""
    v = _checkpoint_flow_dirs(seq)[:, :, None]
    resid = (v - seq.Ecu @ (seq.Ecu.swapaxes(1, 2) @ v))[:, :, 0]
    sines = np.minimum(1.0, np.sqrt(np.vecdot(resid, resid)))
    return float(np.max(np.arcsin(sines), initial=0.0))


def splitting_to_csv(seq: SplittingSequence, path, header_comment=None):
    """CSV dump: time, point, E^s and E^cu basis vectors (column-major),
    principal angle, per-block defects."""
    n = seq.orbit.states.shape[1]
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        cols = (["t"] + [f"x{i}" for i in range(n)]
                + [f"Es{c}_{i}" for c in range(seq.d_s) for i in range(n)]
                + [f"Ecu{c}_{i}" for c in range(seq.d_cu) for i in range(n)]
                + ["angle", "defect_s", "defect_cu"])
        fh.write(",".join(cols) + "\n")
        times = seq.times
        for k in range(len(seq)):
            x = seq.orbit.states[seq.grid[k]]
            row = [f"{times[k]:.17g}"] + [f"{v:.17g}" for v in x]
            row += [f"{v:.17g}" for v in seq.Es[k].T.ravel()]
            row += [f"{v:.17g}" for v in seq.Ecu[k].T.ravel()]
            ds = seq.defect_s[min(k, len(seq.defect_s) - 1)] if len(seq.defect_s) else 0.0
            dcu = seq.defect_cu[min(k, len(seq.defect_cu) - 1)] if len(seq.defect_cu) else 0.0
            row += [f"{seq.angles[k]:.17g}", f"{ds:.17g}", f"{dcu:.17g}"]
            fh.write(",".join(row) + "\n")
