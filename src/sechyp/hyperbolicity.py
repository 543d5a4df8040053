"""Hyperbolicity functionals, singularity classification, and verdicts.

Every asymptotic condition (limsup/liminf averages, uniform rate
bounds) is reported as a finite-time statistic over an explicit window,
together with the sample of initial conditions it was evaluated on.
Verdicts never claim more than the window shows: `pass` means the
finite-time certificate holds at the stated margins, `inconclusive`
means the probe budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import Blowup, NotAnEquilibrium, NotPeriodic
from .flowcalc import StepControl, dp5_steps, integrate, wedge2_of
from .models import (SuspensionModel, VectorFieldModel, refine_equilibrium)
from .splitting import (SplittingSequence, _checkpoint_flow_dirs,
                        estimate_splitting, span_windows)
from .util import fit_log_rate, log_norms, qr_pos, window_products

# Window starts of the windowed sectional and volume functionals.
SECT_STARTS = 10

# Generic 2-planes of the sampled plane grid when dim E^cu > 2.
N_PLANES = 64

# Horizons of the running-max (ASH) functionals, geometrically spaced.
ASH_HORIZONS = 24

# Directions of E^cu that the NNE functional pushes, the angle (rad) to
# the flow direction below which a draw is rejected, and the draw seed.
NNE_DIRS = 8
NNE_FLOW_CONE = 1e-2
NNE_SEED = 90117

# Qualifying window starts of the MSH fits.
MSH_STARTS = 6

# Seed of the generic frames of the sampled plane grid.
PLANE_SEED = 40813

# Shooting residual below which a periodic orbit counts as closed.
PERIODIC_RESIDUAL = 1e-10

# ----------------------------------------------------------------------
# singularity classification
# ----------------------------------------------------------------------

@dataclass
class SingularityAnalysis:
    """Eigenstructure of an equilibrium and its Lorenz-like flags.

    `center_alternates` records other real eigenvalues that would also
    qualify as the center when several candidates pass the domination
    inequality; the reported choice is the smallest |Re|.
    """

    location: np.ndarray
    eigenvalues: np.ndarray            # sorted by real part, ascending
    is_hyperbolic: bool
    index: int                         # count of Re < 0
    lorenz_like: bool
    active: str                        # 'yes' | 'no' | 'undetermined'
    splitting_dims: Optional[tuple]    # (dim E^ss, 1, dim E^uu) if lorenz_like
    center_alternates: list = field(default_factory=list)

    def as_dict(self):
        return {
            "location": [float(v) for v in self.location],
            "eigenvalues": [[float(e.real), float(e.imag)] for e in self.eigenvalues],
            "is_hyperbolic": self.is_hyperbolic,
            "index": self.index,
            "lorenz_like": self.lorenz_like,
            "active": self.active,
            "splitting_dims": list(self.splitting_dims) if self.splitting_dims else None,
            "center_alternates": [float(v) for v in self.center_alternates],
        }


def _lorenz_like_split(eigs):
    """Try to split the spectrum as strong-stable + 1-d real center +
    strong-unstable with |center| dominated by both extreme blocks.

    Returns (lorenz_like, dims, chosen_center, alternates)."""
    real_mask = np.abs(eigs.imag) < 1e-10
    candidates = []
    for i in np.where(real_mask)[0]:
        lam_c = eigs[i].real
        rest = np.delete(eigs, i)
        stable = rest[rest.real < 0]
        unstable = rest[rest.real > 0]
        if len(stable) + len(unstable) != len(rest):
            continue  # another eigenvalue sits on the axis
        if len(stable) == 0 or len(unstable) == 0:
            continue  # genuine three-block structure required
        lam_s = np.max(stable.real)
        lam_u = np.min(unstable.real)
        if abs(lam_c) < min(-lam_s, lam_u):
            candidates.append((abs(lam_c), lam_c, len(stable), len(unstable)))
    if not candidates:
        return False, None, None, []
    candidates.sort()
    _, lam_c, d_ss, d_uu = candidates[0]
    alternates = [c[1] for c in candidates[1:]]
    return True, (d_ss, 1, d_uu), lam_c, alternates


def _grow_manifold(model, sigma, direction, forward, trapping, ball_radius,
                   arc_budget, step_ctrl):
    """Grow a 1-d local invariant manifold along an eigendirection and
    test whether it reaches the trapping region minus a ball around the
    equilibrium.  Returns 'yes' when it does while staying inside the
    region, 'undetermined' otherwise.

    The probe reads only states, so it runs in 1-unit segments of
    state-only steps (`dp5_steps(..., tangent=False)`).  A state whose
    norm exceeds that of the farthest corner of the (slackened) region
    lies outside it, so the probe is integrated with that norm as its
    blowup bound: it stops where the verdict is fixed instead of running
    on under a field that may blow up."""
    work = model
    if not forward:
        work = VectorFieldModel(
            name=model.name + "_rev", dim=model.dim, params=model.params,
            eval=lambda x: -model.eval(x),
            jacobian=lambda x: -model.jacobian(x),
            eval_batch=lambda states: -model.eval_batch(states),
            jacobian_batch=lambda states: -model.jacobian_batch(states),
        )
    lo, hi = trapping[:, 0] - 1e-9, trapping[:, 1] + 1e-9
    corner = np.maximum(np.abs(lo), np.abs(hi))
    ctrl = step_ctrl or StepControl()
    ctrl = replace(ctrl, bound=min(ctrl.bound, float(np.linalg.norm(corner))))
    x = sigma + 1e-6 * direction
    arc = 0.0
    reached = False
    for _ in range(200):
        try:
            states = np.array([x] + [y5[:, 0] for _, y5 in
                                     dp5_steps(work, x, 1.0, ctrl, tangent=False)])
        except Blowup:
            return "undetermined"
        seg = np.linalg.norm(np.diff(states, axis=0), axis=1)
        arc += float(np.sum(seg))
        inside = np.all((states >= lo) & (states <= hi))
        if not inside:
            return "undetermined"
        if np.max(np.linalg.norm(states - sigma, axis=1)) > ball_radius:
            reached = True
        if reached and arc > 10 * ball_radius:
            return "yes"
        if arc > arc_budget:
            return "undetermined"
        x = states[-1]
    return "undetermined"


def classify_singularity(model: VectorFieldModel, sigma,
                         arc_budget: float = 1e3,
                         step_ctrl=None) -> SingularityAnalysis:
    """Eigenstructure and Lorenz-like classification of an equilibrium.

    `sigma` is Newton-refined first; raises NotAnEquilibrium when the
    residual stays above 1e-8.  The `active` flag is probed by growing
    local stable/unstable curves along the real eigendirections with a
    finite arc-length budget and testing re-entry into the trapping
    region away from the equilibrium; 'undetermined' is returned
    whenever the budget is exhausted without a decision.
    """
    sigma = np.asarray(sigma, dtype=float)
    seed = sigma.copy()
    try:
        sigma = refine_equilibrium(model, sigma, residual=1e-12)
    except NotAnEquilibrium:
        if np.linalg.norm(model.eval(sigma)) > 1e-8:
            raise
    # refinement must polish the seed, not hop to another basin
    drift = np.linalg.norm(sigma - seed) / (1.0 + np.linalg.norm(seed))
    if drift > 0.05:
        raise NotAnEquilibrium(
            f"seed is not near an equilibrium (Newton drifted {drift:.2e})"
        )
    j = model.jacobian(sigma)
    eigs, vecs = np.linalg.eig(j)
    order = np.argsort(eigs.real + 1e-12 * eigs.imag)
    eigs = eigs[order]
    vecs = vecs[:, order]

    is_hyp = bool(np.min(np.abs(eigs.real)) > 1e-8)
    index = int(np.sum(eigs.real < 0))
    lorenz_like, dims, _center, alternates = _lorenz_like_split(eigs)

    active = "undetermined"
    if not is_hyp:
        active = "no"
    elif model.trapping_region is not None:
        box = np.asarray(model.trapping_region, dtype=float)
        ball = 0.05 * float(np.max(box[:, 1] - box[:, 0]))
        sides = {"stable": False, "unstable": False}
        for i, lam in enumerate(eigs):
            if abs(lam.imag) > 1e-10:
                continue
            forward = lam.real > 0
            side = "unstable" if forward else "stable"
            if sides[side]:
                continue
            v = np.real(vecs[:, i])
            v = v / np.linalg.norm(v)
            for direction in (v, -v):
                got = _grow_manifold(model, sigma, direction, forward, box,
                                     ball, arc_budget, step_ctrl)
                if got == "yes":
                    sides[side] = True
                    break
        if sides["stable"] and sides["unstable"]:
            active = "yes"

    return SingularityAnalysis(
        location=sigma,
        eigenvalues=eigs,
        is_hyperbolic=is_hyp,
        index=index,
        lorenz_like=lorenz_like,
        active=active,
        splitting_dims=dims,
        center_alternates=alternates,
    )


# ----------------------------------------------------------------------
# expansion functionals on the center-unstable bundle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalResult:
    """Windowed rate statistic: mean/min/max over the sampled windows."""

    rate: float
    min_rate: float
    max_rate: float
    window: float
    n_samples: int


def _tau_windows(times, tau, n_samples):
    """Index pairs (i, j) of time-tau windows from n_samples starts spread
    over the grid; each window ends at the last grid time within tau of
    its (grid-snapped) start, and windows shorter than one block are
    dropped."""
    starts = np.linspace(times[0], times[-1] - tau, n_samples)
    i = np.searchsorted(times, starts, side="left")
    j = np.searchsorted(times, times[i] + tau, side="right") - 1
    keep = j > i
    return i[keep], j[keep]


def _plane_grid(d, n_planes):
    """Deterministic sample of 2-planes in R^d: all coordinate pairs plus
    seeded generic frames up to n_planes."""
    planes = []
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((d, 2))
            m[a, 0] = 1.0
            m[b, 1] = 1.0
            planes.append(m)
    rng = np.random.default_rng(PLANE_SEED)
    while len(planes) < n_planes:
        q, _ = qr_pos(rng.standard_normal((d, 2)))
        planes.append(q)
    return planes


def _min_plane_log_det(mats, log_scales, planes):
    """Smallest log |det| of the restriction of each matrix to a 2-plane.

    The exact minimizer is the plane of the two smallest right singular
    vectors (the bottom singular 2-vector of the second compound is
    decomposable); the sampled plane grid is kept as an independent
    cross-check and can only agree or exceed it.
    """
    s = np.linalg.svd(mats, compute_uv=False)
    best = np.log(s[:, -1]) + np.log(s[:, -2]) + 2 * log_scales
    if planes is not None:
        sv = np.linalg.svd(mats[:, None] @ np.stack(planes), compute_uv=False)
        grid = np.log(sv[..., 0]) + np.log(sv[..., 1]) + 2 * log_scales[:, None]
        best = np.minimum(best, grid.min(axis=1))
    return best


def _window_summary(rates, window):
    return FunctionalResult(float(rates.mean()), float(rates.min()),
                            float(rates.max()), window, len(rates))


def sectional_expansion_functional(seq: SplittingSequence,
                                   window: float) -> FunctionalResult:
    """Windowed min-over-2-planes determinant rate inside E^cu.

    For d_cu = 2 there is a single plane; otherwise the minimum runs
    over the exact bottom singular pair plus a deterministic plane grid
    of >= N_PLANES.  Uniform sectional expansion holds on the sample
    iff min_rate >= +1e-3.
    """
    times = seq.times
    planes = None if seq.d_cu == 2 else _plane_grid(seq.d_cu, N_PLANES)
    i, j = span_windows(times, [min(window, times[-1] - times[0])], SECT_STARTS)
    mats, ls = window_products(seq.Rcu, i, j)
    rates = _min_plane_log_det(mats, ls, planes) / (times[j] - times[i])
    return _window_summary(rates, window)


def volume_expansion_functional(seq: SplittingSequence,
                                window: float) -> FunctionalResult:
    """Windowed log |det| rate of the cocycle restricted to E^cu."""
    times = seq.times
    i, j = span_windows(times, [min(window, times[-1] - times[0])], SECT_STARTS)
    mats, ls = window_products(seq.Rcu, i, j)
    logdet = np.linalg.slogdet(mats)[1]
    return _window_summary((logdet + seq.d_cu * ls) / (times[j] - times[i]), window)


def ash_functional(seq: SplittingSequence) -> float:
    """Running max over increasing horizons of the min-plane determinant
    rate from the start of the valid range (pointwise asymptotic
    expansion proxy)."""
    times = seq.times
    total = times[-1] - times[0]
    planes = None if seq.d_cu == 2 else _plane_grid(seq.d_cu, N_PLANES)
    horizons = np.geomspace(total / 64.0, total, ASH_HORIZONS)
    j = np.searchsorted(times, times[0] + horizons, side="right") - 1
    j = j[j > 0]
    mats, ls = window_products(seq.Rcu, np.zeros_like(j), j)
    rates = _min_plane_log_det(mats, ls, planes) / (times[j] - times[0])
    return float(np.max(rates, initial=-np.inf))


def mnuse_functional(seq: SplittingSequence, tau: float,
                     n_samples: int = 200) -> float:
    """Per-unit-time average of log ||[wedge^2 (time-tau cocycle | E^cu)]^{-1}||
    along the orbit, the mostly-nonuniform sectional expansion statistic.

    The integral over window starts is approximated by uniform sampling
    on the checkpoint grid; each sample restricts the cocycle to E^cu
    over [s, s + tau] and takes the smallest singular value of its
    second compound.  Negative values certify sectional expansion of
    the time-tau map on average.
    """
    times = seq.times
    if times[-1] - tau <= times[0]:
        raise ValueError("valid range shorter than one tau window")
    i, j = _tau_windows(times, tau, n_samples)
    return float(np.mean(_inverse_wedge_rates(seq.Rcu, times, i, j)))


def _inverse_wedge_rates(rcu, times, i, j):
    """log ||[wedge^2 (product over [i, j))]^{-1}|| per unit time."""
    mats, ls = window_products(rcu, i, j)
    sv = np.linalg.svd(wedge2_of(mats), compute_uv=False)
    return -(np.log(sv[:, -1]) + 2 * ls) / (times[j] - times[i])


def nuse_functional(lpf_cocycle, seq: SplittingSequence, tau: float) -> float:
    """Per-unit-time average of log ||(P^tau | N^cu)^{-1}|| over the orbit
    of the time-tau map, where N^cu = E^cu intersected with the normal
    space of the flow direction."""
    times = seq.times
    n_windows = int(np.floor((times[-1] - times[0]) / tau))
    if n_windows < 1:
        raise ValueError("valid range shorter than one tau window")

    # checkpoint indices closest to the tau grid
    edges = np.searchsorted(times, times[0] + np.arange(n_windows + 1) * tau,
                            side="left")
    edges = np.minimum(edges, len(times) - 1)
    ka, kb = edges[:-1], edges[1:]
    keep = kb > ka
    ka, kb = ka[keep], kb[keep]

    d_ncu = seq.d_cu - 1
    ua = _ncu_coords(lpf_cocycle, seq, ka, d_ncu)
    ub = _ncu_coords(lpf_cocycle, seq, kb, d_ncu)
    p, ls = window_products(lpf_cocycle.lpf_factors, seq.grid[ka], seq.grid[kb])
    sv = np.linalg.svd(ub.transpose(0, 2, 1) @ (p @ ua), compute_uv=False)
    # summed window by window in time order: np.sum's pairwise order
    # would move the last digits of the reported rate
    total = np.cumsum(-(np.log(sv[:, -1]) + ls))[-1]
    total_time = np.cumsum(times[kb] - times[ka])[-1]
    return float(total / total_time)


def _ncu_coords(lpf_cocycle, seq, ks, d_ncu):
    """Orthonormal coordinates of N^cu = E^cu ^ X^perp in the normal frame
    at each checkpoint of ks."""
    frames = lpf_cocycle.frames_at(seq.grid[ks])
    c = frames.transpose(0, 2, 1) @ seq.Ecu[ks]
    u, _, _ = np.linalg.svd(c, full_matrices=False)
    return u[:, :, :d_ncu]


def nne_functional(seq: SplittingSequence) -> FunctionalResult:
    """Minimal tail growth rate of 2-planes spanned by a sampled
    direction v in E^cu and the flow direction.

    The reported quantity per direction is
    (log ||Phi_T v ^ Phi_T X|| - log ||Phi_T X||) / T, a proxy for the
    Lyapunov exponent of v relative to the neutral flow direction; the
    liminf is proxied by the running inf over the last half of the
    checkpoints.  No-negative-exponents passes iff min >= -1e-3.

    Interpretation note: the wedge is taken between the pushed vector
    and the pushed flow direction (the 2-plane they span); this is
    flagged in every report that carries the statistic.
    """
    rng = np.random.default_rng(NNE_SEED)
    times = seq.times
    dirs = _checkpoint_flow_dirs(seq)

    # directions first: the flow-cone test reads checkpoint 0 only
    accepted = []
    for _ in range(10 * NNE_DIRS):
        if len(accepted) == NNE_DIRS:
            break
        coords = rng.standard_normal(seq.d_cu)
        v = seq.Ecu[0] @ (coords / np.linalg.norm(coords))
        if np.arccos(np.clip(abs(v @ dirs[0]), 0, 1)) > NNE_FLOW_CONE:
            accepted.append(v)

    # push them together, one stacked matvec per block
    w = np.reshape(accepted, (len(accepted), seq.Ecu.shape[1], 1))
    norms = np.empty((seq.n_blocks, len(accepted)))
    cos = np.empty_like(norms)
    for k in range(seq.n_blocks):
        w = seq.factors[k] @ w
        norms[k] = np.sqrt(np.vecdot(w[:, :, 0], w[:, :, 0]))
        w /= norms[k][:, None, None]
        cos[k] = np.vecdot(w[:, :, 0], dirs[k + 1])
    log_norm = np.cumsum(np.log(norms, out=norms), axis=0, out=norms)
    # Python's float ** per entry: numpy's square differs from it in the
    # last bit.  The sines, their logs and the rates share one array.
    sin_t = np.fromiter((float(c) ** 2 for c in cos.flat), float,
                        cos.size).reshape(cos.shape)
    del cos
    np.sqrt(np.maximum(0.0, np.subtract(1.0, sin_t, out=sin_t), out=sin_t),
            out=sin_t)
    t_el = (times[1:] - times[0])[:, None]
    valid = ~((sin_t <= 0) | (t_el <= 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log(sin_t, out=sin_t)
        rates += log_norm
        rates /= t_el
    tails = [r[ok][ok.sum() // 2:] for r, ok in zip(rates.T, valid.T)]
    arr = np.array([float(np.min(tail)) for tail in tails])
    return FunctionalResult(float(arr.mean()), float(arr.min()),
                            float(arr.max()), float(times[-1] - times[0]),
                            len(arr))


# ----------------------------------------------------------------------
# multisingular estimate
# ----------------------------------------------------------------------

@dataclass
class MshResult:
    """Restricted-LPF decay slopes away from the singular set; the slopes
    are NaN when fewer than two window starts qualify.  Whether they
    and the singularities make MSH pass is decided by the report."""

    ns_slope: float
    nu_slope: float
    domination_slope: float
    n_qualifying: int


def _singular_distances(orbit, model):
    """Distance of each grid state to the model's singular set."""
    if isinstance(model, SuspensionModel):
        return np.abs(orbit.states[:, 0])
    if not model.singularities:
        return np.full(orbit.states.shape[0], np.inf)
    d = np.full(orbit.states.shape[0], np.inf)
    for s in model.singularities:
        d = np.minimum(d, np.linalg.norm(orbit.states - s, axis=1))
    return d


def msh_windows(t, dist, grid, radius, avoid):
    """Fit windows for the MSH decay slopes, from starts clear of the
    singular set.

    `t` and `dist` are the sample times and each sample's distance to
    the singular set; `grid` holds the sample indices of the candidate
    window starts.  A start qualifies when every sample from it up to
    the last one at or before t + avoid lies farther than `radius` from
    the singular set, and that time is within the samples.  Up to
    MSH_STARTS qualifying starts, evenly spread, are paired with five
    spans from avoid / 10 to avoid; each window ends at the last start
    candidate within its span.

    Returns (n_qualifying, k0, k1): k0/k1 index `grid`, start-major.
    """
    tg = t[grid]
    t_end = tg + avoid
    last = np.searchsorted(t, t_end, side="right") - 1
    # next sample at or after each index that is not clear of the
    # singular set (a NaN distance is not clear)
    hit = np.where(dist > radius, len(dist), np.arange(len(dist)))
    next_hit = np.minimum.accumulate(hit[::-1])[::-1]
    qual = np.flatnonzero((t_end <= t[-1] + 1e-9) & (next_hit[grid] > last))
    n_qual = len(qual)
    if n_qual < 2:
        return n_qual, qual[:0], qual[:0]
    k0 = qual[np.linspace(0, n_qual - 1, min(MSH_STARTS, n_qual)).astype(int)]
    spans = np.linspace(avoid / 10.0, avoid, 5)
    k1 = np.searchsorted(tg, tg[k0, None] + spans, side="right") - 1
    k0 = np.repeat(k0, len(spans))
    k1 = k1.reshape(-1)
    keep = k1 > k0
    return n_qual, k0[keep], k1[keep]


def msh_estimate(lpf_cocycle, seq: SplittingSequence, radius: float,
                 avoid_window: float) -> MshResult:
    """Fit the uniform decay of the restricted linear Poincare flow away
    from the singular set.

    Qualifying window starts are checkpoints whose forward
    `avoid_window` stays at distance > radius from every singularity.
    The normal splitting N^s/N^u is inherited from the tangent
    splitting (N^s from E^s, N^u from E^cu ^ X^perp); slopes are fitted
    on log ||P^t|N^s|| and log ||P^-t|N^u||.  The singular-domination
    component reuses the same restricted factors.
    """
    orbit = seq.orbit
    times = seq.times
    d_ns = seq.d_s
    d_nu = seq.d_cu - 1

    n_qual, k0, k1 = msh_windows(orbit.times,
                                 _singular_distances(orbit, orbit.model),
                                 seq.grid, radius, avoid_window)
    if n_qual < 2:
        return MshResult(np.nan, np.nan, np.nan, n_qual)

    # restricted LPF factor streams on the checkpoint grid
    frames = lpf_cocycle.frames_at(seq.grid)
    u, _, _ = np.linalg.svd(frames.transpose(0, 2, 1) @ seq.Es,
                            full_matrices=False)
    ns_b = u[:, :, :d_ns]
    nu_b = _ncu_coords(lpf_cocycle, seq, np.arange(len(seq)), d_nu)
    p, ls = window_products(lpf_cocycle.lpf_factors, seq.grid[:-1], seq.grid[1:])
    p = p * np.exp(ls)[:, None, None]
    ns_f = ns_b[1:].transpose(0, 2, 1) @ (p @ ns_b[:-1])
    nu_f = nu_b[1:].transpose(0, 2, 1) @ (p @ nu_b[:-1])

    dt = times[k1] - times[k0]
    ln_s = log_norms(*window_products(ns_f, k0, k1))
    ln_u = log_norms(*window_products(nu_f, k0, k1), inverse=True)
    slope_s, _, _ = fit_log_rate(dt, ln_s)
    slope_u, _, _ = fit_log_rate(dt, ln_u)
    slope_d, _, _ = fit_log_rate(dt, ln_s + ln_u)
    return MshResult(float(slope_s), float(slope_u), float(slope_d), n_qual)


# ----------------------------------------------------------------------
# periodic-orbit nonuniform check
# ----------------------------------------------------------------------

@dataclass
class NushPeriodicResult:
    point: np.ndarray
    period: float
    residual: float
    e_average: float          # per-unit-time log norm on the stable side
    wedge_average: float      # per-unit-time log of the inverse compound norm
    passed: bool
    eta: float


def _refine_periodic(model, seed, period_guess, max_iter):
    """Single shooting with a phase condition; returns (point, period)."""
    x = np.asarray(seed, dtype=float)
    period = float(period_guess)
    v0 = model.eval(x)
    n = x.shape[0]
    for _ in range(max_iter):
        orbit = integrate(model, x, period)
        x_t = orbit.states[-1]
        r = x_t - x
        if np.linalg.norm(r) < PERIODIC_RESIDUAL:
            return x, period, float(np.linalg.norm(r))
        m, ls = orbit.propagator(0, orbit.n_steps)
        m = m * np.exp(ls)
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = m - np.eye(n)
        jac[:n, n] = model.eval(x_t)
        jac[n, :n] = v0
        rhs = np.concatenate([-r, [0.0]])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        # trust region on the period: |dp| <= p/2 keeps a poor Newton
        # step from sending the period (and every later integration) off
        # towards infinity
        if abs(delta[n]) > 0.5 * period:
            delta = delta * (0.5 * period / abs(delta[n]))
        lam = 1.0
        improved = False
        base = np.linalg.norm(r)
        while lam > 1e-6:
            xn = x + lam * delta[:n]
            pn = period + lam * delta[n]
            if pn <= 0:
                lam *= 0.5
                continue
            rn = integrate(model, xn, pn).states[-1] - xn
            if np.linalg.norm(rn) < base:
                x, period = xn, pn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    orbit = integrate(model, x, period)
    res = float(np.linalg.norm(orbit.states[-1] - x))
    if res >= PERIODIC_RESIDUAL:
        raise NotPeriodic(f"shooting stalled at residual {res:.3e}")
    return x, period, res


def _equilibrium_nush(model, sigma, tau, d_s):
    """Equilibrium clause: averages from the time-tau linearized map.

    The exponential is taken of the generator restricted to each
    invariant block, never of the full Jacobian, so the strongly
    expanding directions cannot contaminate the stable-side norm
    through roundoff.
    """
    from .util import expm_small

    j = model.jacobian(sigma)
    eigs, vecs = np.linalg.eig(j)
    order = np.argsort(eigs.real)
    eigs, vecs = eigs[order], vecs[:, order]

    def real_basis(cols):
        m = np.hstack([np.real(vecs[:, cols]), np.imag(vecs[:, cols])])
        q, r = np.linalg.qr(m)
        keep = np.abs(np.diag(r)) > 1e-12
        return q[:, keep]

    es = real_basis(list(range(d_s)))
    f = real_basis(list(range(d_s, len(eigs))))
    exp_e = expm_small(tau * (es.T @ j @ es))
    e_avg = float(np.log(np.linalg.norm(exp_e, 2)) / tau)
    exp_f = expm_small(tau * (f.T @ j @ f))
    w = wedge2_of(exp_f) if exp_f.shape[0] > 1 else exp_f
    sv = np.linalg.svd(w, compute_uv=False)
    wedge_avg = float(-np.log(sv[-1]) / tau)
    return e_avg, wedge_avg


def nush_periodic_check(model, seed, period_guess, tau: float = 1.0,
                        d_s: int = 1, eta: float = -0.05,
                        max_iter: int = 60) -> NushPeriodicResult:
    """Period-averaged nonuniform hyperbolicity integrals on a closed orbit.

    Refines the orbit by shooting (residual < 1e-10), builds the
    invariant splitting from multi-period sweeps, and averages the
    time-tau restricted log norms around the orbit: the stable-side
    norm and the inverse norm of the second compound on the
    center-unstable side.  Both must be <= eta < 0 to pass.

    A seed within 1e-8 of an equilibrium is handled by the linearized
    time-tau map instead.
    """
    seed = np.asarray(seed, dtype=float)
    if np.linalg.norm(model.eval(seed)) <= 1e-8:
        e_avg, w_avg = _equilibrium_nush(model, seed, tau, d_s)
        return NushPeriodicResult(seed, 0.0, 0.0, e_avg, w_avg,
                                  bool(e_avg <= eta and w_avg <= eta), eta)

    x, period, res = _refine_periodic(model, seed, period_guess, max_iter)
    # cover enough periods for the splitting sweeps to converge
    reps = max(4, int(np.ceil(3.0 * tau / period)) + 3)
    orbit = integrate(model, x, reps * period)
    warmup = max(period, tau)
    seq = estimate_splitting(orbit, d_s=d_s, warmup=warmup, stride=2)

    times = seq.times
    i, j = _tau_windows(times, tau, 64)
    evals = log_norms(*window_products(seq.Rs, i, j)) / (times[j] - times[i])
    wvals = _inverse_wedge_rates(seq.Rcu, times, i, j)
    e_avg, w_avg = float(np.mean(evals)), float(np.mean(wvals))
    return NushPeriodicResult(x, period, res, e_avg, w_avg,
                              bool(e_avg <= eta and w_avg <= eta), eta)
