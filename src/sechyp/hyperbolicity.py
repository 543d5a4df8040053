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
from .flowcalc import StepControl, dp5_steps, integrate
from .models import (SuspensionModel, VectorFieldModel, refine_equilibrium)
from .splitting import (SplittingSequence, _checkpoint_flow_dirs, estimate_splitting,
                        span_windows)
from .util import (expm_small, fit_log_rate, log_norms, log_svals, longest_first,
                   member_products, member_split, window_products)

# Window starts of the windowed sectional and volume functionals.
SECT_STARTS = 10

# Window starts of the MNUSE functional.
MNUSE_SAMPLES = 200

# Horizons of the running-max (ASH) functionals, geometrically spaced.
ASH_HORIZONS = 24

# Directions of E^cu that the NNE functional pushes, the angle (rad) to
# the flow direction below which a draw is rejected, and the draw seed.
NNE_DIRS = 8
NNE_FLOW_CONE = 1e-2
NNE_SEED = 90117

# Qualifying window starts of the MSH fits.
MSH_STARTS = 6

# Shooting residual below which a periodic orbit counts as closed.
PERIODIC_RESIDUAL = 1e-10
# Radius of the ball around its start that a closed orbit must leave: an
# orbit that stays inside it closes to the residual whatever its start.
PERIODIC_BALL = 1e3 * PERIODIC_RESIDUAL

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


def tau_windows(times, tau, n_samples=MNUSE_SAMPLES):
    """Index pairs (i, j) of time-tau windows from n_samples starts spread
    over the grid; each window ends at the last grid time within tau of
    its (grid-snapped) start, and windows shorter than one block are
    dropped."""
    starts = np.linspace(times[0], times[-1] - tau, n_samples)
    i = np.searchsorted(times, starts, side="left")
    j = np.searchsorted(times, times[i] + tau, side="right") - 1
    keep = j > i
    return i[keep], j[keep]


def sect_windows(seq: SplittingSequence, window: float):
    """Index pairs (i, j) of the sectional and volume windows: SECT_STARTS
    starts of windows of the given span, or of the whole valid range
    when that is shorter (see `span_windows`)."""
    times = seq.times
    return span_windows(times, [min(window, times[-1] - times[0])], SECT_STARTS)


def _nuse_windows(seq: SplittingSequence, tau: float):
    """Index pairs (ka, kb) of the consecutive time-tau windows of NUSE:
    the checkpoints closest to the tau grid from the start of the valid
    range, without the windows shorter than one block."""
    times = seq.times
    n_windows = int(np.floor((times[-1] - times[0]) / tau))
    if n_windows < 1:
        raise ValueError("valid range shorter than one tau window")
    edges = np.searchsorted(times, times[0] + np.arange(n_windows + 1) * tau,
                            side="left")
    edges = np.minimum(edges, len(times) - 1)
    ka, kb = edges[:-1], edges[1:]
    keep = kb > ka
    return ka[keep], kb[keep]


def _plane_log_dets(lsv, log_scales):
    """Smallest log |det| of each window product's restriction to a
    2-plane, from its log singular values `lsv` (see `util.log_svals`):
    the plane of the two smallest right singular vectors (the bottom
    singular 2-vector of the second compound is decomposable)."""
    return lsv[:, -1] + lsv[:, -2] + 2 * log_scales


def _window_summary(rates, window):
    return FunctionalResult(float(rates.mean()), float(rates.min()),
                            float(rates.max()), window, len(rates))


# ----------------------------------------------------------------------
# multisingular estimate: window starts
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


def msh_fit(dt, log_s, log_u, n_qualifying) -> MshResult:
    """The MSH decay slopes fitted over windows of spans `dt`: of the log
    norms `log_s` on N^s, of the log inverse norms `log_u` on N^u, and of
    their sum (the singular domination).  NaN slopes when there is no
    window."""
    if not len(dt):
        return MshResult(np.nan, np.nan, np.nan, n_qualifying)
    slope_s, _, _ = fit_log_rate(dt, log_s)
    slope_u, _, _ = fit_log_rate(dt, log_u)
    slope_d, _, _ = fit_log_rate(dt, log_s + log_u)
    return MshResult(slope_s, slope_u, slope_d, n_qualifying)


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
    They are empty when fewer than 2 starts qualify, and when no span
    ends past its start; a member with no fit window is not fitted, and
    its slopes read NaN.
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


# ----------------------------------------------------------------------
# the functionals of a batch of members
# ----------------------------------------------------------------------

class Functionals:
    """The flow functionals of a batch of members, evaluated together.

    `seqs` are the members' splitting sequences (of one dimension and
    one d_s) and `lpfs` per member its LPF over the splitting blocks
    (`LPFCocycle.blocks(seq.grid)`: its block factors and its normal
    frames at the checkpoints), which only `nuse` and `msh` read.  The
    constructor forms from the frames each member's orthonormal
    coordinates of N^s and N^cu = E^cu ^ X^perp at its checkpoints: the
    left singular vectors of E^s there, and the first d_cu - 1 of E^cu.
    Each method evaluates one functional over every member and returns
    its per-member results.  The windows it reads are formed in one
    `util.member_products` call per factor stream (`Rs`, `Rcu`, the LPF
    block factors or their restrictions), and each linear-algebra step
    on the products is one stacked call over all members; every result
    is bit for bit the member's alone.  The E^cu functionals (SH with
    SingularHyp's volume, ASH, MNUSE) are sums of the log singular values
    of `Rcu` window products (`util.log_svals`): the bottom two for a
    2-plane, all d_cu for the volume.  The one-member forms below (`mnuse_functional` and
    the rest) are a Functionals of that member.

    A member cannot fail here once its windows pass the report's check
    (`report._check_windows`): its factors are finite, since
    `splitting.splittings_of_blocks` rejects a member with a non-finite
    block.
    """

    def __init__(self, seqs, lpfs=()):
        self.seqs = list(seqs)
        self.lpf_blocks, self.ns, self.ncu = [], [], []
        for seq, (blocks, frames) in zip(self.seqs, lpfs):
            frames_t = frames.transpose(0, 2, 1)
            ns, _, _ = np.linalg.svd(frames_t @ seq.Es, full_matrices=False)
            ncu, _, _ = np.linalg.svd(frames_t @ seq.Ecu, full_matrices=False)
            self.lpf_blocks.append(blocks)
            self.ns.append(ns)
            self.ncu.append(ncu[:, :, :seq.d_cu - 1])

    def _rcu(self, windows):
        """The log singular values and log scales of the members' `Rcu`
        window products (see `util.log_svals`), and the windows' spans."""
        mats, ls = member_products([seq.Rcu for seq in self.seqs], windows)
        spans = np.concatenate([seq.times[j] - seq.times[i]
                                for seq, (i, j) in zip(self.seqs, windows)])
        return log_svals(mats), ls, spans

    def sectional(self, window):
        """Per member its (`sectional_expansion_functional`,
        `volume_expansion_functional`): the bottom-two and the full sums of
        the log singular values of the same windows."""
        windows = [sect_windows(seq, window) for seq in self.seqs]
        lsv, ls, spans = self._rcu(windows)
        sect = _plane_log_dets(lsv, ls) / spans
        vol = (lsv.sum(axis=1) + self.seqs[0].d_cu * ls) / spans
        return [(_window_summary(s, window), _window_summary(v, window)) for s, v
                in zip(member_split(sect, windows), member_split(vol, windows))]

    def ash(self):
        """Per member its `ash_functional`."""
        windows = []
        for seq in self.seqs:
            times = seq.times
            total = times[-1] - times[0]
            horizons = np.geomspace(total / 64.0, total, ASH_HORIZONS)
            j = np.searchsorted(times, times[0] + horizons, side="right") - 1
            j = j[j > 0]
            windows.append((np.zeros_like(j), j))
        lsv, ls, spans = self._rcu(windows)
        rates = _plane_log_dets(lsv, ls) / spans
        return [float(np.max(r, initial=-np.inf)) for r in member_split(rates, windows)]

    def mnuse(self, tau, n_samples=MNUSE_SAMPLES):
        """Per member its `mnuse_functional`."""
        windows = []
        for seq in self.seqs:
            times = seq.times
            if times[-1] - tau <= times[0]:
                raise ValueError("valid range shorter than one tau window")
            windows.append(tau_windows(times, tau, n_samples))
        lsv, ls, spans = self._rcu(windows)
        rates = -_plane_log_dets(lsv, ls) / spans
        return [float(np.mean(r)) for r in member_split(rates, windows)]

    def nuse(self, tau):
        """Per member its `nuse_functional`."""
        windows = [_nuse_windows(seq, tau) for seq in self.seqs]
        p, ls = member_products(self.lpf_blocks, windows)
        ua = np.concatenate([u[ka] for u, (ka, _) in zip(self.ncu, windows)])
        ub = np.concatenate([u[kb] for u, (_, kb) in zip(self.ncu, windows)])
        logs = log_norms(ub.transpose(0, 2, 1) @ (p @ ua), ls, inverse=True)
        out = []
        for seq, (ka, kb), lg in zip(self.seqs, windows, member_split(logs, windows)):
            # summed window by window in time order: np.sum's pairwise
            # order would move the last digits of the reported rate
            total_time = np.cumsum(seq.times[kb] - seq.times[ka])[-1]
            out.append(float(np.cumsum(lg)[-1] / total_time))
        return out

    def msh(self, radius, avoid_window):
        """Per member its `msh_estimate`: every block's LPF factor is
        restricted to N^s and N^cu, and the fit windows index the blocks."""
        fits = [msh_windows(seq.orbit.times,
                            _singular_distances(seq.orbit, seq.orbit.model),
                            seq.grid, radius, avoid_window) for seq in self.seqs]
        ns_f, nu_f = [], []
        for p, *bases in zip(self.lpf_blocks, self.ns, self.ncu):
            for f, b in zip((ns_f, nu_f), bases):
                f.append(b[1:].transpose(0, 2, 1) @ (p @ b[:-1]))
        windows = [fit[1:] for fit in fits]
        ln_s = log_norms(*member_products(ns_f, windows))
        ln_u = log_norms(*member_products(nu_f, windows), inverse=True)
        return [msh_fit(seq.times[k1] - seq.times[k0], s, u, n_qual)
                for seq, (n_qual, k0, k1), s, u
                in zip(self.seqs, fits, member_split(ln_s, windows),
                       member_split(ln_u, windows))]

    def nne(self):
        """Per member its `nne_functional`: the members' directions are
        pushed together, one stacked matvec per block over the members
        still open (`util.longest_first`), and each direction's rate at
        each checkpoint is formed as it is reached."""
        seqs = self.seqs
        flow = [_checkpoint_flow_dirs(seq) for seq in seqs]
        accepted = [_nne_directions(seq, dirs[0]) for seq, dirs in zip(seqs, flow)]
        order, n_open = longest_first([seq.n_blocks for seq in seqs])
        members = [seqs[m] for m in order]
        counts = [len(accepted[m]) for m in order]
        firsts = np.cumsum([0] + counts)
        # per direction, member-major in that order: the flow direction
        # and the time elapsed at each checkpoint after the first
        at = np.repeat(np.cumsum([0] + [seq.n_blocks for seq in members])[:-1],
                       counts)
        dirs = np.concatenate([flow[m][1:] for m in order])
        elapsed = np.concatenate([seq.times[1:] - seq.times[0] for seq in members])
        del flow
        n = dirs.shape[1]
        w = np.reshape([v for m in order for v in accepted[m]], (firsts[-1], n, 1))
        rates = np.empty((len(n_open), firsts[-1]))
        valid = np.empty(rates.shape, dtype=bool)
        log_norm = np.zeros(firsts[-1])
        for k, m in enumerate(n_open.tolist()):
            d = firsts[m]
            blocks = np.stack([seq.factors[k] for seq in members[:m]])
            w[:d] = np.repeat(blocks, counts[:m], axis=0) @ w[:d]
            norms = np.sqrt(np.vecdot(w[:d, :, 0], w[:d, :, 0]))
            w[:d] /= norms[:, None, None]
            cos = np.vecdot(w[:d, :, 0], dirs[at[:d] + k])
            # summed block by block, as a cumsum down the blocks would
            log_norm[:d] += np.log(norms)
            rates[k, :d], valid[k, :d] = _nne_rates(cos, log_norm[:d],
                                                    elapsed[at[:d] + k])
        out = [None] * len(seqs)
        for m, seq, a, b in zip(order, members, firsts[:-1], firsts[1:]):
            tails = [r[ok][ok.sum() // 2:] for r, ok in
                     zip(rates[:seq.n_blocks, a:b].T, valid[:seq.n_blocks, a:b].T)]
            arr = np.array([float(np.min(tail)) for tail in tails])
            out[m] = FunctionalResult(float(arr.mean()), float(arr.min()),
                                      float(arr.max()),
                                      float(seq.times[-1] - seq.times[0]), len(arr))
        return out


def _nne_directions(seq, flow_dir):
    """The NNE_DIRS seeded unit directions of E^cu at checkpoint 0 that
    lie outside the flow cone, from at most 10 * NNE_DIRS draws."""
    rng = np.random.default_rng(NNE_SEED)
    accepted = []
    for _ in range(10 * NNE_DIRS):
        if len(accepted) == NNE_DIRS:
            break
        coords = rng.standard_normal(seq.d_cu)
        v = seq.Ecu[0] @ (coords / np.linalg.norm(coords))
        if np.arccos(np.clip(abs(v @ flow_dir), 0, 1)) > NNE_FLOW_CONE:
            accepted.append(v)
    return accepted


def _nne_rates(cos, log_norm, elapsed):
    """NNE's rates of pushed directions at one checkpoint, from their
    cosines to the flow direction there, their summed log norms and the
    time elapsed, and whether each rate is valid (a positive sine and
    elapsed time)."""
    # Python's float ** per entry: numpy's square differs from it in the
    # last bit.  The sines, their logs and the rates share one array.
    sin_t = np.fromiter((float(c) ** 2 for c in cos), float, len(cos))
    np.sqrt(np.maximum(0.0, np.subtract(1.0, sin_t, out=sin_t), out=sin_t),
            out=sin_t)
    valid = ~((sin_t <= 0) | (elapsed <= 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log(sin_t, out=sin_t)
        rates += log_norm
        rates /= elapsed
    return rates, valid


# ----------------------------------------------------------------------
# the functionals of one member
# ----------------------------------------------------------------------

def sectional_expansion_functional(seq: SplittingSequence,
                                   window: float) -> FunctionalResult:
    """Windowed min-over-2-planes determinant rate inside E^cu.

    For d_cu = 2 there is a single plane; otherwise the minimum is the
    exact one of the bottom singular pair.  Uniform sectional expansion
    holds on the sample iff min_rate >= +1e-3.
    """
    return Functionals([seq]).sectional(window)[0][0]


def volume_expansion_functional(seq: SplittingSequence,
                                window: float) -> FunctionalResult:
    """Windowed log |det| rate of the cocycle restricted to E^cu."""
    return Functionals([seq]).sectional(window)[0][1]


def ash_functional(seq: SplittingSequence) -> float:
    """Running max over increasing horizons of the min-plane determinant
    rate from the start of the valid range (pointwise asymptotic
    expansion proxy)."""
    return Functionals([seq]).ash()[0]


def mnuse_functional(seq: SplittingSequence, tau: float,
                     n_samples: int = MNUSE_SAMPLES) -> float:
    """Per-unit-time average of log ||[wedge^2 (time-tau cocycle | E^cu)]^{-1}||
    along the orbit, the mostly-nonuniform sectional expansion statistic.

    The integral over window starts is approximated by uniform sampling
    on the checkpoint grid; each sample restricts the cocycle to E^cu
    over [s, s + tau] and takes the smallest singular value of its
    second compound, which is the product of its own two smallest.
    Negative values certify sectional expansion of the time-tau map on
    average.
    """
    return Functionals([seq]).mnuse(tau, n_samples)[0]


def nuse_functional(lpf_cocycle, seq: SplittingSequence, tau: float) -> float:
    """Per-unit-time average of log ||(P^tau | N^cu)^{-1}|| over the orbit
    of the time-tau map, where N^cu = E^cu intersected with the normal
    space of the flow direction."""
    return Functionals([seq], [lpf_cocycle.blocks(seq.grid)]).nuse(tau)[0]


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
    return Functionals([seq]).nne()[0]


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
    lpf = lpf_cocycle.blocks(seq.grid)
    return Functionals([seq], [lpf]).msh(radius, avoid_window)[0]


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
            _check_leaves_start(orbit, x)
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
    _check_leaves_start(orbit, x)
    return x, period, res


def _check_leaves_start(orbit, x):
    """Raise NotPeriodic when an orbit from x never leaves the ball of
    PERIODIC_BALL around x: its closing then shows no periodic orbit."""
    if np.linalg.norm(orbit.states - x, axis=1).max() <= PERIODIC_BALL:
        raise NotPeriodic(f"the orbit over period {orbit.t_span:.3g} stays within "
                          f"{PERIODIC_BALL:g} of its start")


def _equilibrium_nush(model, sigma, tau, d_s):
    """Equilibrium clause: averages from the time-tau linearized map.

    The exponential is taken of the generator restricted to each
    invariant block, never of the full Jacobian, so the strongly
    expanding directions cannot contaminate the stable-side norm
    through roundoff.
    """
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
    (lsv_e,) = log_svals(expm_small(tau * (es.T @ j @ es))[None])
    (lsv_f,) = log_svals(expm_small(tau * (f.T @ j @ f))[None])
    # the inverse norm of the second compound (of the map itself in 1-d)
    return float(lsv_e[0] / tau), float(-lsv_f[-2:].sum() / tau)


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
    i, j = tau_windows(times, tau, 64)
    evals = log_norms(*window_products(seq.Rs, i, j)) / (times[j] - times[i])
    e_avg, w_avg = float(np.mean(evals)), mnuse_functional(seq, tau, 64)
    return NushPeriodicResult(x, period, res, e_avg, w_avg,
                              bool(e_avg <= eta and w_avg <= eta), eta)
