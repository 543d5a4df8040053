"""Linear Poincare flow on normal bundles, and cross-section machinery.

Along a regular orbit the normal space N_x = X(x)^perp carries the
cocycle P^t = O_{X_t x} . DX_t(x), the tangent flow followed by
orthogonal projection off the flow direction.  Frames of N_x are
propagated by projecting the previous basis and re-orthonormalizing,
which avoids spurious rotations in the per-step factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NearSingularity, NoReturn, SingularPoint, TangencyWarning
from .flowcalc import TIME_RESOLUTION, OrbitSegment, dp5_steps
from .models import SuspensionModel
from .util import longest_first, orthonormal_complement, qr_pos, scaled_product, unit

# Flow speed at or below which an orbit counts as at a singularity,
# where the normal bundle and so the LPF are undefined.
SPEED_FLOOR = 1e-8

# A section crossing is located once its Newton correction or bracket
# falls to REFINE_TOL in time, within REFINE_ITERS iterations.
REFINE_TOL = 1e-12
REFINE_ITERS = 100


@dataclass
class LPFCocycle:
    """Linear Poincare flow factors along a regular orbit.

    lpf_factors[k] expresses P^{dt_k} from frame k coordinates to frame
    k+1 coordinates; factors compose over concatenated steps.  `frames`
    holds the normal frames at the orbit grid indices `frame_grid`
    (every index unless the transport kept fewer).
    """

    orbit: OrbitSegment
    frame_grid: np.ndarray     # (F,) ascending orbit grid indices
    frames: np.ndarray         # (F, n, n-1)
    lpf_factors: np.ndarray    # (K, n-1, n-1)

    @property
    def n_steps(self):
        return self.lpf_factors.shape[0]

    def frames_at(self, idx):
        """Normal frames at orbit grid indices idx, each of them kept."""
        pos = np.searchsorted(self.frame_grid, idx)
        if not np.array_equal(self.frame_grid.take(pos, mode="clip"), idx):
            raise ValueError("no frame kept at some of the grid indices")
        return self.frames[pos]

    def propagator(self, i, j):
        """Composed LPF factor over grid indices [i, j] as (matrix, log_scale)."""
        return scaled_product(self.lpf_factors, i, j)


def lpf_along(orbit: OrbitSegment,
              frame_seed: Optional[int] = None) -> LPFCocycle:
    """Per-step linear Poincare flow factors in transported normal frames.

    Raises NearSingularity when the flow speed drops to SPEED_FLOOR
    anywhere on the grid; the cocycle is undefined at singularities and
    unreliable arbitrarily close to them.

    `frame_seed` rotates the initial normal frame by a seeded
    orthogonal matrix; any admissible frame family leaves the composed
    factors orthogonally equivalent, so singular values over any span
    are frame-independent.

    Works for suspension orbits too: there the flow direction is the
    constant vertical coordinate and the normal space is the section
    plane itself.
    """
    (lpf,) = lpf_alongs([orbit], frame_seed)
    if isinstance(lpf, Exception):
        raise lpf
    return lpf


# transport steps whose inputs are gathered from the members at once
_CHUNK = 64


def lpf_alongs(orbits, frame_seed: Optional[int] = None,
               frame_stride: int = 1) -> list:
    """`lpf_along` of each orbit in a list (all of one dimension), as one
    transport: per member its LPFCocycle, bit for bit, or the
    NearSingularity `lpf_along` raises on it.

    Members run longest first, so the ones still open at step k are a
    prefix, and each step is one stacked matmul and one stacked QR over
    them.  Frames are kept at every `frame_stride`-th grid index and the
    last one.
    """
    out = [None] * len(orbits)
    live = []
    for b, orbit in enumerate(orbits):
        try:
            _check_speed(orbit)
            live.append(b)
        except NearSingularity as exc:
            out[b] = exc
    if not live:
        return out
    order, n_open = longest_first([orbits[b].n_steps for b in live])
    members = [orbits[live[i]] for i in order]
    sizes = [orbit.n_steps for orbit in members]
    n_open = n_open.tolist()
    n = members[0].states.shape[1]
    if frame_seed is not None:
        rot, _ = qr_pos(np.random.default_rng(frame_seed)
                        .standard_normal((n - 1, n - 1)))
    grids, frames, factors = [], [], []
    q = np.empty((len(members), n, n - 1))
    for i, (orbit, size) in enumerate(zip(members, sizes)):
        grid = np.arange(0, size + 1, frame_stride)
        if grid[-1] != size:
            grid = np.append(grid, size)
        grids.append(grid)
        frames.append(np.empty((len(grid), n, n - 1)))
        factors.append(np.empty((size, n - 1, n - 1)))
        q[i] = orthonormal_complement(_unit_flow(orbit, 0, 1)[0])
        if frame_seed is not None:
            q[i] = q[i] @ rot
        frames[i][0] = q[i]

    # per chunk of steps: each open member's step factors and unit flow
    # directions at the step ends in; its LPF factors and frames out
    steps = np.empty((len(members), _CHUNK, n, n))
    dirs = np.empty((len(members), _CHUNK, n))
    made = np.empty((len(members), _CHUNK, n - 1, n - 1))
    moved = np.empty((len(members), _CHUNK, n, n - 1))
    for lo in range(0, sizes[0], _CHUNK):
        hi = min(lo + _CHUNK, sizes[0])
        spans = [min(hi, size) - lo for size in sizes[:n_open[lo]]]
        for i, span in enumerate(spans):
            steps[i, :span] = members[i].step_cocycles[lo:lo + span]
            dirs[i, :span] = _unit_flow(members[i], lo + 1, lo + 1 + span)
        for k in range(lo, hi):
            # transport the previous basis, project off the new flow
            # direction, re-orthonormalize; the sign-fixed QR maximizes
            # overlap with the transported basis (no sign flips).
            m, j = n_open[k], k - lo
            w = steps[:m, j] @ q[:m]
            d = dirs[:m, j]
            q, _ = qr_pos(w - d[:, :, None] * (d[:, None, :] @ w))
            moved[:m, j] = q
            np.matmul(q.swapaxes(1, 2), w, out=made[:m, j])
        for i, span in enumerate(spans):
            factors[i][lo:lo + span] = made[i, :span]
            grid = grids[i]
            at = slice(*np.searchsorted(grid, [lo + 1, lo + span + 1]))
            frames[i][at] = moved[i, grid[at] - lo - 1]
    for i, b in enumerate(order):
        out[live[b]] = LPFCocycle(orbit=members[i], frame_grid=grids[i],
                                  frames=frames[i], lpf_factors=factors[i])
    return out


def _check_speed(orbit):
    """Raise NearSingularity when the flow speed at some grid state of a
    vector-field orbit is at most SPEED_FLOOR."""
    if isinstance(orbit.model, SuspensionModel):
        return
    speeds = np.linalg.norm(orbit.model.eval_batch(orbit.states), axis=1)
    if np.min(speeds) <= SPEED_FLOOR:
        bad = int(np.argmin(speeds))
        raise NearSingularity(
            f"flow speed {speeds[bad]:.3e} at t={orbit.times[bad]:.6g}"
        )


def _unit_flow(orbit, lo, hi):
    """Unit flow directions at the grid states lo..hi-1: the vertical
    coordinate on a suspension, else the normalized vector field."""
    if isinstance(orbit.model, SuspensionModel):
        return np.tile(np.array([0.0, 0.0, 1.0]), (hi - lo, 1))
    dirs = orbit.model.eval_batch(orbit.states[lo:hi])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs


def direct_lpf_factor(lpf: LPFCocycle, i, j):
    """P over [i, j] computed from the composed tangent cocycle and the
    endpoint frames only (independent of the per-step projections)."""
    m, log_scale = lpf.orbit.propagator(i, j)
    fi, fj = lpf.frames_at([i, j])
    return fj.T @ (m @ fi), log_scale


# ----------------------------------------------------------------------
# cross sections and return maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SectionSpec:
    """Affine cross-section {x : <x - point, normal> = 0}, crossed in the
    direction of positive flux when orientation is +1."""

    point: np.ndarray
    normal: np.ndarray
    orientation: int = 1


@dataclass
class ReturnMapResult:
    points: list
    times: list
    warnings: list = field(default_factory=list)


def return_map(model, section, x0, n_returns: int,
               t_budget: Optional[float] = None,
               step_ctrl=None) -> ReturnMapResult:
    """Ordered section crossings of the orbit through x0.

    For a SuspensionModel with the canonical section this reproduces
    the skew-product section map and the roof return times exactly.
    For a vector field each accepted integrator step is tested for a sign
    change of the section functional as it is taken; the crossing time
    inside a bracketing step is refined by a safeguarded Newton iteration
    to 1e-12 in time, and integration stops at the step that holds the
    last requested crossing.  Both the walk and the refinement take
    state-only steps (`dp5_steps(..., tangent=False)`): nothing here
    reads a cocycle, so the error is controlled on the state alone.

    Raises NoReturn if the budget runs out before the requested number
    of crossings; records a TangencyWarning when the transversality
    margin at a crossing falls below 1e-3.
    """
    if isinstance(model, SuspensionModel):
        return _suspension_returns(model, x0, n_returns)
    return _field_returns(model, section, x0, n_returns, t_budget, step_ctrl)


def _suspension_returns(model, xy0, n_returns):
    skew = model.section_map
    x, y = float(xy0[0]), float(xy0[1])
    pts, times = [], []
    for _ in range(n_returns):
        if x == 0.0:
            raise SingularPoint("orbit reached the singular line of the section")
        tau = float(model.roof(x))
        x, y = skew.eval(x, y)
        pts.append(np.array([x, y]))
        times.append(tau)
    return ReturnMapResult(points=pts, times=times)


def _field_returns(model, section, x0, n_returns, t_budget, step_ctrl):
    p = np.asarray(section.point, dtype=float)
    nrm = unit(np.asarray(section.normal, dtype=float))
    sgn = 1.0 if section.orientation >= 0 else -1.0

    def phi(x):
        """Section functional, signed so that a crossing goes - to +."""
        return sgn * float((x - p) @ nrm)

    if t_budget is None:
        t_budget = 50.0 * max(1, n_returns)

    pts, times, warns = [], [], []
    x = np.asarray(x0, dtype=float)
    t_base = 0.0
    chunk = min(100.0, t_budget)
    while len(pts) < n_returns:
        span = min(chunk, t_budget - t_base)
        if span <= TIME_RESOLUTION:  # the remaining budget holds no step
            break
        t_lo, x_lo, phi_lo = 0.0, x, phi(x)
        for t_hi, y5 in dp5_steps(model, x, span, step_ctrl, tangent=False):
            x_hi = y5[:, 0]
            phi_hi = phi(x_hi)
            if phi_lo < 0.0 <= phi_hi:
                dt, xc, fc = _refine_crossing(model, x_lo, phi_lo, phi_hi,
                                              t_hi - t_lo, phi, sgn * nrm,
                                              step_ctrl)
                tc = t_base + t_lo + dt
                flux = abs(fc @ nrm)
                margin = flux / max(np.linalg.norm(fc), 1e-300)
                if flux <= 1e-6:
                    raise NoReturn(
                        f"crossing at t={tc:.6g} is tangent (flux {flux:.2e})"
                    )
                if margin < 1e-3:
                    msg = f"transversality margin {margin:.2e} at t={tc:.6g}"
                    warnings.warn(msg, TangencyWarning)
                    warns.append(msg)
                pts.append(xc)
                times.append(tc)
                if len(pts) == n_returns:
                    break
            t_lo, x_lo, phi_lo = t_hi, x_hi, phi_hi
        x, t_base = x_lo, t_base + t_lo
    if len(pts) < n_returns:
        raise NoReturn(
            f"found {len(pts)}/{n_returns} crossings within budget {t_budget:g}"
        )
    return ReturnMapResult(points=pts, times=times, warnings=warns)


def _refine_crossing(model, x_lo, phi_lo, phi_hi, h, phi, dphi_dx, step_ctrl):
    """Crossing time inside one accepted step of length h, by a Newton
    iteration on phi(x(s)) = 0 safeguarded by the bracket phi < 0 <= phi.

    phi_lo < 0 <= phi_hi are the values at the step's ends.  The slope
    d phi / ds = dphi_dx . f(x) costs nothing beyond f(x); the secant
    through the step's ends is the first guess, and any Newton step that
    leaves the bracket is replaced by bisection.  States are
    re-integrated with state-only steps from the step-begin state, so the
    located point lies on the true orbit to integrator accuracy.  Returns
    (s, x(s), f(x(s))) once the Newton correction or the bracket falls
    below REFINE_TOL.
    """
    a, b = 0.0, h
    s = h * phi_lo / (phi_lo - phi_hi)
    for _ in range(REFINE_ITERS):
        # dp5_steps needs a span above its time resolution
        s = max(s, REFINE_TOL)
        for _, y5 in dp5_steps(model, x_lo, s, step_ctrl, tangent=False):
            pass
        x = y5[:, 0]
        fx = model.eval(x)
        val = phi(x)
        if val < 0.0:
            a = s
        else:
            b = s
        slope = float(dphi_dx @ fx)
        step = val / slope if slope > 0.0 else np.inf
        if abs(step) <= REFINE_TOL or b - a <= REFINE_TOL:
            return s, x, fx
        s -= step
        if not a < s < b:
            s = 0.5 * (a + b)
    raise NoReturn(f"crossing refinement did not converge in {REFINE_ITERS} steps")
