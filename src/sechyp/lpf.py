"""Linear Poincare flow on normal bundles, and cross-section machinery.

Along a regular orbit the normal space N_x = X(x)^perp carries the
cocycle P^t = O_{X_t x} . DX_t(x), the tangent flow followed by
orthogonal projection off the flow direction.  Frame Q_k of N at grid
point k is the orthonormal complement of the flow direction there, and
the step factor is Q_{k+1}^T Phi_k Q_k: Q_{k+1}^T itself projects off
X(x_{k+1}).  Other frames change composed factors only orthogonally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NearSingularity, NoReturn, SingularPoint, TangencyWarning
from .flowcalc import TIME_RESOLUTION, OrbitSegment, dp5_steps
from .models import SuspensionModel
from .util import block_products, orthonormal_complement, qr_pos, scaled_product, unit

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
    k+1 coordinates; factors compose over concatenated steps.  The normal
    frames (see `lpf_along`) are not kept: `frames_at` computes them from
    the orbit's states, and `rotation` is the frame seed's rotation of
    every frame (None without a seed).
    """

    orbit: OrbitSegment
    lpf_factors: np.ndarray             # (K, n-1, n-1)
    rotation: Optional[np.ndarray]      # (n-1, n-1)

    @property
    def n_steps(self):
        return self.lpf_factors.shape[0]

    def frames_at(self, idx):
        """Normal frames at orbit grid indices idx (any index of the
        orbit's states): bit for bit those the factors were formed from.
        Raises NearSingularity where the flow speed is at most
        SPEED_FLOOR."""
        orbit = self.orbit
        q = orthonormal_complement(_unit_flow(orbit.model, orbit.states[idx],
                                              orbit.times[idx]))
        return q if self.rotation is None else q @ self.rotation

    def blocks(self, grid):
        """The LPF over the blocks between consecutive grid indices, and
        the normal frames at the grid: ((len(grid) - 1, n-1, n-1) block
        products, each times its exp(log scale), (len(grid), n, n-1)
        frames)."""
        return block_products(self.lpf_factors, grid), self.frames_at(grid)

    def propagator(self, i, j):
        """Composed LPF factor over grid indices [i, j] as (matrix, log_scale)."""
        return scaled_product(self.lpf_factors, i, j)


def lpf_along(orbit: OrbitSegment,
              frame_seed: Optional[int] = None) -> LPFCocycle:
    """Per-step linear Poincare flow factors between normal frames: frame
    k is the orthonormal complement of the flow direction at grid index k,
    and the factors are one stacked product Q[1:]^T (Phi Q[:-1]).

    Raises NearSingularity when the flow speed drops to SPEED_FLOOR
    anywhere on the grid; the cocycle is undefined at singularities and
    unreliable arbitrarily close to them.

    `frame_seed` rotates every normal frame by one seeded orthogonal
    matrix; any admissible frame family leaves the composed factors
    orthogonally equivalent, so singular values over any span are
    frame-independent.

    Works for suspension orbits too: there the flow direction is the
    constant vertical coordinate and the normal space is the section
    plane itself.
    """
    n = orbit.states.shape[1]
    rot = None if frame_seed is None else qr_pos(
        np.random.default_rng(frame_seed).standard_normal((n - 1, n - 1)))[0]
    q = LPFCocycle(orbit, None, rot).frames_at(slice(None))
    return LPFCocycle(orbit, q[1:].swapaxes(1, 2) @ (orbit.step_cocycles @ q[:-1]),
                      rot)


def _unit_flow(model, states, times):
    """Unit flow directions at the states: the vertical coordinate on a
    suspension, else the normalized vector field.  Raises NearSingularity
    when the flow speed at some state of a vector field is at most
    SPEED_FLOOR; `times` are the states' times, for its message."""
    if isinstance(model, SuspensionModel):
        return np.tile(np.array([0.0, 0.0, 1.0]), (len(states), 1))
    dirs = model.eval_batch(states)
    speeds = np.linalg.norm(dirs, axis=1)
    if np.min(speeds) <= SPEED_FLOOR:
        bad = int(np.argmin(speeds))
        raise NearSingularity(
            f"flow speed {speeds[bad]:.3e} at t={times[bad]:.6g}"
        )
    dirs /= speeds[:, None]
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
