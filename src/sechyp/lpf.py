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
from .flowcalc import TIME_RESOLUTION, OrbitSegment, dp5_steps, integrate
from .models import SuspensionModel
from .util import orthonormal_complement, qr_pos, scaled_product, unit


@dataclass
class LPFCocycle:
    """Linear Poincare flow factors along a regular orbit.

    lpf_factors[k] expresses P^{dt_k} from frame k coordinates to frame
    k+1 coordinates; factors compose over concatenated steps.
    """

    orbit: OrbitSegment
    flow_dirs: np.ndarray      # (K+1, n)
    frames: np.ndarray         # (K+1, n, n-1)
    lpf_factors: np.ndarray    # (K, n-1, n-1)

    @property
    def n_steps(self):
        return self.lpf_factors.shape[0]

    def propagator(self, i, j):
        """Composed LPF factor over grid indices [i, j] as (matrix, log_scale)."""
        m, log_scale = scaled_product(self.lpf_factors, i, j)
        log_scale += float(np.sum(self.orbit.renorm_log[i:j]))
        return m, log_scale


def lpf_along(orbit: OrbitSegment, speed_floor: float = 1e-8,
              frame_seed: Optional[int] = None) -> LPFCocycle:
    """Per-step linear Poincare flow factors in transported normal frames.

    Raises NearSingularity when the flow speed drops below speed_floor
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
    model = orbit.model
    k_steps = orbit.n_steps
    n = orbit.states.shape[1]

    if isinstance(model, SuspensionModel):
        dirs = np.tile(np.array([0.0, 0.0, 1.0]), (k_steps + 1, 1))
        speeds = np.ones(k_steps + 1)
    else:
        dirs = model.eval_batch(orbit.states)
        speeds = np.linalg.norm(dirs, axis=1)
        if np.min(speeds) <= speed_floor:
            bad = int(np.argmin(speeds))
            raise NearSingularity(
                f"flow speed {speeds[bad]:.3e} at t={orbit.times[bad]:.6g}"
            )
        dirs /= speeds[:, None]

    frames = np.empty((k_steps + 1, n, n - 1))
    frames[0] = orthonormal_complement(dirs[0])
    if frame_seed is not None:
        rot, _ = qr_pos(np.random.default_rng(frame_seed)
                        .standard_normal((n - 1, n - 1)))
        frames[0] = frames[0] @ rot
    factors = np.empty((k_steps, n - 1, n - 1))
    w = np.empty((n, n - 1))
    for k in range(k_steps):
        # transport the previous basis, project off the new flow
        # direction, re-orthonormalize; the sign-fixed QR maximizes
        # overlap with the transported basis (no sign flips).
        np.matmul(orbit.step_cocycles[k], frames[k], out=w)
        d = dirs[k + 1]
        q, _ = qr_pos(w - d[:, None] * (d @ w))
        frames[k + 1] = q
        np.matmul(q.T, w, out=factors[k])
    return LPFCocycle(orbit=orbit, flow_dirs=dirs, frames=frames, lpf_factors=factors)


def direct_lpf_factor(lpf: LPFCocycle, i, j):
    """P over [i, j] computed from the composed tangent cocycle and the
    endpoint frames only (independent of the per-step projections)."""
    m, log_scale = lpf.orbit.propagator(i, j)
    return lpf.frames[j].T @ (m @ lpf.frames[i]), log_scale


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
    last requested crossing.

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
        for t_hi, y5 in dp5_steps(model, x, span, step_ctrl):
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


def _refine_crossing(model, x_lo, phi_lo, phi_hi, h, phi, dphi_dx, step_ctrl,
                     tol=1e-12, max_iter=100):
    """Crossing time inside one accepted step of length h, by a Newton
    iteration on phi(x(s)) = 0 safeguarded by the bracket phi < 0 <= phi.

    phi_lo < 0 <= phi_hi are the values at the step's ends.  The slope
    d phi / ds = dphi_dx . f(x) costs nothing beyond f(x); the secant
    through the step's ends is the first guess, and any Newton step that
    leaves the bracket is replaced by bisection.  States are
    re-integrated from the step-begin state, so the located point lies
    on the true orbit to integrator accuracy.  Returns (s, x(s), f(x(s)))
    once the Newton correction or the bracket falls below tol.
    """
    a, b = 0.0, h
    s = h * phi_lo / (phi_lo - phi_hi)
    for _ in range(max_iter):
        # integrate needs a span above its time resolution
        s = max(s, tol)
        x = integrate(model, x_lo, s, step_ctrl).states[-1]
        fx = model.eval(x)
        val = phi(x)
        if val < 0.0:
            a = s
        else:
            b = s
        slope = float(dphi_dx @ fx)
        step = val / slope if slope > 0.0 else np.inf
        if abs(step) <= tol or b - a <= tol:
            return s, x, fx
        s -= step
        if not a < s < b:
            s = 0.5 * (a + b)
    raise NoReturn(f"crossing refinement did not converge in {max_iter} steps")
