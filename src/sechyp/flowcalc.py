"""Orbit integration and tangent/wedge cocycle propagation.

The integrator is an explicit Dormand-Prince 5(4) embedded pair whose
last stage is reused as the next step's first (six right-hand-side
evaluations per attempted step; Hairer, Norsett & Wanner, Solving ODEs
I, II.5).  The variational equation dM/dt = DX(x) M is co-integrated
with the state as one coupled system, restarted from the identity on
every accepted step, so the stored per-step matrices compose to the
transition matrix over any span of grid points.

Error control uses a single scalar weight atol + rtol * ||Y|| over the
augmented state, which makes the accepted step sequence invariant under
orthogonal changes of coordinates (up to roundoff) and keeps runs
bit-reproducible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import Blowup, StiffnessFailure
from .models import VectorFieldModel
from .util import rescale_pow2, scaled_product

# Dormand-Prince 5(4) coefficients; the 5th-order solution is propagated
# and the last stage is evaluated at it (FSAL structure).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# b5 - b4: weights of the embedded error estimate
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

# The stage slopes live in one buffer in the slot order k2, k1, k3, ..., k7:
# every stage sum is then one axis-0 reduce over a contiguous run of
# slots (k2 is absent from the 5th-order and error sums), and a sum that
# starts k2, k1 equals the textbook k1, k2 order exactly (a+b == b+a).
_K1, _K7 = 1, 6

# spans end this close to their end (times max(1, t_span))
TIME_RESOLUTION = 1e-14


def _weights(*w):
    return np.array(w)[:, None, None]


# indexed by the slot a stage writes; stage 2 (slot 0) uses h*a21 directly
_STAGE_W = (None, None,
            _weights(_A32, _A31),
            _weights(_A42, _A41, _A43),
            _weights(_A52, _A51, _A53, _A54),
            _weights(_A62, _A61, _A63, _A64, _A65))
_SOL_W = _weights(_B1, _B3, _B4, _B5, _B6)       # slots k1, k3..k6
_ERR_W = _weights(_E1, _E3, _E4, _E5, _E6, _E7)  # slots k1, k3..k7


@dataclass(frozen=True)
class StepControl:
    """Integrator tolerances and guards."""

    rtol: float = 1e-9
    atol: float = 1e-12
    bound: float = 1e6          # blowup guard on the state norm
    max_step: float = np.inf
    min_step_floor: float = 1e-14


@dataclass
class OrbitSegment:
    """Time-gridded trajectory with per-step tangent cocycle factors.

    step_cocycles[k] approximates DX_{t[k+1]-t[k]} at states[k]; the
    true factor is exp(renorm_log[k]) * step_cocycles[k] (the log scale
    is zero unless a factor had to be rescaled to stay representable).
    """

    model: object
    times: np.ndarray
    states: np.ndarray
    step_cocycles: np.ndarray
    renorm_log: np.ndarray

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def t_span(self):
        return float(self.times[-1] - self.times[0])

    def index_at(self, t):
        """Grid index closest to time t."""
        return int(np.argmin(np.abs(self.times - t)))

    def propagator(self, i, j):
        """Transition matrix over grid indices [i, j] as (matrix, log_scale).

        Note: a single composed matrix carries at most the float64
        dynamic range across its singular values; determinants over
        long spans should use log_det instead.
        """
        m, log_scale = scaled_product(self.step_cocycles, i, j)
        log_scale += float(np.sum(self.renorm_log[i:j]))
        return m, log_scale

    def log_det(self, i=0, j=None):
        """log |det| of the transition matrix over [i, j], summed per step."""
        if j is None:
            j = self.n_steps
        n = self.states.shape[1]
        total = 0.0
        for k in range(i, j):
            total += np.linalg.slogdet(self.step_cocycles[k])[1]
            total += n * self.renorm_log[k]
        return float(total)


@dataclass
class WedgeCocycle:
    """Second-exterior-power factors of an orbit's step cocycles."""

    orbit: OrbitSegment
    wedge_factors: np.ndarray
    renorm_log: np.ndarray

    def propagator(self, i, j):
        m, log_scale = scaled_product(self.wedge_factors, i, j)
        log_scale += float(np.sum(self.renorm_log[i:j]))
        return m, log_scale


def _norm(v):
    """Euclidean norm, computed as np.linalg.norm computes it (sqrt of
    v . v on the raveled array) without its dispatch overhead."""
    r = v.ravel()
    return math.sqrt(r.dot(r))


def _initial_step(model, x0, ctrl):
    """Hairer-style deterministic starting step size."""
    f0 = model.eval(x0)
    d0 = np.linalg.norm(x0)
    d1 = np.linalg.norm(f0)
    h0 = 1e-6 if (d1 < 1e-10 or d0 < 1e-10) else 0.01 * d0 / d1
    x1 = x0 + h0 * f0
    d2 = np.linalg.norm(model.eval(x1) - f0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, ctrl.max_step)


def dp5_steps(model: VectorFieldModel, x0, t_span: float,
              step_ctrl: Optional[StepControl] = None):
    """Accepted Dormand-Prince steps of an orbit over [0, t_span].

    Yields (t, y5) once per accepted step: the step-end time and the
    (n, n+1) augmented state [x | M], where M is the step's tangent
    cocycle factor.  Each y5 is a fresh array.  A caller that stops
    consuming early pays for no further step; the steps it saw are
    those integrate would store.  Raises as integrate does.
    """
    ctrl = step_ctrl or StepControl()
    if not t_span > 0:
        raise ValueError("t_span must be positive")
    if t_span <= TIME_RESOLUTION:
        raise ValueError(f"t_span {t_span:g} is at or below the time resolution")
    if t_span / 8.0 < ctrl.min_step_floor:
        raise ValueError(f"t_span {t_span:g} is too short: its largest step "
                         f"t_span / 8 is below the step floor {ctrl.min_step_floor:g}")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    n = x0.shape[0]

    t = 0.0
    max_step = min(ctrl.max_step, t_span / 8.0)
    h_prop = min(_initial_step(model, x0, ctrl), max_step)
    t_edge = TIME_RESOLUTION * max(1.0, t_span)

    k = np.empty((7, n, n + 1))
    k_state = [k[i, :, 0] for i in range(7)]
    k_tangent = [k[i, :, 1:] for i in range(7)]

    def slope(slot, ys):
        """Augmented right-hand side [f(x) | J(x) M] written into k[slot];
        returns J(x)."""
        x = ys[:, 0]
        k_state[slot][:] = model.eval(x)
        jac = model.jacobian(x)
        np.matmul(jac, ys[:, 1:], out=k_tangent[slot])
        return jac

    y = np.empty((n, n + 1))
    y[:, 0] = x0
    y[:, 1:] = np.eye(n)
    y_norm = _norm(y)
    slope(_K1, y)

    while t_span - t > t_edge:
        h = min(h_prop, t_span - t)
        slope(0, y + (h * _A21) * k[_K1])
        for s in range(2, 6):
            slope(s, y + h * np.add.reduce(_STAGE_W[s] * k[:s], axis=0))
        y5 = y + h * np.add.reduce(_SOL_W * k[_K1:_K7], axis=0)
        jac5 = slope(_K7, y5)
        err = h * np.add.reduce(_ERR_W * k[_K1:], axis=0)
        # scalar weight: rotation-invariant error norm over state + cocycle
        weight = ctrl.atol + ctrl.rtol * max(y_norm, _norm(y5))
        enorm = _norm(err) / weight
        if enorm <= 1.0:
            t += h
            if _norm(y5[:, 0]) > ctrl.bound:
                raise Blowup(f"state norm exceeded {ctrl.bound:.3e} at t={t:.6g}")
            yield t, y5
            y[:, 0] = y5[:, 0]
            y_norm = _norm(y)
            # first same as last: the next step's k1 is [f(x5) | J(x5) I].
            # J(x5) I == J(x5) up to the sign of zero entries, and every
            # stage adds those to y's identity block, where it cannot show
            k_state[_K1][:] = k_state[_K7]
            k_tangent[_K1][:] = jac5
            fac = 5.0 if enorm == 0 else min(5.0, 0.9 * enorm ** -0.2)
        else:
            fac = max(0.2, 0.9 * enorm ** -0.2)
        h_prop = min(h_prop * fac, max_step)
        if h_prop < ctrl.min_step_floor * max(1.0, abs(t)):
            raise StiffnessFailure(f"step size underflow at t={t:.6g}")


def integrate(model: VectorFieldModel, x0, t_span: float,
              step_ctrl: Optional[StepControl] = None) -> OrbitSegment:
    """Integrate an orbit and its tangent cocycle over [0, t_span].

    Deterministic given (model, x0, step_ctrl).  Raises Blowup when the
    state norm exceeds step_ctrl.bound and StiffnessFailure when the
    step size underflows.
    """
    times = [0.0]
    blocks = []
    for t, y5 in dp5_steps(model, x0, t_span, step_ctrl):
        times.append(t)
        blocks.append(y5)

    x0 = np.asarray(x0, dtype=float)
    blocks = np.array(blocks)
    states = np.empty((len(times), x0.shape[0]))
    states[0] = x0
    states[1:] = blocks[:, :, 0]
    return OrbitSegment(
        model=model,
        times=np.array(times),
        states=states,
        step_cocycles=np.ascontiguousarray(blocks[:, :, 1:]),
        renorm_log=np.zeros(len(blocks)),
    )


def rk4_step(f, x, dt):
    """One classical RK4 step of x' = f(x); f acts on the whole array x."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def batch_rk4(model, states, dt, n_steps):
    """Fixed-step classical RK4 over a batch of initial states.

    Vectorized ensemble propagation for statistics (basin sampling,
    transients) through the model's `eval_batch`; the adaptive
    integrator remains the cocycle path.  states has shape (batch, n);
    returns the final (batch, n) array.
    """
    x = np.array(states, dtype=float)
    for _ in range(n_steps):
        x = rk4_step(model.eval_batch, x, dt)
    return x


# ----------------------------------------------------------------------
# exterior powers
# ----------------------------------------------------------------------

def _pair_index(n):
    pairs = list(combinations(range(n), 2))
    i = np.array([p[0] for p in pairs])
    j = np.array([p[1] for p in pairs])
    return i, j


def wedge2_of(m) -> np.ndarray:
    """Second compound matrix of M (or of each matrix of a stack), built
    from 2x2 minors.

    Row/column pairs are ordered lexicographically; entry
    ((i<j),(k<l)) = M[i,k] M[j,l] - M[i,l] M[j,k].  Multiplicative:
    wedge2_of(A @ B) = wedge2_of(A) @ wedge2_of(B).
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    if n < 2:
        raise ValueError("wedge square needs n >= 2")
    ri, rj = _pair_index(n)
    ri_c, rj_c = ri[:, None], rj[:, None]
    return (m[..., ri_c, ri] * m[..., rj_c, rj]
            - m[..., ri_c, rj] * m[..., rj_c, ri])


def wedge_cocycle(orbit: OrbitSegment) -> WedgeCocycle:
    """Per-step exterior squares of the orbit's cocycle factors.

    Built by minors from each step factor, so multiplicativity against
    the stored tangent factors is exact up to roundoff.  Log scale
    factors keep the compound norms representable.
    """
    out = wedge2_of(orbit.step_cocycles)
    logs = np.zeros(orbit.n_steps)
    rescale_pow2(out, logs)
    return WedgeCocycle(orbit=orbit, wedge_factors=out,
                        renorm_log=logs + 2.0 * orbit.renorm_log)


# ----------------------------------------------------------------------
# restriction to subspaces
# ----------------------------------------------------------------------

@dataclass
class RestrictedCocycle:
    """Cocycle expressed in transported orthonormal bases of a subspace.

    factors[k] maps coordinates in bases[k] to coordinates in
    bases[k+1]; defects[k] is the relative norm of the component of the
    pushed subspace that leaks out of bases[k+1].
    """

    factors: np.ndarray
    bases: np.ndarray
    defects: np.ndarray

    @property
    def max_defect(self):
        return float(np.max(self.defects)) if len(self.defects) else 0.0


def restrict_cocycle(factors, subspace_basis, transport="push") -> RestrictedCocycle:
    """Express a matrix cocycle in transported bases of a subspace.

    transport="push" carries the initial basis forward with the cocycle
    itself, re-orthonormalizing each step (zero defect by construction).
    Passing a sequence of bases (one per grid point, shape
    (K+1, n, d)) instead restricts against that prescribed subspace
    sequence and reports the invariance defect of each step.
    """
    from .util import check_basis_rank, qr_pos

    factors = np.asarray(factors)
    n_steps = factors.shape[0]
    b0 = np.asarray(subspace_basis, dtype=float)
    if b0.ndim == 1:
        b0 = b0[:, None]

    prescribed = None
    if not isinstance(transport, str):
        prescribed = np.asarray(transport, dtype=float)
        if prescribed.shape[0] != n_steps + 1:
            raise ValueError("prescribed basis sequence must have K+1 entries")
    elif transport != "push":
        raise ValueError(f"unknown transport rule '{transport}'")

    d = b0.shape[1]
    out = np.empty((n_steps, d, d))
    defects = np.zeros(n_steps)
    bases = np.empty((n_steps + 1, b0.shape[0], d))
    bases[0] = b0

    for k in range(n_steps):
        w = factors[k] @ bases[k]
        check_basis_rank(w)
        if prescribed is None:
            q, r = qr_pos(w)
            bases[k + 1] = q
            out[k] = r
        else:
            bases[k + 1] = prescribed[k + 1]
            coords = bases[k + 1].T @ w
            leak = w - bases[k + 1] @ coords
            out[k] = coords
            wn = np.linalg.norm(w)
            defects[k] = np.linalg.norm(leak) / wn if wn > 0 else 0.0
    return RestrictedCocycle(factors=out, bases=bases, defects=defects)


# ----------------------------------------------------------------------
# dumps and caches
# ----------------------------------------------------------------------

_CACHE_MAGIC = b"SECHYP1"


def orbit_to_csv(orbit: OrbitSegment, path, header_comment=None):
    """CSV dump: t, state components, accumulated renorm log."""
    n = orbit.states.shape[1]
    acc = np.concatenate([[0.0], np.cumsum(orbit.renorm_log)])
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        cols = ["t"] + [f"x{i}" for i in range(n)] + ["renorm_log"]
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(orbit.times):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in orbit.states[i]]
            row.append(f"{acc[i]:.17g}")
            fh.write(",".join(row) + "\n")


def save_orbit_cache(orbit: OrbitSegment, path):
    """Binary cache: magic 'SECHYP1', then little-endian float64 blocks."""
    n = orbit.states.shape[1]
    n_steps = orbit.n_steps
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<BIQ", 1, n, n_steps))
        fh.write(orbit.times.astype("<f8").tobytes())
        fh.write(orbit.states.astype("<f8").tobytes())
        fh.write(orbit.step_cocycles.astype("<f8").tobytes())
        fh.write(orbit.renorm_log.astype("<f8").tobytes())


def load_orbit_cache(path, model=None) -> OrbitSegment:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CACHE_MAGIC))
        if magic != _CACHE_MAGIC:
            raise ValueError(f"not an orbit cache (bad magic {magic!r})")
        _ver, n, n_steps = struct.unpack("<BIQ", fh.read(13))
        times = np.frombuffer(fh.read(8 * (n_steps + 1)), dtype="<f8").copy()
        states = np.frombuffer(fh.read(8 * (n_steps + 1) * n), dtype="<f8").copy()
        cocycles = np.frombuffer(fh.read(8 * n_steps * n * n), dtype="<f8").copy()
        renorm = np.frombuffer(fh.read(8 * n_steps), dtype="<f8").copy()
    return OrbitSegment(
        model=model,
        times=times,
        states=states.reshape(n_steps + 1, n),
        step_cocycles=cocycles.reshape(n_steps, n, n),
        renorm_log=renorm,
    )
