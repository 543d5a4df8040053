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
from .util import scaled_product

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
    is zero unless a factor had to be rescaled to stay representable;
    an integrated orbit's is a read-only view of one zero).
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
        long spans should be summed per step instead.
        """
        m, log_scale = scaled_product(self.step_cocycles, i, j)
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


def _largest_step(t_span, ctrl):
    """The largest step over a span of t_span; raises ValueError on a
    span integration cannot take."""
    if not t_span > 0:
        raise ValueError("t_span must be positive")
    if t_span <= TIME_RESOLUTION:
        raise ValueError(f"t_span {t_span:g} is at or below the time resolution")
    if t_span / 8.0 < ctrl.min_step_floor:
        raise ValueError(f"t_span {t_span:g} is too short: its largest step "
                         f"t_span / 8 is below the step floor {ctrl.min_step_floor:g}")
    return min(ctrl.max_step, t_span / 8.0)


def _step_factor(enorm, accepted):
    """Factor on the step size after a step with scaled error enorm
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4), in Python float
    arithmetic: numpy's power differs from `**` in the last bit."""
    if accepted:
        return 5.0 if enorm == 0 else min(5.0, 0.9 * enorm ** -0.2)
    return max(0.2, 0.9 * enorm ** -0.2)


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
    max_step = _largest_step(t_span, ctrl)
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    n = x0.shape[0]

    t = 0.0
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
        accepted = enorm <= 1.0
        if accepted:
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
        h_prop = min(h_prop * _step_factor(enorm, accepted), max_step)
        if h_prop < ctrl.min_step_floor * max(1.0, abs(t)):
            raise StiffnessFailure(f"step size underflow at t={t:.6g}")


class _OrbitBuffer:
    """Accepted steps of one orbit, in arrays grown in place.

    Growth extrapolates the steps taken so far to the whole span (at
    most 16x), so an orbit ends with little spare room, and no per-step
    object is kept.  The arrays are resized in place with no check for
    views: no view of times, states or cocycles may exist before
    segment() hands them over.
    """

    def __init__(self, x0, t_span, capacity=16):
        n = x0.shape[0]
        self.t_span = t_span
        self.size = 1                      # grid points stored
        self.times = np.zeros(capacity)
        self.states = np.empty((capacity, n))
        self.states[0] = x0
        self.cocycles = np.empty((capacity - 1, n, n))

    def _resize(self, capacity):
        """Room for `capacity` grid points (and one step fewer)."""
        for a, rows in ((self.times, capacity), (self.states, capacity),
                        (self.cocycles, capacity - 1)):
            a.resize((rows,) + a.shape[1:], refcheck=False)

    def append(self, t, y5):
        """Store the step ending at time t with augmented state y5."""
        k = self.size
        if k == self.times.shape[0]:
            self._resize(min(16 * k, max(k + k // 8,
                                         int(1.05 * k * self.t_span / t) + 64)))
        self.times[k] = t
        self.states[k] = y5[:, 0]
        self.cocycles[k - 1] = y5[:, 1:]
        self.size = k + 1

    def segment(self, model) -> OrbitSegment:
        """The stored orbit; it takes over the buffer's arrays."""
        self._resize(self.size)
        return OrbitSegment(model=model, times=self.times, states=self.states,
                            step_cocycles=self.cocycles,
                            renorm_log=np.broadcast_to(0.0, (self.size - 1,)))


def integrate(model: VectorFieldModel, x0, t_span: float,
              step_ctrl: Optional[StepControl] = None) -> OrbitSegment:
    """Integrate an orbit and its tangent cocycle over [0, t_span].

    Deterministic given (model, x0, step_ctrl).  Raises Blowup when the
    state norm exceeds step_ctrl.bound and StiffnessFailure when the
    step size underflows.
    """
    steps = dp5_steps(model, x0, t_span, step_ctrl)
    buf = _OrbitBuffer(np.asarray(x0, dtype=float), t_span)
    for t, y5 in steps:
        buf.append(t, y5)
    return buf.segment(model)


# the stage weights with an axis for the members of a batch
_BATCH_STAGE_W = tuple(w if w is None else w[..., None] for w in _STAGE_W)
_BATCH_SOL_W, _BATCH_ERR_W = _SOL_W[..., None], _ERR_W[..., None]


def integrate_batch(model: VectorFieldModel, x0s, t_span: float,
                    step_ctrl: Optional[StepControl] = None) -> list:
    """`integrate` of every row of x0s, as one Dormand-Prince run.

    Returns one entry per row: the OrbitSegment integrate returns for
    it, or the Blowup, StiffnessFailure or ValueError (non-finite start)
    integrate raises on it.  Each member keeps its own time, step size
    and accept decision; a member that finishes or fails leaves the run
    and the others go on.  An exception the model raises ends the run.

    A member's orbit equals integrate's bit for bit when the model's
    `eval_batch` and `jacobian_batch` rows equal `eval` and `jacobian`
    bit for bit, as for every shipped model: stage sums run in
    integrate's order, stage products are stacked (n, n) matmuls,
    norms are dot products as in integrate, and the step control runs
    per member in Python floats.
    """
    ctrl = step_ctrl or StepControl()
    max_step = _largest_step(t_span, ctrl)
    x0s = np.asarray(x0s, dtype=float)
    out = [None] * x0s.shape[0]
    live = []
    for b, x0 in enumerate(x0s):
        if np.all(np.isfinite(x0)):
            live.append(b)
        else:
            out[b] = ValueError("x0 must be finite")
    if not live:
        return out
    n = x0s.shape[1]
    t_edge = TIME_RESOLUTION * max(1.0, t_span)
    # per live member, in Python floats: time, proposed step, norm of y
    ts = [0.0] * len(live)
    h_props = [min(_initial_step(model, x0s[b], ctrl), max_step) for b in live]
    bufs = [_OrbitBuffer(x0s[b], t_span) for b in live]

    y = np.empty((len(live), n, n + 1))
    y[:, :, 0] = x0s[live]
    y[:, :, 1:] = np.eye(n)
    k = np.empty((7,) + y.shape)

    def slope(slot, ys):
        """The members' [f(x) | J(x) M] written into k[slot]; returns J(x)."""
        x = ys[:, :, 0]
        k_slot = k[slot]
        k_slot[:, :, 0] = model.eval_batch(x)
        jac = model.jacobian_batch(x)
        np.matmul(jac, ys[:, :, 1:], out=k_slot[:, :, 1:])
        return jac

    def norms(a):
        flat = a.reshape(a.shape[0], -1)
        return np.sqrt(np.vecdot(flat, flat)).tolist()

    y_norms = norms(y)
    slope(_K1, y)
    while live:
        hs = [min(h_prop, t_span - t) for h_prop, t in zip(h_props, ts)]
        h = np.array(hs)[:, None, None]
        slope(0, y + (h * _A21) * k[_K1])
        for s in range(2, 6):
            slope(s, y + h * np.add.reduce(_BATCH_STAGE_W[s] * k[:s], axis=0))
        y5 = y + h * np.add.reduce(_BATCH_SOL_W * k[_K1:_K7], axis=0)
        jac5 = slope(_K7, y5)
        err = h * np.add.reduce(_BATCH_ERR_W * k[_K1:], axis=0)
        y5_norms, err_norms = norms(y5), norms(err)
        x5_norms = norms(np.ascontiguousarray(y5[:, :, 0]))
        keep, moved = [], []
        for i, b in enumerate(live):
            weight = ctrl.atol + ctrl.rtol * max(y_norms[i], y5_norms[i])
            enorm = err_norms[i] / weight
            accepted = enorm <= 1.0
            if accepted:
                ts[i] += hs[i]
                if x5_norms[i] > ctrl.bound:
                    out[b] = Blowup(f"state norm exceeded {ctrl.bound:.3e} "
                                    f"at t={ts[i]:.6g}")
                    continue
                bufs[i].append(ts[i], y5[i])
                moved.append(i)
            h_props[i] = min(h_props[i] * _step_factor(enorm, accepted), max_step)
            if h_props[i] < ctrl.min_step_floor * max(1.0, abs(ts[i])):
                out[b] = StiffnessFailure(f"step size underflow at t={ts[i]:.6g}")
            elif t_span - ts[i] > t_edge:
                keep.append(i)
            else:
                out[b] = bufs[i].segment(model)
        if moved:
            # first same as last on the accepted members, as in dp5_steps
            acc = slice(None) if len(moved) == len(live) else moved
            y[acc, :, 0] = y5[acc, :, 0]
            k[_K1, acc, :, 0] = k[_K7, acc, :, 0]
            k[_K1, acc, :, 1:] = jac5[acc]
            y_norms = norms(y)
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            ts = [ts[i] for i in keep]
            h_props = [h_props[i] for i in keep]
            y_norms = [y_norms[i] for i in keep]
            bufs = [bufs[i] for i in keep]
            y, k = y[keep], k[:, keep]
    return out


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
