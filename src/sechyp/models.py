"""Vector-field and map models consumed by the rest of the toolkit.

Models are immutable value objects: parameter changes create new
models, so cached orbits and reports can always name the exact system
they were computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NotAnEquilibrium, SingularPoint


@dataclass(frozen=True)
class VectorFieldModel:
    """Autonomous field on R^n with exact Jacobian.

    `eval` maps a state to a velocity vector, `jacobian` to the n x n
    derivative matrix, `eval_batch` a (B, n) state array to the (B, n)
    velocities (row b equal to eval(X[b])) and `jacobian_batch` to the
    (B, n, n) derivatives (entry b equal to jacobian(X[b])).  Every
    shipped model's batched forms equal the scalar ones bit for bit,
    which makes `flowcalc.integrate_batch` equal `integrate` per member.
    `singularities` lists declared equilibria (||eval(s)|| < 1e-10
    each).  `trapping_region` is an axis-aligned sampling box, shape
    (n, 2), or None.
    """

    name: str
    dim: int
    params: dict
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    eval_batch: Callable[[np.ndarray], np.ndarray]
    jacobian_batch: Callable[[np.ndarray], np.ndarray]
    singularities: tuple = ()
    trapping_region: Optional[np.ndarray] = None

    def divergence(self, x):
        return float(np.trace(self.jacobian(x)))


@dataclass(frozen=True)
class IntervalMap:
    """One-dimensional map of a closed interval, with analytic derivative.

    `singular_points` collects the finitely many points where the map
    or its derivative is undefined or unbounded.  `eval_batch` and
    `derivative_batch` are their elementwise forms on float arrays; they
    raise SingularPoint when the scalar form raises at any element.
    """

    name: str
    domain: tuple
    eval: Callable[[float], float]
    derivative: Callable[[float], float]
    eval_batch: Callable[[np.ndarray], np.ndarray]
    derivative_batch: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple = ()


@dataclass(frozen=True)
class SkewProductMap:
    """Skew product (x, y) -> (base(x), fiber(x, y)) on I^2 minus the singular line.

    `fiber`, `fiber_dx` and `fiber_dy` are elementwise: on float arrays
    they act element by element (a constant may come back as a scalar).
    """

    base: IntervalMap
    fiber: Callable[[float, float], float]
    fiber_dx: Callable[[float, float], float]
    fiber_dy: Callable[[float, float], float]
    fiber_contraction_rate: float

    def eval(self, x, y):
        return self.base.eval(x), self.fiber(x, y)


@dataclass(frozen=True)
class SuspensionModel:
    """Suspension semiflow over a skew-product section map.

    The roof gives the return time to the section; it may be unbounded
    near the base map's singular points but stays >= roof_floor.  `roof`
    and `roof_derivative` are elementwise like the fiber closures.
    """

    name: str
    section_map: SkewProductMap
    roof: Callable[[float], float]
    roof_derivative: Callable[[float], float]
    roof_floor: float
    params: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# vector fields
# ----------------------------------------------------------------------

def _rows_times(a, states):
    """a @ x for every row x of states, one matrix-vector product per
    row: bit-equal to `a @ x` on each row, which `states @ a.T` is not
    (BLAS sums a matrix product in another order)."""
    return np.matmul(a, states[..., None])[..., 0]


def make_lorenz(sigma: float, rho: float, beta: float) -> VectorFieldModel:
    """Classical Lorenz field (sigma(y-x), x(rho-z)-y, xy-beta z).

    All equilibria are declared in closed form; the divergence is the
    constant -(sigma + 1 + beta).
    """
    if sigma <= 0 or beta <= 0:
        raise ValueError("sigma and beta must be positive")

    # unpacked to Python floats: the same IEEE operations as on numpy
    # scalars, without their per-operation overhead
    def f(s):
        x, y, z = np.asarray(s, dtype=float).tolist()
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    def f_batch(states):
        x, y, z = states.T
        out = np.empty(states.shape)
        out[:, 0] = sigma * (y - x)
        out[:, 1] = x * (rho - z) - y
        out[:, 2] = x * y - beta * z
        return out

    def jac(s):
        x, y, z = np.asarray(s, dtype=float).tolist()
        return np.array([
            [-sigma, sigma, 0.0],
            [rho - z, -1.0, -x],
            [y, x, -beta],
        ])

    jac_const = jac(np.zeros(3))      # the entries that do not vary

    def jac_batch(states):
        x, y, z = states.T
        out = np.empty((states.shape[0], 3, 3))
        out[:] = jac_const
        np.subtract(rho, z, out=out[:, 1, 0])
        np.negative(x, out=out[:, 1, 2])
        out[:, 2, 0] = y
        out[:, 2, 1] = x
        return out

    sings = [np.zeros(3)]
    if rho > 1:
        r = np.sqrt(beta * (rho - 1.0))
        sings.append(np.array([r, r, rho - 1.0]))
        sings.append(np.array([-r, -r, rho - 1.0]))

    box = np.array([[-22.0, 22.0], [-30.0, 30.0], [0.0, 55.0]])
    return VectorFieldModel(
        name="lorenz",
        dim=3,
        params={"sigma": sigma, "rho": rho, "beta": beta},
        eval=f,
        jacobian=jac,
        eval_batch=f_batch,
        jacobian_batch=jac_batch,
        singularities=tuple(sings),
        trapping_region=box,
    )


def make_linear_field(a, name="linear") -> VectorFieldModel:
    """Linear field x' = A x; the origin is the unique declared equilibrium."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]

    def f(s):
        return a @ s

    def f_batch(states):
        return _rows_times(a, states)

    def jac(_s):
        return a.copy()

    def jac_batch(states):
        return np.repeat(a[None], states.shape[0], axis=0)

    box = np.tile([-1.0, 1.0], (n, 1))
    return VectorFieldModel(
        name=name,
        dim=n,
        params={"matrix": a.tolist()},
        eval=f,
        jacobian=jac,
        eval_batch=f_batch,
        jacobian_batch=jac_batch,
        singularities=(np.zeros(n),),
        trapping_region=box,
    )


def make_linear_saddle(eigs: Sequence[float]) -> VectorFieldModel:
    """Diagonal linear field with the given eigenvalues.

    The flow is exp(t diag(eigs)) in closed form, which makes this the
    standard oracle model for cocycle and splitting tests.
    """
    eigs = tuple(float(e) for e in eigs)
    if len(eigs) == 0:
        raise ValueError("eigs must be nonempty")
    m = make_linear_field(np.diag(eigs), name="linear_saddle")
    m.params["eigs"] = list(eigs)
    return m


def conjugate_model(model: VectorFieldModel, q) -> VectorFieldModel:
    """Orthogonal change of coordinates x -> Q x of a vector field."""
    q = np.array(q, dtype=float)
    qt = q.T

    def f(s):
        return q @ model.eval(qt @ s)

    def f_batch(states):
        return _rows_times(q, model.eval_batch(_rows_times(qt, states)))

    def jac(s):
        return q @ model.jacobian(qt @ s) @ qt

    def jac_batch(states):
        return q @ model.jacobian_batch(_rows_times(qt, states)) @ qt

    return VectorFieldModel(
        name=model.name + "_conjugated",
        dim=model.dim,
        params=dict(model.params),
        eval=f,
        jacobian=jac,
        eval_batch=f_batch,
        jacobian_batch=jac_batch,
        singularities=tuple(q @ s for s in model.singularities),
        trapping_region=None,
    )


def polynomial_field_from_table(table: dict) -> VectorFieldModel:
    """Build a polynomial field from a JSON coefficient table.

    Expected layout::

        {"dim": n,
         "components": [[{"exponents": [e1, ..., en], "coeff": c}, ...], ...],
         "singularity_seeds": [[...], ...],      # optional, Newton-refined
         "box": [[lo, hi], ...]}                 # optional sampling box

    Each component is a list of monomials; the Jacobian is assembled
    analytically from the exponent tuples.
    """
    try:
        n = int(table["dim"])
        comps = table["components"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("model.table", f"missing polynomial entry: {exc}")
    if len(comps) != n:
        raise ConfigError("model.table", f"expected {n} components, got {len(comps)}")

    terms = []
    for comp in comps:
        rows = []
        for t in comp:
            e = np.array(t["exponents"], dtype=float)
            if e.shape != (n,):
                raise ConfigError("model.table", "exponent tuple has wrong length")
            rows.append((e, float(t["coeff"])))
        terms.append(rows)

    def f(s):
        out = np.zeros(n)
        for i, rows in enumerate(terms):
            for e, c in rows:
                out[i] += c * np.prod(s ** e)
        return out

    def f_batch(states):
        # full exponent rows, as in `f`: a broadcast 2 turns into x * x
        reps = (states.shape[0], 1)
        out = np.zeros(states.shape)
        for i, rows in enumerate(terms):
            for e, c in rows:
                out[:, i] += c * np.prod(states ** np.tile(e, reps), axis=1)
        return out

    def jac(s):
        out = np.zeros((n, n))
        for i, rows in enumerate(terms):
            for e, c in rows:
                for j in range(n):
                    if e[j] == 0:
                        continue
                    ed = e.copy()
                    ed[j] -= 1
                    out[i, j] += c * e[j] * np.prod(s ** ed)
        return out

    def jac_batch(states):
        reps = (states.shape[0], 1)
        out = np.zeros(states.shape + (n,))
        for i, rows in enumerate(terms):
            for e, c in rows:
                for j in range(n):
                    if e[j] == 0:
                        continue
                    ed = e.copy()
                    ed[j] -= 1
                    out[:, i, j] += c * e[j] * np.prod(states ** np.tile(ed, reps),
                                                       axis=1)
        return out

    box = None
    if table.get("box") is not None:
        box = np.array(table["box"], dtype=float)

    model = VectorFieldModel(
        name=table.get("name", "polynomial"),
        dim=n,
        params={"table": table},
        eval=f,
        jacobian=jac,
        eval_batch=f_batch,
        jacobian_batch=jac_batch,
        singularities=(),
        trapping_region=box,
    )
    seeds = table.get("singularity_seeds", [])
    sings = tuple(refine_equilibrium(model, np.array(s, dtype=float)) for s in seeds)
    object.__setattr__(model, "singularities", sings)
    return model


def refine_equilibrium(model: VectorFieldModel, seed, residual=1e-12, max_iter=60):
    """Damped Newton refinement of an equilibrium seed.

    Raises NotAnEquilibrium when the residual cannot be brought below
    the target.
    """
    x = np.array(seed, dtype=float)
    for _ in range(max_iter):
        r = model.eval(x)
        nr = np.linalg.norm(r)
        if nr < residual:
            return x
        try:
            step = np.linalg.solve(model.jacobian(x), r)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-8:
            xn = x - lam * step
            if np.linalg.norm(model.eval(xn)) < nr:
                x = xn
                break
            lam *= 0.5
        else:
            break
    if np.linalg.norm(model.eval(x)) < residual:
        return x
    raise NotAnEquilibrium(
        f"Newton stalled at residual {np.linalg.norm(model.eval(x)):.3e}"
    )


# ----------------------------------------------------------------------
# interval maps
# ----------------------------------------------------------------------

def make_intermittent_lorenz_map() -> IntervalMap:
    """Lorenz-type interval map with neutral fixed points at +-1.

    Two increasing square-root branches on [-1, 1] glued at the
    singular point 0; the derivative 1/sqrt|x| is unbounded there and
    equals 1 at the endpoints, so the endpoint fixed points are
    indifferent.  Lebesgue measure is preserved.
    """

    def f(x):
        if x == 0:
            raise SingularPoint("intermittent map undefined at 0")
        if x > 0:
            return 2.0 * np.sqrt(x) - 1.0
        return 1.0 - 2.0 * np.sqrt(-x)

    def df(x):
        if x == 0:
            raise SingularPoint("derivative unbounded at 0")
        return 1.0 / np.sqrt(abs(x))

    # count_nonzero is the cheapest test for a zero in a small array
    def f_batch(x):
        if np.count_nonzero(x) < x.size:
            raise SingularPoint("intermittent map undefined at 0")
        r = 2.0 * np.sqrt(np.abs(x))
        return np.where(x > 0, r - 1.0, 1.0 - r)

    def df_batch(x):
        if np.count_nonzero(x) < x.size:
            raise SingularPoint("derivative unbounded at 0")
        return 1.0 / np.sqrt(np.abs(x))

    return IntervalMap(
        name="intermittent_lorenz",
        domain=(-1.0, 1.0),
        eval=f,
        derivative=df,
        eval_batch=f_batch,
        derivative_batch=df_batch,
        singular_points=(0.0,),
    )


def make_expanding_lorenz_map() -> IntervalMap:
    """Uniformly expanding Lorenz-type map: x -> 2x -+ 1, slope 2.

    The piecewise-affine doubling variant with a jump at 0; it
    preserves Lebesgue measure and has entropy log 2 exactly, which
    makes it the closed-form control case for the entropy identities.

    Slope-2 arithmetic is exact in binary floating point, so every
    representable seed is a dyadic rational whose true orbit terminates
    at the singular point after ~50 iterates.  Long-run statistics must
    therefore use expanding_lorenz_orbit, which simulates the orbit of
    a non-dyadic point through its bit stream.
    """

    def f(x):
        return 2.0 * x - 1.0 if x >= 0 else 2.0 * x + 1.0

    def df(_x):
        return 2.0

    def f_batch(x):
        return np.where(x >= 0, 2.0 * x - 1.0, 2.0 * x + 1.0)

    def df_batch(x):
        return np.full(np.shape(x), 2.0)

    return IntervalMap(
        name="expanding_lorenz",
        domain=(-1.0, 1.0),
        eval=f,
        derivative=df,
        eval_batch=f_batch,
        derivative_batch=df_batch,
        singular_points=(0.0,),
    )


def expanding_lorenz_orbit(n: int, seed: int = 0) -> np.ndarray:
    """Orbit samples of the expanding Lorenz map from a non-dyadic point.

    The map is conjugate to the binary shift via x = 2u - 1, so the
    orbit of a random real is the sequence of 53-bit sliding windows
    over one seeded random bit stream.  This sidesteps the dyadic
    collapse of floating-point seeds and samples the invariant
    (Lebesgue) measure honestly.
    """
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n + 53, dtype=np.int64)
    out = np.empty(n)
    w = 0
    for i in range(53):
        w = (w << 1) | int(bits[i])
    mask = (1 << 53) - 1
    scale = 1.0 / (1 << 53)
    for k in range(n):
        out[k] = 2.0 * (w * scale) - 1.0
        w = ((w << 1) & mask) | int(bits[k + 53])
    return out


def iterate_interval_map(m: IntervalMap, x0: float, n: int) -> np.ndarray:
    """Orbit x0, f(x0), ..., f^n(x0); raises SingularPoint if it is hit."""
    out = np.empty(n + 1)
    x = float(x0)
    out[0] = x
    f = m.eval
    for i in range(1, n + 1):
        x = f(x)
        out[i] = x
    return out


def interval_fixed_points(m: IntervalMap) -> list:
    """Fixed points among the domain endpoints (exact check)."""
    out = []
    for e in m.domain:
        if e in m.singular_points:
            continue
        if abs(m.eval(e) - e) < 1e-14:
            out.append(float(e))
    return out


# ----------------------------------------------------------------------
# suspensions
# ----------------------------------------------------------------------

def make_geometric_lorenz_suspension(
    base: IntervalMap,
    c1: float = 0.25,
    c2: float = 0.5,
    c3: float = 0.5,
    tau0: float = 1.0,
    roof_log_coeff: float = 1.0,
) -> SuspensionModel:
    """Suspension semiflow of the skew product over a Lorenz-type base map.

    Fiber map g(x, y) = c1 * y * |x|^c2 + c3 * sign(x) and roof
    tau(x) = -roof_log_coeff * log|x| + tau0.  Requires c1 + c3 < 1 so
    the fiber stays inside [-1, 1], and tau0 > 0 as the roof floor.
    """
    lo, hi = base.domain
    if (lo, hi) != (-1.0, 1.0):
        raise ValueError("base domain must be [-1, 1]")
    if c1 + c3 >= 1.0:
        raise ValueError("c1 + c3 >= 1: fiber would escape the square")
    if c1 < 0 or c2 < 0 or c3 < 0:
        raise ValueError("fiber coefficients must be nonnegative")
    if tau0 <= 0 or roof_log_coeff < 0:
        raise ValueError("roof requires tau0 > 0 and roof_log_coeff >= 0")

    def g(x, y):
        return c1 * y * abs(x) ** c2 + c3 * np.sign(x)

    def g_dx(x, y):
        if c2 == 0:
            return 0.0
        return c1 * y * c2 * abs(x) ** (c2 - 1.0) * np.sign(x)

    def g_dy(x, _y):
        return c1 * abs(x) ** c2

    skew = SkewProductMap(
        base=base,
        fiber=g,
        fiber_dx=g_dx,
        fiber_dy=g_dy,
        fiber_contraction_rate=c1,
    )

    def roof(x):
        if roof_log_coeff == 0.0:
            return tau0
        return -roof_log_coeff * np.log(abs(x)) + tau0

    def roof_dx(x):
        if roof_log_coeff == 0.0:
            return 0.0
        return -roof_log_coeff / x

    return SuspensionModel(
        name=f"suspension[{base.name}]",
        section_map=skew,
        roof=roof,
        roof_derivative=roof_dx,
        roof_floor=tau0,
        params={
            "base": base.name,
            "c1": c1,
            "c2": c2,
            "c3": c3,
            "tau0": tau0,
            "roof_log_coeff": roof_log_coeff,
        },
    )


# ----------------------------------------------------------------------
# zoo
# ----------------------------------------------------------------------

_MAP_BUILDERS = {
    "intermittent_lorenz": make_intermittent_lorenz_map,
    "expanding_lorenz": make_expanding_lorenz_map,
}


def load_model(name: str, params: Optional[dict] = None):
    """Model zoo: build a model from its config name and parameters."""
    params = dict(params or {})
    if name == "lorenz":
        return make_lorenz(
            params.get("sigma", 10.0),
            params.get("rho", 28.0),
            params.get("beta", 8.0 / 3.0),
        )
    if name == "linear_saddle":
        if "eigs" not in params:
            raise ConfigError("params.eigs", "linear_saddle requires 'eigs'")
        return make_linear_saddle(params["eigs"])
    if name == "linear":
        if "matrix" not in params:
            raise ConfigError("params.matrix", "linear requires 'matrix'")
        return make_linear_field(params["matrix"])
    if name == "polynomial":
        if "table" not in params:
            raise ConfigError("params.table", "polynomial requires 'table'")
        return polynomial_field_from_table(params["table"])
    if name in _MAP_BUILDERS:
        return _MAP_BUILDERS[name]()
    if name == "geometric_lorenz":
        base_name = params.pop("base", "intermittent_lorenz")
        if base_name not in _MAP_BUILDERS:
            raise ConfigError("params.base", f"unknown base map '{base_name}'")
        return make_geometric_lorenz_suspension(_MAP_BUILDERS[base_name](), **params)
    raise ConfigError("model", f"unknown model '{name}'")


# validate_model's sample: states drawn from the trapping region by the
# seed, and the relative step of its central differences.
VALIDATE_STATES = 100
VALIDATE_SEED = 7
FD_STEP = 1e-6


def validate_model(model: VectorFieldModel):
    """Check declared equilibria, the batched forms and Jacobian consistency.

    Equilibria must have residual < 1e-10.  At random states in the
    trapping region (unit box if none), `eval_batch` and
    `jacobian_batch` must equal `eval` and `jacobian` row by row to
    1e-12 relative to the largest entry (matrix products may sum in
    another order), and the analytic Jacobian must match central finite
    differences of `eval` to relative error 1e-5.  Returns the max
    relative Jacobian error observed.
    """
    for s in model.singularities:
        r = np.linalg.norm(model.eval(np.asarray(s, dtype=float)))
        if r >= 1e-10:
            raise NotAnEquilibrium(f"declared singularity has residual {r:.3e}")
    rng = np.random.default_rng(VALIDATE_SEED)
    box = model.trapping_region
    if box is None:
        box = np.tile([-1.0, 1.0], (model.dim, 1))
    states = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((VALIDATE_STATES, model.dim))
    for name, scalar, batch in (("eval", model.eval, model.eval_batch),
                                ("jacobian", model.jacobian, model.jacobian_batch)):
        rows = np.array([scalar(x) for x in states])
        gap = np.max(np.abs(batch(states) - rows))
        if not gap <= 1e-12 * max(1.0, np.max(np.abs(rows))):
            raise ValueError(f"{name}_batch differs from {name} by {gap:.3e}")
    worst = 0.0
    for x in states:
        j = model.jacobian(x)
        fd = np.empty_like(j)
        for k in range(model.dim):
            dx = np.zeros(model.dim)
            dx[k] = FD_STEP * max(1.0, abs(x[k]))
            fd[:, k] = (model.eval(x + dx) - model.eval(x - dx)) / (2 * dx[k])
        err = np.max(np.abs(j - fd)) / max(1.0, np.max(np.abs(j)))
        worst = max(worst, err)
        if err >= 1e-5:
            raise ValueError(f"Jacobian mismatch {err:.3e} at state {x}")
    return worst
