"""Small linear-algebra helpers used throughout the toolkit.

Everything here is deterministic: QR factors carry a fixed sign
convention and rescaling uses exact powers of two so no mantissa bits
are lost.
"""

from __future__ import annotations

import numpy as np


# Rescale running products whenever the largest entry magnitude leaves
# this window; powers of two keep the rescaling exact.
_SCALE_HI = 2.0 ** 500
_SCALE_LO = 2.0 ** -500


def qr_pos(a):
    """QR factorisation with nonnegative diagonal of R, of one matrix or
    of each matrix in a (..., m, k) stack.

    numpy's Householder QR leaves the diagonal sign arbitrary; flipping
    columns makes the factorisation unique, which keeps transported
    frames continuous along an orbit.  A stack goes to LAPACK in one
    call and gives each matrix's factors bit for bit.
    """
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :], r * d[..., :, None]


def unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def orthonormal_complement(v):
    """Columns spanning the orthogonal complement of a unit vector.

    Built from the Householder reflection exchanging e_1 and v, so the
    result is deterministic and varies continuously except at v = -e_1.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0 else -1.0
    h = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    # column 0 of h is +-v; the rest span its complement
    comp = h[:, 1:]
    if v[0] < 0:
        comp = -comp
    return comp


def principal_angles(a, b):
    """Principal angles (radians, ascending) between column spans, of
    one pair or of each pair in (..., n, k) stacks."""
    qa, _ = qr_pos(np.asarray(a, dtype=float))
    qb, _ = qr_pos(np.asarray(b, dtype=float))
    s = np.linalg.svd(qa.swapaxes(-2, -1) @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))[..., ::-1]


def subspace_gap(a, b):
    """Largest principal angle between column spans: 0 iff they coincide.

    Computed through the sine (norm of the projection defect), which
    resolves angles below the arccos floor of ~1.5e-8.
    """
    qa, _ = qr_pos(np.asarray(a, dtype=float))
    qb, _ = qr_pos(np.asarray(b, dtype=float))
    defect = qb - qa @ (qa.T @ qb)
    s = np.linalg.svd(defect, compute_uv=False)[0]
    return float(np.arcsin(min(1.0, s)))


def rescale_pow2(mats, log_scales):
    """Rescale, in place, each matrix of a (P, d, d) stack whose largest
    |entry| lies outside [2^-500, 2^500] by an exact power of two, and
    add the log of the factor given up to log_scales[p] (in place).
    """
    peak = np.abs(mats).max(axis=(1, 2))
    # one test for the whole stack first (a NaN peak fails it too)
    if not (_SCALE_LO <= peak.min(initial=np.inf)
            and peak.max(initial=0.0) <= _SCALE_HI):
        out = (peak > _SCALE_HI) | ((peak < _SCALE_LO) & (peak > 0.0))
        e = np.frexp(peak[out])[1]
        mats[out] = np.ldexp(mats[out], -e[:, None, None])
        log_scales[out] += e * np.log(2.0)


def longest_first(lengths):
    """The schedule of a stacked loop over members of these lengths:
    (order, n_open), a stable longest-first order of the members and,
    at each step 0..max(lengths)-1, how many of them are still open.
    In that order the members open at a step are a prefix.
    """
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    order = np.argsort(-lengths, kind="stable")
    n_open = len(lengths) - np.searchsorted(
        np.sort(lengths), np.arange(lengths.max(initial=0)), side="right")
    return order, n_open


def window_products(factors, starts, stops):
    """Products factors[stop-1] @ ... @ factors[start] over many windows.

    Returns (mats[P, d, d], log_scales[P]); the true product of window p
    is exp(log_scales[p]) * mats[p], and an empty window (stop <= start)
    gives the identity.  Every window is rescaled by its own power of
    two after each factor (see `rescale_pow2`), so arbitrarily long
    products stay representable.  The loop runs once per offset into
    the windows, over all windows still open at that offset.
    """
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    lengths = np.asarray(stops, dtype=np.intp).reshape(-1) - starts
    order, n_open = longest_first(lengths)
    first = starts[order]
    mats = np.tile(np.eye(factors.shape[-1]), (len(lengths), 1, 1))
    log_scales = np.zeros(len(lengths))
    for offset, n in enumerate(n_open.tolist()):
        m = factors.take(first[:n] + offset, axis=0) @ mats[:n]
        rescale_pow2(m, log_scales[:n])
        mats[:n] = m
    back = np.argsort(order)
    return mats[back], log_scales[back]


def scaled_product(factors, start, stop):
    """Product factors[stop-1] @ ... @ factors[start] with overflow guard.

    Returns (matrix, log_scale); the true product is exp(log_scale) * matrix.
    """
    mats, log_scales = window_products(factors, [start], [stop])
    return mats[0], float(log_scales[0])


def log_norms(mats, log_scales, inverse=False):
    """log spectral norms of exp(log_scales[p]) * mats[p], or of their
    inverses, for a (P, d, d) stack.

    When a matrix's condition number exceeds the float range the
    smallest singular value is recovered through the determinant
    identity log s_min = log|det| - sum(log s_others).
    """
    s = np.linalg.svd(mats, compute_uv=False)
    if not inverse:
        return np.log(s[:, 0]) + log_scales
    with np.errstate(divide="ignore", invalid="ignore"):
        far = ~((s[:, -1] > 0) & (s[:, 0] / s[:, -1] < 1e250))
        out = -np.log(s[:, -1]) - log_scales
    if far.any():
        logdet = np.linalg.slogdet(mats[far])[1]
        log_smin = logdet - np.sum(np.log(s[far, :-1]), axis=1)
        out[far] = -log_smin - log_scales[far]
    return out


def fit_log_rate(spans, log_values):
    """Least-squares slope/intercept of log_values against spans.

    Returns (slope, intercept, max_abs_residual).
    """
    t = np.asarray(spans, dtype=float)
    y = np.asarray(log_values, dtype=float)
    a = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(resid)))


def haar_frame(n, k, seed=12902):
    """Deterministic generic orthonormal n x k frame (seeded Haar draw)."""
    rng = np.random.default_rng(seed)
    q, _ = qr_pos(rng.standard_normal((n, n)))
    return q[:, :k]


def expm_small(a):
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    Intended for small, well-scaled blocks (restricted generators);
    the Taylor series at ||A/2^s|| <= 1/4 converges to machine
    precision in ~16 terms.
    """
    a = np.asarray(a, dtype=float)
    nrm = np.linalg.norm(a, 2)
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-30) / 0.25))))
    b = a / (2.0 ** s)
    term = np.eye(a.shape[0])
    out = np.eye(a.shape[0])
    for k in range(1, 20):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out
