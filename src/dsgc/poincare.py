"""Poincare-ball geometry, differentiable through the autodiff tape.

The ball of curvature -c (c > 0) is the set of points with c * ||x||^2 < 1.
Rows of a matrix are treated as independent points, so every operation maps
(n, d) -> (n, d) or (n, d) -> (n, 1).

Core formulas (origin-anchored, curvature magnitude c):

    similarity(u, v) = 1 / arcosh(1 + 2||u' - v'||^2 / ((1 - ||u'||^2)(1 - ||v'||^2)))
                       with u' = sqrt(c) u, and the arcosh length divided by
                       sqrt(c) before the reciprocal  (similarity = reciprocal
                       geodesic length; the quantity grows as points approach)
    exp0(t) = tanh(sqrt(c) ||t||) * t / (sqrt(c) ||t||)
    log0(u) = artanh(sqrt(c) ||u||) * u / (sqrt(c) ||u||)
    W (x) u = exp0(log0(u) W^T)           hyperbolic matrix multiply
    u (+) b = exp0(log0(u) + b)           hyperbolic bias addition
    act(u)  = exp0(sigma(log0(W (x) u (+) b)))

expmap0, logmap0 and geodesic_similarity are one tape node each: the
forward runs in numpy and a closed-form VJP (Ganea et al., arXiv
1805.09112) carries the adjoint back. Each node is a thin `autodiff.link`
wrapper over an array-level form that returns (value, vjp): `exp0_rows`,
`_rescale_rows` (the radial rescale exp0 and log0 share) and, for the
similarity, `scaled_rows` (scale and check the points, several
operands' blocks in one pass) then `similarity_rows`. Fused nodes that
build their own tape node, such as `losses.step_objective`, call these
forms. Row norms and row sums are `np.add.reduce` calls, the reduction
`np.linalg.norm` and `ndarray.sum` make, without their Python wrappers.
The guards are computed inline, as the chain of autodiff primitives would
compute them:
  * norms are floored at NORM_FLOOR (the exact series limit at the
    origin; no gradient flows through the floor) and divisors at
    autodiff.DIV_FLOOR;
  * artanh arguments are clamped at autodiff.ARTANH_MAX and arcosh
    arguments at autodiff.ARCOSH_MIN, which caps the similarity of
    coincident points at ~1/sqrt(2e-12); the adjoint passes through both
    clamps, as g / (1 - x^2) and g / sqrt(x^2 - 1) at the clamped x;
  * expmap0 pulls its result back with the same radial projection as
    `project`, which keeps floating-point drift strictly inside the ball;
  * a row that is not finite, or not strictly inside the ball where a
    point is expected, raises one DomainError naming the op and the row
    (for stacked operands, the operand and the row within it), before any
    arithmetic that could warn; a finite row whose squared norm
    overflows is squared with numpy's overflow warning off, so it reaches
    that check as an infinite norm.
The Mobius operations are compositions of these nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError, ShapeError

BOUNDARY_EPS = 1e-5   # radial projection margin
NORM_FLOOR = 1e-15    # series-limit floor for ||t|| -> 0

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "sigmoid": ad.sigmoid}


def _row_norms(xv):
    """The (n, 1) Euclidean norms of the rows of xv, as `np.linalg.norm`
    computes them; a row whose squared norm overflows reads inf, without
    numpy's overflow warning, for the caller's check to reject."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(xv * xv, axis=1, keepdims=True))


def _reject(ok, op, detail, operands=()):
    """Raise DomainError for the first row where the (n, 1) mask ok is False.
    ok stacks one equal block of rows per operand name (one unnamed block
    when none is given); the message names op, the operand and the row
    within its block, then detail(i) for stacked row i."""
    if not ok.all():
        operands = operands or ("",)
        i = int(np.flatnonzero(~ok)[0])
        size = len(ok) // len(operands)
        raise DomainError(f"{op}: row {i % size}{operands[i // size]} {detail(i)}")


class PoincareBall:
    """Poincare ball of curvature -c; all methods treat matrix rows as points."""

    def __init__(self, c=1.0):
        if not (0 < c < math.inf):
            raise ContractError(f"curvature magnitude must be positive and finite, got {c}")
        self.c = float(c)
        self.sqrt_c = math.sqrt(self.c)
        self.max_norm = (1.0 - BOUNDARY_EPS) / self.sqrt_c

    def __repr__(self):
        return f"PoincareBall(c={self.c})"

    @staticmethod
    def _check_inside(csq, op, *operands):
        """Reject rows whose c * ||x||^2, the (n, 1) column csq, is not below 1
        (NaN included), naming them as `_reject` does."""
        _reject(csq < 1.0, op, lambda i: f"is not strictly inside the ball, "
                                         f"c*||x||^2 = {csq[i, 0]:.6g}", operands)

    def _pull_back(self, xv, op):
        """The (n, 1) factors that pull rows with norm > max_norm back onto
        that radius, or None when every row is within it. A row whose norm
        is not finite (inf, NaN, overflow) raises DomainError."""
        norms = _row_norms(xv)
        if (norms <= self.max_norm).all():
            return None
        _reject(np.isfinite(norms), op, lambda i: f"has a non-finite norm {norms[i, 0]}")
        factors = np.where(norms > self.max_norm, self.max_norm / np.maximum(norms, NORM_FLOOR), 1.0)
        # rounding can leave a rescaled row an ulp or two past the radius
        while (over := _row_norms(xv * factors) > self.max_norm).any():
            factors[over] = np.nextafter(factors[over], 0.0)
        return factors

    def project(self, x):
        """Radially pull rows with norm > (1 - 1e-5)/sqrt(c) back onto that radius.

        The rescale factor is computed from current values and applied as a
        constant, so gradients are untouched on the (normal) interior path.
        Pulled rows read back at or inside the radius, so a second call is a no-op.
        A row whose norm is not finite (inf, NaN, overflow) raises DomainError.
        """
        factors = self._pull_back(ad.values_of(x), "project")
        return x if factors is None else ad.mul(x, factors)

    def geodesic_similarity(self, u, v):
        """Reciprocal geodesic length between corresponding rows of u and v
        (a (1, d) operand is broadcast against the other's rows).

        Coincident rows hit the arcosh clamp and return the cap value
        1/arcosh(1 + 1e-12) ~= 1/sqrt(2e-12).
        """
        uv, su = self.scaled_rows(ad.values_of(u), " of u")
        vv, sv = self.scaled_rows(ad.values_of(v), " of v")
        try:
            np.broadcast_shapes(uv.shape, vv.shape)
        except ValueError:
            raise ShapeError(f"geodesic_similarity: cannot broadcast {uv.shape} with {vv.shape}") from None
        return ad.link((u, v), *self.similarity_rows(uv, vv, su, sv))

    def scaled_rows(self, xv, *operands):
        """sqrt(c) * xv and its rows' squared norms c * ||x||^2, as (n, 1),
        for `similarity_rows`. xv stacks one equal block of rows per operand
        name; a row that is not strictly inside the ball raises DomainError
        naming geodesic_similarity, the operand and the row within it."""
        with np.errstate(over="ignore"):  # an overflowed row is rejected below
            xv = xv * self.sqrt_c
            sq = np.add.reduce(xv * xv, axis=1, keepdims=True)
        self._check_inside(sq, "geodesic_similarity", *operands)
        return xv, sq

    def similarity_rows(self, uv, vv, su, sv):
        """`geodesic_similarity` on arrays: rows already scaled by
        `scaled_rows`, su and sv their checked squared norms. Returns the
        (n, 1) similarities and vjp(g), which gives the adjoints of the two
        unscaled operands at their broadcast shape."""
        du = uv - vv
        a, b = 1.0 - su, 1.0 - sv
        den = ad.floored_divisor(a * b)
        q = 2.0 * np.add.reduce(du * du, axis=1, keepdims=True) / den
        xc = np.maximum(1.0 + q, ad.ARCOSH_MIN)
        length = ad.floored_divisor(np.arccosh(xc) * (1.0 / self.sqrt_c))
        sim = 1.0 / length

        def vjp(g):
            gq = -g * sim / length * (1.0 / self.sqrt_c) / np.sqrt(xc * xc - 1.0)
            gdu = (gq / den * 2.0) * du * 2.0
            gden = -gq * q / den
            gu = gdu - 2.0 * (gden * b) * uv
            gv = -gdu - 2.0 * (gden * a) * vv
            return gu * self.sqrt_c, gv * self.sqrt_c

        return sim, vjp

    def _rescale_rows(self, xv, r, scale, slope, op=None):
        """Row i of xv times scale(n_i) / n_i, where n = sqrt(c) *
        max(r, NORM_FLOOR) and r holds the row norms; slope(n, s) is the
        derivative of scale at n, s = scale(n). With op given, rows are
        pulled back onto the projection radius as `project` does. Returns
        the rows and vjp(g), the adjoint of xv."""
        n = np.maximum(r, NORM_FLOOR) * self.sqrt_c
        s = scale(n)
        nd = ad.floored_divisor(n)
        y = s * xv / nd
        factors = None if op is None else self._pull_back(y, op)

        def vjp(g):
            if factors is not None:
                g = g * factors
            gq = g / nd
            gn = np.add.reduce(gq * xv, axis=1, keepdims=True) * slope(n, s)
            gn -= np.add.reduce(g * y / nd, axis=1, keepdims=True)
            gr = gn * self.sqrt_c * (r >= NORM_FLOOR)
            return gq * s + gr * xv / np.maximum(r, ad.DIV_FLOOR)

        return (y if factors is None else y * factors), vjp

    def exp0_rows(self, tv, *operands):
        """`expmap0` on an array: the mapped rows and vjp(g), the adjoint of tv.
        tv may stack one equal block of rows per operand name; a row whose
        norm is not finite raises DomainError naming expmap0, the operand
        and the row within it."""
        r = _row_norms(tv)
        _reject(np.isfinite(r), "expmap0", lambda i: f"has a non-finite norm {r[i, 0]}", operands)
        return self._rescale_rows(tv, r, np.tanh, lambda n, s: 1.0 - s * s, "expmap0")

    def expmap0(self, t):
        """Map a tangent vector at the origin into the ball (rows independently)."""
        y, vjp = self.exp0_rows(ad.values_of(t))
        return ad.link((t,), y, lambda g: (vjp(g),))

    def logmap0(self, u):
        """Map a ball point back to the origin tangent space (inverse of expmap0)."""
        uv = ad.values_of(u)
        with np.errstate(over="ignore"):  # an overflowed norm is rejected below
            sq = np.add.reduce(uv * uv, axis=1, keepdims=True)
            csq = self.c * sq
        self._check_inside(csq, "logmap0")
        y, vjp = self._rescale_rows(
            uv, np.sqrt(sq), lambda n: np.arctanh(np.minimum(n, ad.ARTANH_MAX)),
            lambda n, s: 1.0 / (1.0 - np.minimum(n, ad.ARTANH_MAX) ** 2))
        return ad.link((u,), y, lambda g: (vjp(g),))

    def mobius_matvec(self, W, u):
        """Hyperbolic matrix multiply: exp0(log0(u) @ W^T) for W of shape (out, in)."""
        if W.shape[1] != u.shape[1]:
            # surface the point/matrix mismatch before matmul's generic message
            raise ShapeError(
                f"mobius_matvec: W has {W.shape[1]} input columns, points have dim {u.shape[1]}"
            )
        return self.expmap0(ad.matmul(self.logmap0(u), ad.transpose(W)))

    def mobius_bias_add(self, u, b):
        """Hyperbolic bias addition: exp0(log0(u) + b) with b broadcast over rows."""
        return self.expmap0(ad.add(self.logmap0(u), b))

    def hyperbolic_activation(self, u, W, b, act):
        """exp0(act(log0(W (x) u (+) b))) with act in {relu, tanh, sigmoid}."""
        try:
            act_fn = _ACTIVATIONS[act]
        except KeyError:
            raise ContractError(
                f"unknown activation kind {act!r}, expected one of {sorted(_ACTIVATIONS)}"
            ) from None
        z = self.mobius_bias_add(self.mobius_matvec(W, u), b)
        return self.expmap0(act_fn(self.logmap0(z)))


SIMILARITY_CAP = 1.0 / float(np.arccosh(1.0 + 1e-12))
