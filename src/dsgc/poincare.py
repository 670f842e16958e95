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

Singularities are handled by the autodiff guards (arcosh clamp at 1 + 1e-12
caps the similarity at ~1/sqrt(2e-12); norm floors give the exact series
limit at the origin) plus a radial projection that keeps floating-point
drift strictly inside the ball.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError, ShapeError

BOUNDARY_EPS = 1e-5   # radial projection margin
NORM_FLOOR = 1e-15    # series-limit floor for ||t|| -> 0

_ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh, "sigmoid": ad.sigmoid}


class PoincareBall:
    """Poincare ball of curvature -c; all methods treat matrix rows as points."""

    def __init__(self, c=1.0):
        if not (c > 0):
            raise ContractError(f"curvature magnitude must be positive, got {c}")
        self.c = float(c)
        self.sqrt_c = math.sqrt(self.c)
        self.max_norm = (1.0 - BOUNDARY_EPS) / self.sqrt_c

    def __repr__(self):
        return f"PoincareBall(c={self.c})"

    def contains(self, x):
        """True when every row is strictly inside the open ball."""
        v = ad.values_of(x)
        return bool((self.c * (v * v).sum(axis=-1) < 1.0).all())

    def _check_inside(self, x, what):
        v = ad.values_of(x)
        sq = self.c * (v * v).sum(axis=-1)
        if (sq >= 1.0).any():
            raise DomainError(
                f"{what}: point on/outside the ball, c*||x||^2 max = {sq.max():.6g}"
            )

    def project(self, x):
        """Radially pull rows with norm > (1 - 1e-5)/sqrt(c) back onto that radius.

        The rescale factor is computed from current values and applied as a
        constant, so gradients are untouched on the (normal) interior path.
        Pulled rows read back at or inside the radius, so a second call is a no-op.
        A row whose norm is not finite (inf, NaN, overflow) raises DomainError.
        """
        xv = ad.values_of(x)
        norms = np.linalg.norm(xv, axis=1, keepdims=True)
        if (norms <= self.max_norm).all():
            return x
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise DomainError(f"project: row {bad[0]} has a non-finite norm {norms[bad[0], 0]}")
        factors = np.where(norms > self.max_norm, self.max_norm / np.maximum(norms, NORM_FLOOR), 1.0)
        # rounding can leave a rescaled row an ulp or two past the radius
        while (over := np.linalg.norm(xv * factors, axis=1) > self.max_norm).any():
            factors[over] = np.nextafter(factors[over], 0.0)
        return ad.mul(x, factors)

    def geodesic_similarity(self, u, v):
        """Reciprocal geodesic length between corresponding rows of u and v.

        Coincident rows hit the arcosh clamp and return the cap value
        1/arcosh(1 + 1e-12) ~= 1/sqrt(2e-12).
        """
        self._check_inside(u, "geodesic_similarity")
        self._check_inside(v, "geodesic_similarity")
        if self.c != 1.0:
            u = ad.mul(u, self.sqrt_c)
            v = ad.mul(v, self.sqrt_c)
        du = ad.sub(u, v)
        sq_dist = ad.asum(ad.mul(du, du), axis=1)
        den = ad.mul(
            ad.sub(1.0, ad.asum(ad.mul(u, u), axis=1)),
            ad.sub(1.0, ad.asum(ad.mul(v, v), axis=1)),
        )
        arg = ad.add(1.0, ad.div(ad.mul(2.0, sq_dist), den))
        length = ad.arcosh(arg)
        if self.c != 1.0:
            length = ad.mul(length, 1.0 / self.sqrt_c)
        return ad.div(1.0, length)

    def expmap0(self, t):
        """Map a tangent vector at the origin into the ball (rows independently)."""
        n = ad.clip_min(ad.rownorm(t), NORM_FLOOR)
        if self.sqrt_c != 1.0:
            n = ad.mul(n, self.sqrt_c)
        out = ad.div(ad.mul(ad.tanh(n), t), n)
        return self.project(out)

    def logmap0(self, u):
        """Map a ball point back to the origin tangent space (inverse of expmap0)."""
        self._check_inside(u, "logmap0")
        n = ad.clip_min(ad.rownorm(u), NORM_FLOOR)
        if self.sqrt_c != 1.0:
            n = ad.mul(n, self.sqrt_c)
        return ad.div(ad.mul(ad.artanh(n), u), n)

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
