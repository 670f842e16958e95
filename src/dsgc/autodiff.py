"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array; scalars are (1, 1). A constant stays a
plain array, and an operation whose operands are all arrays returns a plain
array, so constants never reach the tape. Only Tensors made from values
(parameters, and inputs a caller wants gradients for) are leaves and hold a
`.grad` buffer; an operation on at least one Tensor returns a Tensor linked
to its Tensor operands, with `grad = None`, that passes its adjoint on.
Tensors are numbered as they are created, so every operation is newer than
its inputs; `backward` walks the reachable tape newest first, which is a
reverse topological order, and adds d(root)/d(leaf) into each leaf's
`.grad`. Gradients keep accumulating across calls until `zero_grad`.

Numerical guards (they keep gradients finite near singular points):
  * arcosh arguments are clamped to >= 1 + 1e-12
  * artanh arguments are clamped to magnitude <= 1 - 1e-7
  * divisor magnitudes are floored at 1e-15 (sign preserved); an exact
    zero divisor raises DomainError
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import ContractError, DomainError, ShapeError

ARCOSH_MIN = 1.0 + 1e-12
ARTANH_MAX = 1.0 - 1e-7
DIV_FLOOR = 1e-15

_created = itertools.count()  # creation numbers, one count for all: any Tensors may meet


def _as_matrix(values):
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"tensors are 2-D matrices, got ndim={a.ndim}")
    return a


class Tensor:
    """A (rows, cols) float64 matrix tracked by the autodiff tape."""

    __slots__ = ("values", "grad", "_parents", "_vjp", "_seq")

    def __init__(self, values, _parents=(), _vjp=None):
        self.values = _as_matrix(values)
        self.grad = np.zeros_like(self.values) if _vjp is None else None
        self._parents = _parents
        self._vjp = _vjp
        self._seq = next(_created)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.values.shape}")
        return float(self.values[0, 0])

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


def values_of(x):
    """The array behind x: a Tensor's values, or x itself as a 2-D matrix."""
    return x.values if isinstance(x, Tensor) else _as_matrix(x)


def _unbroadcast(g, shape):
    """Sum g over the axes that were broadcast up from `shape`."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _record(a, b, v, da, db):
    """The result v of a binary op, linked to whichever operands are Tensors.

    da(g) and db(g) give each operand's adjoint from the result's adjoint g;
    it is then summed back over the axes that broadcasting added.
    """
    links = [(x, d, x.values.shape) for x, d in ((a, da), (b, db)) if isinstance(x, Tensor)]
    if not links:
        return v
    parents = tuple(x for x, _, _ in links)
    return Tensor(v, parents, lambda g: tuple(_unbroadcast(d(g), sh) for _, d, sh in links))


def _unary(x, v, vjp):
    """The result v of a one-operand op: linked to x when x is a Tensor
    (vjp(g) gives the 1-tuple of x's adjoint), else a plain array."""
    return Tensor(v, (x,), vjp) if isinstance(x, Tensor) else v


def _broadcast(name, op, av, bv):
    try:
        return op(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: cannot broadcast {av.shape} with {bv.shape}") from None


def add(a, b):
    av, bv = values_of(a), values_of(b)
    return _record(a, b, _broadcast("add", np.add, av, bv), lambda g: g, lambda g: g)


def sub(a, b):
    av, bv = values_of(a), values_of(b)
    return _record(a, b, _broadcast("sub", np.subtract, av, bv), lambda g: g, lambda g: -g)


def neg(x):
    return _unary(x, -values_of(x), lambda g: (-g,))


def mul(a, b):
    av, bv = values_of(a), values_of(b)
    v = _broadcast("mul", np.multiply, av, bv)
    return _record(a, b, v, lambda g: g * bv, lambda g: g * av)


def _floored_divisor(bv):
    small = np.abs(bv).min() if bv.size else 1.0
    if small == 0.0:
        raise DomainError("div: divisor contains an exact zero")
    if small < DIV_FLOOR:
        return np.sign(bv) * np.maximum(np.abs(bv), DIV_FLOOR)
    return bv


def div(a, b):
    av, bv = values_of(a), _floored_divisor(values_of(b))
    v = _broadcast("div", np.divide, av, bv)
    return _record(a, b, v, lambda g: g / bv, lambda g: -g * v / bv)


def matmul(a, b):
    av, bv = values_of(a), values_of(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {av.shape} @ {bv.shape}")
    return _record(a, b, av @ bv, lambda g: g @ bv.T, lambda g: av.T @ g)


def powc(x, p):
    """x ** p for a constant float exponent."""
    xv = values_of(x)
    if p != int(p) and (xv < 0).any():
        raise DomainError(f"powc: negative base with fractional exponent {p}")
    v = xv ** p
    return _unary(x, v, lambda g: (g * p * xv ** (p - 1.0),))


def tanh(x):
    v = np.tanh(values_of(x))
    return _unary(x, v, lambda g: (g * (1.0 - v * v),))


def artanh(x):
    xc = np.clip(values_of(x), -ARTANH_MAX, ARTANH_MAX)
    v = np.arctanh(xc)
    return _unary(x, v, lambda g: (g / (1.0 - xc * xc),))


def arcosh(x):
    xc = np.maximum(values_of(x), ARCOSH_MIN)
    v = np.arccosh(xc)
    return _unary(x, v, lambda g: (g / np.sqrt(xc * xc - 1.0),))


def sigmoid(x):
    # clipping at +-500 avoids exp overflow without changing any representable output
    v = 1.0 / (1.0 + np.exp(-np.clip(values_of(x), -500.0, 500.0)))
    return _unary(x, v, lambda g: (g * v * (1.0 - v),))


def relu(x):
    xv = values_of(x)
    v = np.maximum(xv, 0.0)
    return _unary(x, v, lambda g: (g * (xv > 0.0),))


def leaky_relu(x, slope=0.2):
    xv = values_of(x)
    v = np.where(xv > 0.0, xv, slope * xv)
    return _unary(x, v, lambda g: (g * np.where(xv > 0.0, 1.0, slope),))


def exp(x):
    v = np.exp(values_of(x))
    return _unary(x, v, lambda g: (g * v,))


def log(x):
    xv = values_of(x)
    lo = xv.min() if xv.size else 1.0
    if lo <= 0.0:
        raise DomainError(f"log: argument must be positive, got {lo}")
    return _unary(x, np.log(xv), lambda g: (g / xv,))


def rownorm(x):
    """Euclidean norm of each row, shape (n, 1)."""
    xv = values_of(x)
    v = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    safe = np.maximum(v, DIV_FLOOR)
    return _unary(x, v, lambda g: (g * xv / safe,))


def clip_min(x, floor):
    """max(x, floor) elementwise; gradient passes where x >= floor."""
    xv = values_of(x)
    v = np.maximum(xv, floor)
    return _unary(x, v, lambda g: (g * (xv >= floor),))


def asum(x, axis=None):
    xv = values_of(x)
    sh = xv.shape
    return _unary(x, xv.sum(axis=axis, keepdims=True), lambda g: (np.broadcast_to(g, sh),))


def amean(x, axis=None):
    xv = values_of(x)
    sh = xv.shape
    inv = 1.0 / (xv.size if axis is None else sh[axis])
    v = xv.mean(axis=axis, keepdims=True)
    return _unary(x, v, lambda g: (np.broadcast_to(g, sh) * inv,))


def amax(x, axis=None):
    """Max reduction; the gradient routes to the first max entry per slice."""
    xv = values_of(x)
    v = xv.max(axis=axis, keepdims=True)
    mask = np.zeros_like(xv)
    if axis is None:
        mask.flat[int(np.argmax(xv))] = 1.0
    else:
        np.put_along_axis(mask, np.argmax(xv, axis=axis, keepdims=True), 1.0, axis=axis)
    return _unary(x, v, lambda g: (g * mask,))


def _concat(name, parts, axis):
    """Join parts along axis (their other dimension must agree), linked to
    the parts that are Tensors; one part comes back as it is."""
    if not parts:
        raise ContractError(f"{name}: empty part list")
    if len(parts) == 1:
        return parts[0]
    arrays = [values_of(p) for p in parts]
    shapes = [a.shape for a in arrays]
    if len({sh[1 - axis] for sh in shapes}) != 1:
        raise ShapeError(f"{name}: {('row', 'column')[1 - axis]} counts differ, {shapes}")
    v = np.concatenate(arrays, axis=axis)
    linked = [isinstance(p, Tensor) for p in parts]
    if not any(linked):
        return v
    bounds = np.cumsum([sh[axis] for sh in shapes])[:-1]
    return Tensor(v, tuple(itertools.compress(parts, linked)),
                  lambda g: tuple(itertools.compress(np.split(g, bounds, axis=axis), linked)))


def concat_cols(parts):
    """Concatenate tensors along columns (all must share the row count)."""
    return _concat("concat_cols", parts, axis=1)


def concat_rows(parts):
    """Stack tensors along rows (all must share the column count)."""
    return _concat("concat_rows", parts, axis=0)


def transpose(x):
    return _unary(x, values_of(x).T.copy(), lambda g: (g.T,))


def backward(root):
    """Accumulate d(root)/d(t) into t.grad for every leaf t reachable from root.

    Pending nodes wait in a heap keyed by creation number; the newest comes
    out first, and by then every node built from it has passed its adjoint
    on. Each call computes its own adjoints and adds them in, so repeated
    calls without zero_grad sum exactly.
    """
    if root.values.shape != (1, 1):
        raise ContractError(f"backward root must be 1x1, got {root.values.shape}")
    adjoints = {root: np.ones((1, 1))}
    heap = [(-root._seq, root)]
    while heap:
        node = heapq.heappop(heap)[1]
        adj = adjoints.pop(node)
        if node._vjp is None:
            node.grad += adj
            continue
        for parent, contrib in zip(node._parents, node._vjp(adj)):
            if parent in adjoints:
                # never mutate adjoint arrays in place: contributions may alias
                adjoints[parent] = adjoints[parent] + contrib
            else:
                adjoints[parent] = contrib
                heapq.heappush(heap, (-parent._seq, parent))


def glorot_uniform(rng, rows, cols):
    """Glorot/Xavier uniform init: U(-a, a) with a = sqrt(6 / (rows + cols))."""
    limit = math.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)))


class Adam:
    """Adam with decoupled weight decay.

    Moments start at zero and are bias-corrected; decay multiplies parameters
    by (1 - lr * wd) independently of the gradient, so a zero-gradient step
    still shrinks weights. Stepping with no parameters is a no-op.
    """

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                p.values -= self.lr * self.weight_decay * p.values
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finite_difference_gradcheck(fn, params, h=1e-5, floor=1e-4):
    """Compare analytic gradients of the scalar fn() against central differences.

    fn must rebuild its graph from the current parameter values on every
    call. Returns the worst relative error max(|a - n|) / max(|a|, |n|, floor)
    over all parameter entries.
    """
    for p in params:
        p.zero_grad()
    out = fn()
    backward(out)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.values.ravel()
        num = np.zeros_like(ana)
        nflat = num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn().item()
            flat[i] = orig - h
            lo = fn().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        if ana.size:
            worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst
