"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tracked value is a 2-D numpy array; scalars are (1, 1). Operations
link outputs to their inputs, and `backward` replays the implicit tape in
reverse topological order, accumulating d(root)/d(leaf) into `.grad`.
Only leaves (tensors made from values, such as parameters and inputs) hold
a `.grad` buffer; an operation's result has `grad = None` and passes its
adjoint on to its inputs. Gradients keep accumulating across calls until
`zero_grad`.

Numerical guards (they keep gradients finite near singular points):
  * arcosh arguments are clamped to >= 1 + 1e-12
  * artanh arguments are clamped to magnitude <= 1 - 1e-7
  * divisor magnitudes are floored at 1e-15 (sign preserved); an exact
    zero divisor raises DomainError
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DomainError, ShapeError

ARCOSH_MIN = 1.0 + 1e-12
ARTANH_MAX = 1.0 - 1e-7
DIV_FLOOR = 1e-15


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

    __slots__ = ("values", "grad", "_parents", "_vjp", "_adj")

    def __init__(self, values, _parents=(), _vjp=None):
        self.values = _as_matrix(values)
        self.grad = np.zeros_like(self.values) if _vjp is None else None
        self._parents = _parents
        self._vjp = _vjp
        self._adj = None

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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return neg(self)


def _unbroadcast(g, shape):
    """Sum g over the axes that were broadcast up from `shape`."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _values(x):
    return x.values if isinstance(x, Tensor) else _as_matrix(x)


def _record(a, b, v, da, db):
    """The result v of a binary op, linked to whichever operands are Tensors.

    da(g) and db(g) give each operand's adjoint from the result's adjoint g;
    it is then summed back over the axes that broadcasting added.
    """
    links = [(x, d, x.values.shape) for x, d in ((a, da), (b, db)) if isinstance(x, Tensor)]
    if not links:
        return Tensor(v)
    parents = tuple(x for x, _, _ in links)
    return Tensor(v, parents, lambda g: tuple(_unbroadcast(d(g), sh) for _, d, sh in links))


def _broadcast(name, op, av, bv):
    try:
        return op(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: cannot broadcast {av.shape} with {bv.shape}") from None


def add(a, b):
    av, bv = _values(a), _values(b)
    return _record(a, b, _broadcast("add", np.add, av, bv), lambda g: g, lambda g: g)


def sub(a, b):
    av, bv = _values(a), _values(b)
    return _record(a, b, _broadcast("sub", np.subtract, av, bv), lambda g: g, lambda g: -g)


def neg(x):
    return Tensor(-x.values, (x,), lambda g: (-g,))


def mul(a, b):
    av, bv = _values(a), _values(b)
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
    av, bv = _values(a), _floored_divisor(_values(b))
    v = _broadcast("div", np.divide, av, bv)
    return _record(a, b, v, lambda g: g / bv, lambda g: -g * v / bv)


def matmul(a, b):
    av, bv = _values(a), _values(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {av.shape} @ {bv.shape}")
    return _record(a, b, av @ bv, lambda g: g @ bv.T, lambda g: av.T @ g)


def powc(x, p):
    """x ** p for a constant float exponent."""
    xv = x.values
    if p != int(p) and (xv < 0).any():
        raise DomainError(f"powc: negative base with fractional exponent {p}")
    v = xv ** p
    return Tensor(v, (x,), lambda g: (g * p * xv ** (p - 1.0),))


def tanh(x):
    v = np.tanh(x.values)
    return Tensor(v, (x,), lambda g: (g * (1.0 - v * v),))


def artanh(x):
    xc = np.clip(x.values, -ARTANH_MAX, ARTANH_MAX)
    v = np.arctanh(xc)
    return Tensor(v, (x,), lambda g: (g / (1.0 - xc * xc),))


def arcosh(x):
    xc = np.maximum(x.values, ARCOSH_MIN)
    v = np.arccosh(xc)
    return Tensor(v, (x,), lambda g: (g / np.sqrt(xc * xc - 1.0),))


def sigmoid(x):
    # clipping at +-500 avoids exp overflow without changing any representable output
    v = 1.0 / (1.0 + np.exp(-np.clip(x.values, -500.0, 500.0)))
    return Tensor(v, (x,), lambda g: (g * v * (1.0 - v),))


def relu(x):
    xv = x.values
    v = np.maximum(xv, 0.0)
    return Tensor(v, (x,), lambda g: (g * (xv > 0.0),))


def leaky_relu(x, slope=0.2):
    xv = x.values
    v = np.where(xv > 0.0, xv, slope * xv)
    return Tensor(v, (x,), lambda g: (g * np.where(xv > 0.0, 1.0, slope),))


def exp(x):
    v = np.exp(x.values)
    return Tensor(v, (x,), lambda g: (g * v,))


def log(x):
    xv = x.values
    lo = xv.min() if xv.size else 1.0
    if lo <= 0.0:
        raise DomainError(f"log: argument must be positive, got {lo}")
    return Tensor(np.log(xv), (x,), lambda g: (g / xv,))


def rownorm(x):
    """Euclidean norm of each row, shape (n, 1)."""
    xv = x.values
    v = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    safe = np.maximum(v, DIV_FLOOR)
    return Tensor(v, (x,), lambda g: (g * xv / safe,))


def clip_min(x, floor):
    """max(x, floor) elementwise; gradient passes where x >= floor."""
    xv = x.values
    v = np.maximum(xv, floor)
    return Tensor(v, (x,), lambda g: (g * (xv >= floor),))


def asum(x, axis=None):
    sh = x.values.shape
    v = x.values.sum(axis=axis, keepdims=True)
    return Tensor(v, (x,), lambda g: (np.broadcast_to(g, sh),))


def amean(x, axis=None):
    xv = x.values
    sh = xv.shape
    inv = 1.0 / (xv.size if axis is None else sh[axis])
    v = xv.mean(axis=axis, keepdims=True)
    return Tensor(v, (x,), lambda g: (np.broadcast_to(g, sh) * inv,))


def amax(x, axis=None):
    """Max reduction; the gradient routes to the first max entry per slice."""
    xv = x.values
    v = xv.max(axis=axis, keepdims=True)
    mask = np.zeros_like(xv)
    if axis is None:
        mask.flat[int(np.argmax(xv))] = 1.0
    else:
        np.put_along_axis(mask, np.argmax(xv, axis=axis, keepdims=True), 1.0, axis=axis)
    return Tensor(v, (x,), lambda g: (g * mask,))


def _concat(name, parts, axis):
    """Join tensors along axis (their other dimension must agree); one part
    comes back as it is."""
    if not parts:
        raise ContractError(f"{name}: empty part list")
    if len(parts) == 1:
        return parts[0]
    shapes = [p.shape for p in parts]
    if len({sh[1 - axis] for sh in shapes}) != 1:
        raise ShapeError(f"{name}: {('row', 'column')[1 - axis]} counts differ, {shapes}")
    bounds = np.cumsum([sh[axis] for sh in shapes])[:-1]
    v = np.concatenate([p.values for p in parts], axis=axis)
    return Tensor(v, tuple(parts), lambda g: tuple(np.split(g, bounds, axis=axis)))


def concat_cols(parts):
    """Concatenate tensors along columns (all must share the row count)."""
    return _concat("concat_cols", parts, axis=1)


def concat_rows(parts):
    """Stack tensors along rows (all must share the column count)."""
    return _concat("concat_rows", parts, axis=0)


def transpose(x):
    return Tensor(x.values.T.copy(), (x,), lambda g: (g.T,))


def backward(root):
    """Accumulate d(root)/d(t) into t.grad for every leaf t reachable from root.

    Each call computes its own adjoints and adds them in, so repeated calls
    without zero_grad sum exactly.
    """
    if root.values.shape != (1, 1):
        raise ContractError(f"backward root must be 1x1, got {root.values.shape}")
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root._adj = np.ones((1, 1))
    for node in reversed(topo):
        adj = node._adj
        node._adj = None
        if adj is None:
            continue
        if node._vjp is None:
            node.grad += adj
            continue
        for parent, contrib in zip(node._parents, node._vjp(adj)):
            # never mutate adjoint arrays in place: contributions may alias
            parent._adj = contrib if parent._adj is None else parent._adj + contrib


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


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
