"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array; scalars are (1, 1). A constant stays a
plain array, and an operation whose operands are all arrays returns a plain
array, so constants never reach the tape. Only Tensors made from values
(parameters, and inputs a caller wants gradients for) are leaves and hold a
`.grad` buffer; an operation on at least one Tensor returns a Tensor linked
to its Tensor operands, with `grad = None`, that passes its adjoint on.
`link` builds every such node: the primitives here and the fused ops.
Tensors are numbered as they are created, so every operation is newer than
its inputs; `backward` walks the reachable tape newest first, which is a
reverse topological order, and adds d(root)/d(leaf) into each leaf's
`.grad`. Gradients keep accumulating across calls until `zero_grad`.

`Adam` owns its parameters' storage: one flat value buffer and one flat
gradient buffer, of which each parameter's `.values` and `.grad` are
reshaped views. Update parameters in place and never rebind `.values` or
`.grad` of a parameter an optimizer holds.

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
ATTENTION_SLOPE = 0.2  # LeakyReLU slope of block_aggregate's attention scores
_MASK_OFFSET = 1e4     # pushes scores outside the attention mask below any real one

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


def link(parts, v, vjp):
    """The result v of an op on the operands `parts`, linked to the parts
    that are Tensors, else a plain array; every tape node is built here.
    vjp(g) gives one adjoint per part, in order, where a part that is not a
    Tensor may get None; each adjoint is summed back over the axes its part
    was broadcast along.

    Tape tuples are built from lists: CPython allocates tuple(generator)
    outside its tuple free lists but frees it into them, so those lists
    would grow a little with every step up to their cap.
    """
    linked = [isinstance(p, Tensor) for p in parts]
    if not any(linked):
        return v
    kept = tuple([p for p, keep in zip(parts, linked) if keep])
    shapes = [p.values.shape for p in kept]
    return Tensor(v, kept, lambda g: tuple([
        _unbroadcast(d, sh) for d, sh in zip(itertools.compress(vjp(g), linked), shapes)]))


def _broadcast(name, op, av, bv):
    try:
        return op(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: cannot broadcast {av.shape} with {bv.shape}") from None


def add(a, b):
    av, bv = values_of(a), values_of(b)
    return link((a, b), _broadcast("add", np.add, av, bv), lambda g: (g, g))


def sub(a, b):
    av, bv = values_of(a), values_of(b)
    return link((a, b), _broadcast("sub", np.subtract, av, bv), lambda g: (g, -g))


def neg(x):
    return link((x,), -values_of(x), lambda g: (-g,))


def mul(a, b):
    av, bv = values_of(a), values_of(b)
    return link((a, b), _broadcast("mul", np.multiply, av, bv), lambda g: (g * bv, g * av))


def floored_divisor(bv):
    """bv with magnitudes floored at DIV_FLOOR, signs kept; an exact zero
    raises DomainError."""
    small = np.minimum.reduce(np.abs(bv), axis=None) if bv.size else 1.0
    if small == 0.0:
        raise DomainError("div: divisor contains an exact zero")
    if small < DIV_FLOOR:
        return np.sign(bv) * np.maximum(np.abs(bv), DIV_FLOOR)
    return bv


def div(a, b):
    av, bv = values_of(a), floored_divisor(values_of(b))
    v = _broadcast("div", np.divide, av, bv)
    return link((a, b), v, lambda g: (g / bv, -g * v / bv))


def matmul(a, b):
    av, bv = values_of(a), values_of(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {av.shape} @ {bv.shape}")
    need_a, need_b = isinstance(a, Tensor), isinstance(b, Tensor)  # no adjoint for a constant
    return link((a, b), av @ bv, lambda g: (g @ bv.T if need_a else None,
                                            av.T @ g if need_b else None))


def powc(x, p):
    """x ** p for a constant float exponent."""
    xv = values_of(x)
    if p != int(p) and (xv < 0).any():
        raise DomainError(f"powc: negative base with fractional exponent {p}")
    v = xv ** p
    return link((x,), v, lambda g: (g * p * xv ** (p - 1.0),))


def tanh(x):
    v = np.tanh(values_of(x))
    return link((x,), v, lambda g: (g * (1.0 - v * v),))


def artanh(x):
    xc = np.clip(values_of(x), -ARTANH_MAX, ARTANH_MAX)
    v = np.arctanh(xc)
    return link((x,), v, lambda g: (g / (1.0 - xc * xc),))


def arcosh(x):
    xc = np.maximum(values_of(x), ARCOSH_MIN)
    v = np.arccosh(xc)
    return link((x,), v, lambda g: (g / np.sqrt(xc * xc - 1.0),))


def sigmoid_rows(xv):
    """`sigmoid` on an array, for fused ops: the values and vjp(g), the
    adjoint of xv."""
    # clipping at +-500 avoids exp overflow without changing any representable output
    v = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(xv, -500.0), 500.0)))
    return v, lambda g: g * v * (1.0 - v)


def sigmoid(x):
    v, vjp = sigmoid_rows(values_of(x))
    return link((x,), v, lambda g: (vjp(g),))


def relu(x):
    xv = values_of(x)
    v = np.maximum(xv, 0.0)
    return link((x,), v, lambda g: (g * (xv > 0.0),))


def leaky_relu(x, slope=0.2):
    xv = values_of(x)
    v = np.where(xv > 0.0, xv, slope * xv)
    return link((x,), v, lambda g: (g * np.where(xv > 0.0, 1.0, slope),))


def exp(x):
    v = np.exp(values_of(x))
    return link((x,), v, lambda g: (g * v,))


def log(x):
    xv = values_of(x)
    lo = xv.min() if xv.size else 1.0
    if lo <= 0.0:
        raise DomainError(f"log: argument must be positive, got {lo}")
    return link((x,), np.log(xv), lambda g: (g / xv,))


def rownorm(x):
    """Euclidean norm of each row, shape (n, 1)."""
    xv = values_of(x)
    v = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    safe = np.maximum(v, DIV_FLOOR)
    return link((x,), v, lambda g: (g * xv / safe,))


def clip_min(x, floor):
    """max(x, floor) elementwise; gradient passes where x >= floor."""
    xv = values_of(x)
    v = np.maximum(xv, floor)
    return link((x,), v, lambda g: (g * (xv >= floor),))


def asum(x, axis=None):
    xv = values_of(x)
    sh = xv.shape
    return link((x,), xv.sum(axis=axis, keepdims=True), lambda g: (np.broadcast_to(g, sh),))


def amean(x, axis=None):
    xv = values_of(x)
    sh = xv.shape
    inv = 1.0 / (xv.size if axis is None else sh[axis])
    v = xv.mean(axis=axis, keepdims=True)
    return link((x,), v, lambda g: (np.broadcast_to(g, sh) * inv,))


def amax(x, axis=None):
    """Max reduction; the gradient routes to the first max entry per slice."""
    xv = values_of(x)
    v = xv.max(axis=axis, keepdims=True)
    mask = np.zeros_like(xv)
    if axis is None:
        mask.flat[int(np.argmax(xv))] = 1.0
    else:
        np.put_along_axis(mask, np.argmax(xv, axis=axis, keepdims=True), 1.0, axis=axis)
    return link((x,), v, lambda g: (g * mask,))


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
    bounds = np.cumsum([sh[axis] for sh in shapes])[:-1]
    return link(parts, np.concatenate(arrays, axis=axis),
                lambda g: np.split(g, bounds, axis=axis))


def concat_cols(parts):
    """Concatenate tensors along columns (all must share the row count)."""
    return _concat("concat_cols", parts, axis=1)


def concat_rows(parts):
    """Stack tensors along rows (all must share the column count)."""
    return _concat("concat_rows", parts, axis=0)


def transpose(x):
    return link((x,), values_of(x).T.copy(), lambda g: (g.T,))


def take_rows(x, rows):
    """The rows of x picked by the index array rows (repeats allowed); the
    VJP scatter-adds each row's adjoint back to where it came from."""
    xv = values_of(x)

    def vjp(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, rows, g)
        return (gx,)

    return link((x,), xv[rows], vjp)


def block_aggregate(x, slots, ops, scores=None):
    """Per-graph products ops[b] @ X_b over the node rows of B graphs stacked
    graph after graph in x, as one tape node.

    slots[r] is row r's place b * n_max + i in a zero-padded (B, n_max, cols)
    block, and ops is the constant (B, n_max, n_max) stack of per-graph
    operators, zero outside each graph's own corner. The rows are scattered
    into the block, multiplied by one 3-D matmul and gathered back, so pad
    rows exist only inside this op and never reach its result.

    With scores = (s, t), two (rows, 1) columns, ops is a 0/1 mask and the
    operator is the attention row-softmax of LeakyReLU(ATTENTION_SLOPE)(s_i + t_j)
    over the entries row i's mask keeps. A pad row keeps no entry; its
    weights stay zero instead of being divided by an empty sum.
    """
    v, vjp = block_product(values_of(x), slots, ops,
                           scores and tuple([values_of(c) for c in scores]))
    need_x = isinstance(x, Tensor)
    return link((x, *(scores or ())), v, lambda g: vjp(g, need_x))


def block_product(xv, slots, ops, scores=None):
    """`block_aggregate` on arrays, for fused ops that build their own node:
    the product and vjp(g, need_x), which gives x's adjoint (None unless
    need_x) followed, with scores, by the adjoints of s and t."""
    count, n_max, _ = ops.shape
    if xv.shape[0] != len(slots):
        raise ShapeError(f"block_aggregate: {xv.shape[0]} rows for {len(slots)} slots")

    def scatter(a):
        block = np.zeros((count * n_max, a.shape[1]))
        block[slots] = a
        return block.reshape(count, n_max, a.shape[1])

    def gather(block):
        return block.reshape(count * n_max, -1)[slots]

    xb = scatter(xv)
    if scores is None:
        w = ops
    else:
        s, t = (scatter(c) for c in scores)
        pre = s + t.transpose(0, 2, 1)
        masked = np.where(pre > 0.0, pre, ATTENTION_SLOPE * pre) * ops - _MASK_OFFSET * (1.0 - ops)
        kept = np.exp(masked - masked.max(axis=2, keepdims=True)) * ops
        total = kept.sum(axis=2, keepdims=True)
        w = kept / np.where(total > 0.0, total, 1.0)

    def vjp(g, need_x=True):
        gb = scatter(g)
        gx = gather(w.transpose(0, 2, 1) @ gb) if need_x else None
        if scores is None:
            return (gx,)
        gw = gb @ xb.transpose(0, 2, 1)
        gpre = w * (gw - (w * gw).sum(axis=2, keepdims=True))
        gpre *= np.where(pre > 0.0, 1.0, ATTENTION_SLOPE)
        return gx, gather(gpre.sum(axis=2)), gather(gpre.sum(axis=1))

    return gather(w @ xb), vjp


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
    """Adam with decoupled weight decay over flat buffers.

    Each parameter's `.values` and `.grad` become reshaped views into the
    optimizer's flat buffers (see the module docstring), and a later Adam
    over the same parameters takes them over. A step is a few whole-buffer
    operations, bit-identical to the same update looped over each
    parameter's own arrays, since the arithmetic is elementwise.

    Moments start at zero and are bias-corrected; decay multiplies parameters
    by (1 - lr * wd) independently of the gradient, so a zero-gradient step
    still shrinks weights. Stepping with no parameters is a no-op.
    """

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam: a parameter is listed more than once")
        if any(p.grad is None for p in self.params):
            raise ContractError("Adam: parameters must be leaf Tensors")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.values = np.concatenate([p.values.ravel() for p in self.params] + [np.zeros(0)])
        self.grad = np.concatenate([p.grad.ravel() for p in self.params] + [np.zeros(0)])
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        end = 0
        for p in self.params:
            start, end = end, end + p.values.size
            p.values = self.values[start:end].reshape(p.values.shape)
            p.grad = self.grad[start:end].reshape(p.grad.shape)

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g = self.grad
        if self.weight_decay:
            self.values -= self.lr * self.weight_decay * self.values
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        self.values -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


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
