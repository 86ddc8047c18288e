"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array (f32 or f64) plus an optional
gradient buffer.  Differentiable primitives record themselves onto the
innermost active ``Tape``; ``backward(loss, tape)`` replays the tape in
reverse and accumulates gradients into every ``requires_grad`` leaf.

The tape is rebuilt on every forward pass (define-by-run).  When no tape
is active the primitives run as plain numpy code, so inference costs no
bookkeeping.

Design notes:
  * gelu uses the tanh approximation 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).
  * conv2d is one primitive: a patch gather (im2col) feeding one matmul;
    depthwise_conv2d is one primitive over the same gather.
  * attention is one primitive over a stacked [3, B, L, d] projection.
  * Upsamplers are compositions, not primitives: bilinear is two ``matmul``s
    against fixed interpolation matrices, and CARAFE (``carafe.py``) is
    ``patches``, a batched ``matmul`` and ``pixel_shuffle``.
  * Forward ops never check for NaN/Inf; ``backward`` validates the loss
    and names the first op with a non-finite output.
  * The tape keeps only what a gradient reads.  Each entry holds its inputs,
    its output and a closure over the arrays its gradient needs; gelu keeps
    only its input and recomputes tanh, patches keeps only the padded shape,
    linear and conv2d add their bias in place so no pre-bias product is kept,
    conv2d and depthwise_conv2d keep their im2col, and attention keeps only
    the L x L probabilities.
    ``reshape`` returns a view (all tensor data is C-contiguous).
    ``backward`` pops each entry once its gradient has run, so activations
    are freed as the reverse walk passes them instead of when it returns.
  * gelu, layer_norm and softmax compute in place: forward and backward each
    allocate their output and at most two scratch arrays, and write only into
    those, never into the upstream gradient (it may be a view shared with
    another op's gradient).  They keep the order of operations of the plain
    expressions, so results are bitwise equal to them.
  * Freed memory stays in the process.  glibc returns blocks above its mmap
    threshold to the kernel when they are freed and trims the top of the heap,
    so each taped step would fault its activations in again, page by page.
    On glibc, importing this module sets M_MMAP_THRESHOLD and then
    M_TRIM_THRESHOLD to 1 GiB for the whole process (the trim threshold alone
    switches off glibc's dynamic mmap threshold, which faults far more).  The
    process's RSS then does not shrink after a peak.  Elsewhere (macOS,
    Windows, musl) nothing is changed.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import write_atomic
from .errors import ContractError, DimensionError, FormatError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_KEPT_BYTES = 1 << 30


def _keep_freed_memory() -> bool:
    """Pin glibc's mmap and trim thresholds at 1 GiB; True if both were set."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):  # a glibc-only name
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold only once the mmap one holds: alone, it faults far more
    return mallopt(_M_MMAP_THRESHOLD, _KEPT_BYTES) == 1 and mallopt(_M_TRIM_THRESHOLD, _KEPT_BYTES) == 1


_FREED_MEMORY_KEPT = _keep_freed_memory()


class Tensor:
    """Dense N-dimensional array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype: Optional[str] = None, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        np_dtype = DTYPES[dtype] if dtype is not None else None
        arr = np.asarray(data, dtype=np_dtype)
        if arr.dtype not in _DTYPE_NAMES:
            arr = arr.astype(np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(shape: Sequence[int], dtype: str = "f32") -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DTYPES[dtype]))

    @staticmethod
    def ones(shape: Sequence[int], dtype: str = "f32") -> "Tensor":
        return Tensor(np.ones(shape, dtype=DTYPES[dtype]))

    # -- introspection --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self.data.dtype]

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar (differentiable) --------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __rmul__(self, other):
        return mul(self._coerce(other), self)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Usage::

        with Tape() as tape:
            loss = model_forward(...)
        backward(loss, tape)

    Entries are appended in execution order, so inputs of every op precede
    it and the backward pass can walk the list once, in reverse.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.entries: list[tuple] = []  # (inputs, output, grad_fn, opname)
        self._produced: set[int] = set()
        self.consumed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._stack.pop()

    @staticmethod
    def active() -> Optional["Tape"]:
        return Tape._stack[-1] if Tape._stack else None


def _emit(opname: str, inputs: tuple, out_data: np.ndarray, grad_fn: Callable) -> Tensor:
    """Wrap a primitive's result, recording it if a tape wants gradients.

    ``out_data`` must be a C-contiguous array of the inputs' dtype: the output
    skips ``Tensor.__init__``'s coercions, only numpy scalars become 0-d arrays.
    ``grad_fn(g)`` must return one gradient array (or None) per input.
    """
    if type(out_data) is not np.ndarray:
        out_data = np.asarray(out_data)
    out = object.__new__(Tensor)
    out.data = out_data
    out.grad = None
    # recorded outputs are marked requires_grad, so this also tracks them
    out.requires_grad = bool(Tape._stack) and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        tape = Tape._stack[-1]
        tape.entries.append((inputs, out, grad_fn, opname))
        tape._produced.add(id(out))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Propagate d(loss)/d(x) into the grad slot of every requires_grad leaf."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("backward already ran on this tape; record a new forward pass")
    if not np.isfinite(loss.data).all():
        for inputs, out, _fn, opname in tape.entries:
            if not np.isfinite(out.data).all():
                raise NumericError(f"non-finite loss; first non-finite output produced by op '{opname}'")
        raise NumericError("non-finite loss with no recorded producer")
    tape.consumed = True

    # popping frees each entry's inputs, output and closure as soon as its
    # gradient has run; backward creates no Tensors, so the id() keys stay unique
    entries, tape.entries = tape.entries, []
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    while entries:
        inputs, out, grad_fn, _opname = entries.pop()
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, grad_fn(g)):
            if gi is None or not t.requires_grad:  # constants need no gradient
                continue
            key = id(t)
            grads[key] = grads[key] + gi if key in grads else gi
            if key not in tape._produced:
                leaves[key] = t
    for key, t in leaves.items():
        g = grads[key].astype(t.data.dtype, copy=False)
        t.grad = g if t.grad is None else t.grad + g


# -- broadcasting helpers ------------------------------------------------------


def _check_dtypes(opname: str, *ts: Tensor) -> None:
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise DimensionError(f"{opname}: mixed dtypes {_DTYPE_NAMES[d0]} vs {t.dtype}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise primitives ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("add", a, b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def grad_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", (a, b), out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def grad_fn(g):  # constants (requires_grad false) get no gradient
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        return ga, _unbroadcast(g * a.data, b.shape) if b.requires_grad else None

    return _emit("mul", (a, b), out, grad_fn)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """tanh(C * (x + A*x*x*x)) in one new array."""
    t = np.multiply(xd, _GELU_A)  # float32 ** takes numpy's slow pow loop
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation.  Backward recomputes tanh from the input
    rather than keeping it."""
    xd = x.data
    out = np.multiply(xd, 0.5)
    t = _gelu_tanh(xd)
    t += 1.0
    out *= t  # (0.5*x) * (1 + t)

    def grad_fn(g):
        t = _gelu_tanh(xd)
        s = np.multiply(t, t)
        np.subtract(1.0, s, out=s)
        dx = np.multiply(xd, 0.5)
        dx *= s  # (0.5*x) * (1 - t*t)
        np.multiply(xd, 3.0 * _GELU_A, out=s)
        s *= xd
        s += 1.0
        s *= _GELU_C  # du = C * (1 + 3A*x*x)
        dx *= s
        t += 1.0
        t *= 0.5
        dx += t  # 0.5*(1 + t) + (0.5*x)*(1 - t*t)*du
        dx *= g
        return (dx,)

    return _emit("gelu", (x,), out, grad_fn)


# -- reductions ----------------------------------------------------------------


def tsum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    """Sum over one axis, or over everything when axis is None."""
    out = x.data.sum(axis=axis)

    def grad_fn(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _emit("sum", (x,), out, grad_fn)


# -- structural primitives -----------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _emit("reshape", (x,), x.data.reshape(shape), grad_fn)


def permute(x: Tensor, order: Sequence[int]) -> Tensor:
    order = tuple(order)
    if sorted(order) != list(range(x.ndim)):
        raise DimensionError(f"permute: order {order} is not a permutation of {x.ndim} axes")
    inverse = np.argsort(order)

    def grad_fn(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _emit("permute", (x,), np.ascontiguousarray(x.data.transpose(order)), grad_fn)


def concat(ts: Sequence[Tensor], axis: int) -> Tensor:
    if not ts:
        raise DimensionError("concat of zero tensors")
    _check_dtypes("concat", *ts)
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat: {e}") from e
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _emit("concat", tuple(ts), out, grad_fn)


def split(x: Tensor, sizes: Sequence[int], axis: int) -> list[Tensor]:
    """Split into consecutive chunks of the given sizes (must cover the axis)."""
    if sum(sizes) != x.shape[axis]:
        raise DimensionError(f"split: sizes {list(sizes)} do not cover axis of extent {x.shape[axis]}")
    offsets = np.cumsum(sizes)[:-1]
    parts = np.split(x.data, offsets, axis=axis)
    outs = []
    for i, p in enumerate(parts):
        def grad_fn(g, i=i):
            full = np.zeros_like(x.data)
            np.split(full, offsets, axis=axis)[i][...] = g  # the chunk is a view of full
            return (full,)

        outs.append(_emit("split", (x,), np.ascontiguousarray(p), grad_fn))
    return outs


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  Leading batch axes may sit on either operand when the
    other is 2-D, or both operands may share identical leading axes."""
    _check_dtypes("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch axes differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def grad_fn(g):  # constants (requires_grad false) get no gradient
        ga = gb = None
        if a.requires_grad and a.ndim == 2 and b.ndim > 2:
            # one contraction over b's batch axes and the shared output axis
            axes = list(range(b.ndim - 2)) + [-1]
            ga = np.tensordot(g, b.data, axes=(axes, axes))
        elif a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.requires_grad and b.ndim == 2 and a.ndim > 2:
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ga, gb

    return _emit("matmul", (a, b), out, grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [..., Cin] @ w [Cin, Cout] + b [Cout] as one primitive: the bias is
    added in place, so the tape keeps no pre-bias product."""
    _check_dtypes("linear", x, w, b)
    if w.ndim != 2 or x.ndim < 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear needs [..., Cin] @ [Cin, Cout] + [Cout], got {x.shape} @ {w.shape} + {b.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data

    def grad_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        gw = x.data.reshape(-1, x.shape[-1]).T @ g2
        return np.matmul(g, w.data.T), gw, g2.sum(axis=0)

    return _emit("linear", (x, w, b), out, grad_fn)


# -- normalization and attention scalars ---------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max subtraction)."""
    if x.shape[axis] == 0:
        raise DimensionError("softmax over an empty axis")
    y = np.subtract(x.data, x.data.max(axis=axis, keepdims=True))
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        gx = np.multiply(g, y)
        dot = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return _emit("softmax", (x,), y, grad_fn)


def attention(qkv: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v of a stacked [3, B, L, d] projection -> [B, L, d].

    Scores are scaled and normalized in place: the entry keeps q, k, v (views
    of the input) and the probabilities; its gradient is one array like qkv."""
    if qkv.ndim != 4 or qkv.shape[0] != 3 or qkv.shape[2] == 0:
        raise DimensionError(f"attention expects a stacked [3, B, L, d] projection, got {qkv.shape}")
    q, k, v = qkv.data
    scale = qkv.data.dtype.type(1.0 / np.sqrt(qkv.shape[3]))
    p = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)  # softmax over keys, max-shifted
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        gqkv = np.empty_like(qkv.data)
        gs = np.matmul(g, np.swapaxes(v, -1, -2))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        np.matmul(gs, k, out=gqkv[0])
        gqkv[1] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)
        np.matmul(np.swapaxes(p, -1, -2), g, out=gqkv[2])
        return (gqkv,)

    return _emit("attention", (qkv,), np.matmul(p, v), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    c = x.shape[-1]
    if c == 0:
        raise DimensionError("layer_norm over zero channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
    _check_dtypes("layer_norm", x, gamma, beta)
    xhat = np.subtract(x.data, x.data.mean(axis=-1, keepdims=True))
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(gamma.data, xhat, out=out)
    out += beta.data

    def grad_fn(g):
        s = np.multiply(g, xhat)
        dgamma = s.reshape(-1, c).sum(axis=0)
        dbeta = g.reshape(-1, c).sum(axis=0)
        dx = np.multiply(g, gamma.data)  # dxhat
        np.multiply(dx, xhat, out=s)
        np.multiply(xhat, s.mean(axis=-1, keepdims=True), out=s)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= s
        dx *= inv  # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        return dx, dgamma, dbeta

    return _emit("layer_norm", (x, gamma, beta), out, grad_fn)


# -- convolution machinery -----------------------------------------------------


def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    out = (n + 2 * pad - k) // stride + 1
    if out < 1:
        raise DimensionError(f"kernel {k} larger than padded input extent {n + 2 * pad}")
    return out


def _im2col(xd: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, Callable]:
    """im2col [..., H,W,C] -> [..., H',W',kh*kw,C], plus its adjoint: a scatter-add
    back into [..., H,W,C] that keeps only the padded shape, not the input."""
    *lead, h, w, c = xd.shape
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    span = lambda k, n: slice(k, k + stride * n, stride)  # tap i*kw + j starts at row i, column j
    taps = [(..., span(i, ho), span(j, wo), slice(None)) for i in range(kh) for j in range(kw)]
    xp = np.pad(xd, [(0, 0)] * len(lead) + [(padding, padding), (padding, padding), (0, 0)])
    out = np.empty((*lead, ho, wo, kh * kw, c), dtype=xd.dtype)
    for p, tap in enumerate(taps):
        out[..., p, :] = xp[tap]
    xp_shape = xp.shape

    def scatter(g):
        gp = np.zeros(xp_shape, dtype=g.dtype)
        for p, tap in enumerate(taps):
            gp[tap] += g[..., p, :]
        return np.ascontiguousarray(gp[..., padding : padding + h, padding : padding + w, :])

    return out, scatter


def patches(x: Tensor, kh: int, kw: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Gather k x k neighborhoods: [..., H,W,C] -> [..., H',W',kh*kw,C] (im2col).

    Leading axes are batch axes.  Out-of-bounds positions read as zero.  The
    gradient scatter-adds each patch slot back into the padded input.
    """
    if x.ndim < 3:
        raise DimensionError(f"patches expects [..., H,W,C], got {x.shape}")
    out, scatter = _im2col(x.data, kh, kw, stride, padding)
    return _emit("patches", (x,), out, lambda g: (scatter(g),))


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation: x [H,W,Cin], w [kh,kw,Cin,Cout], bias [Cout] -> [H',W',Cout].

    One primitive, an im2col matmul with the bias added in place; the entry
    keeps the im2col (a 1x1 stride-1 unpadded kernel gathers none)."""
    if w.ndim != 4:
        raise DimensionError(f"conv2d weight must be [kh,kw,Cin,Cout], got {w.shape}")
    kh, kw, cin, cout = w.shape
    if x.ndim != 3 or x.shape[2] != cin:
        raise DimensionError(f"conv2d: input {x.shape} does not match weight {w.shape}")
    if bias.shape != (cout,):
        raise DimensionError(f"conv2d: bias {bias.shape} does not match weight {w.shape}")
    _check_dtypes("conv2d", x, w, bias)
    direct = (kh, kw, stride, padding) == (1, 1, 1, 0)  # every pixel is its own patch
    cols, scatter = (x.data, lambda gc: gc.reshape(x.shape)) if direct else _im2col(x.data, kh, kw, stride, padding)
    ho, wo = cols.shape[0], cols.shape[1]
    cols = cols.reshape(ho * wo, kh * kw * cin)
    w2 = w.data.reshape(kh * kw * cin, cout)
    out = np.matmul(cols, w2)
    out += bias.data

    def grad_fn(g):  # a constant input (the image) gets no gradient
        g2 = g.reshape(ho * wo, cout)
        gx = scatter(np.matmul(g2, w2.T).reshape(ho, wo, kh * kw, cin)) if x.requires_grad else None
        return gx, (cols.T @ g2).reshape(w.shape), g2.sum(axis=0)

    return _emit("conv2d", (x, w, bias), out.reshape(ho, wo, cout), grad_fn)


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel convolution: x [..., H,W,C], w [..., kh,kw,C] -> [..., H',W',C].

    Leading axes are batch axes; those of w broadcast against those of x, so
    batch elements may share one kernel or each have their own.  One
    primitive: the entry keeps the im2col and a view of w, not their product.
    """
    if w.ndim < 3:
        raise DimensionError(f"depthwise weight must be [..., kh,kw,C], got {w.shape}")
    kh, kw, c = w.shape[-3:]
    if x.ndim < 3 or x.shape[-1] != c:
        raise DimensionError(f"depthwise_conv2d: input {x.shape} does not match weight {w.shape}")
    _check_dtypes("depthwise_conv2d", x, w)
    cols, scatter = _im2col(x.data, kh, kw, stride, padding)  # [..., H',W',k*k,C]
    wk = w.data.reshape(w.shape[:-3] + (1, 1, kh * kw, c))
    try:
        out = (cols * wk).sum(axis=-2)
    except ValueError as e:
        raise DimensionError(f"depthwise_conv2d: batch axes of {x.shape} and {w.shape} do not broadcast") from e

    def grad_fn(g):  # g broadcast over the kernel slots is the product's gradient
        gp = np.broadcast_to(np.expand_dims(g, -2), g.shape[:-1] + (kh * kw, c))
        gx = scatter(_unbroadcast(gp * wk, cols.shape)) if x.requires_grad else None
        gw = _unbroadcast(gp * cols, wk.shape).reshape(w.shape) if w.requires_grad else None
        return gx, gw

    return _emit("depthwise_conv2d", (x, w), out, grad_fn)


def _interp_matrix(n: int, factor: int, dtype) -> np.ndarray:
    """[factor*n, n] linear-interpolation weights: output i samples source
    coordinate (i + 0.5)/factor - 0.5 (half-pixel centres), clamped to the
    edge pixels."""
    src = np.clip((np.arange(n * factor) + 0.5) / factor - 0.5, 0, n - 1)
    return np.maximum(0.0, 1.0 - np.abs(src[:, None] - np.arange(n))).astype(dtype)


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling of [H,W,C] by an integer factor: one matmul along
    the rows, one along the columns, against fixed interpolation matrices."""
    if x.ndim != 3:
        raise DimensionError(f"upsample_bilinear expects [H,W,C], got {x.shape}")
    h, w, c = x.shape
    dtype = x.data.dtype
    rows = matmul(Tensor(_interp_matrix(h, factor, dtype)), reshape(x, (h, w * c)))
    return matmul(Tensor(_interp_matrix(w, factor, dtype)), reshape(rows, (factor * h, w, c)))


def pixel_shuffle(x: Tensor, factor: int, tail: int) -> Tensor:
    """Move factor^2 channel groups to space: [H,W,factor^2*tail] -> [fH,fW,tail].

    Channel index (di*factor + dj)*tail + t lands at output pixel
    (i*factor + di, j*factor + dj), slot t.  Frozen layout; checkpoints
    depend on it.
    """
    h, w, c = x.shape
    if c != factor * factor * tail:
        raise DimensionError(f"pixel_shuffle: {c} channels != {factor}^2 * {tail}")
    y = reshape(x, (h, w, factor, factor, tail))
    y = permute(y, (0, 2, 1, 3, 4))
    return reshape(y, (h * factor, w * factor, tail))


# -- serialization (TSR1) ------------------------------------------------------

_TSR1_MAGIC = b"TSR1\x00\x00\x00\x00"
_DTYPE_CODES = {"f32": 0, "f64": 1}
_CODE_DTYPES = {0: np.float32, 1: np.float64}
_MAX_RANK = 32  # numpy 1's limit on dimensions


def tensor_record(t: Tensor) -> tuple[bytes, np.ndarray]:
    """One TSR1 record as (header bytes, payload): the payload is a flat byte
    view of the little-endian data, so a little-endian array is not copied."""
    head = _TSR1_MAGIC + struct.pack(f"<I{t.ndim}QB", t.ndim, *t.shape, _DTYPE_CODES[t.dtype])
    body = np.ascontiguousarray(t.data).astype(t.data.dtype.newbyteorder("<"), copy=False)
    return head, body.reshape(-1).view(np.uint8)


def read_record(f, size: int) -> Tensor:
    """Read one TSR1 record of exactly ``size`` bytes from binary file ``f``.

    The header is checked against ``size`` before anything is allocated, then
    the payload is read straight into the tensor's array: one copy, from the
    file into its final place.  A record that is shorter or longer than
    ``size`` raises ``FormatError``.
    """
    head = f.read(min(size, 12))
    if len(head) < 12 or head[:8] != _TSR1_MAGIC:
        raise FormatError("not a TSR1 tensor (bad magic)")
    (rank,) = struct.unpack_from("<I", head, 8)
    off = 12 + 8 * rank + 1
    if off > size:
        raise FormatError("TSR1 tensor truncated in header")
    if rank > _MAX_RANK:
        raise FormatError(f"TSR1: rank {rank} exceeds {_MAX_RANK}")
    tail = f.read(off - 12)
    if len(tail) < off - 12:
        raise FormatError("TSR1 tensor truncated in header")
    shape, code = struct.unpack_from(f"<{rank}Q", tail), tail[-1]
    if code not in _CODE_DTYPES:
        raise FormatError(f"TSR1: unknown dtype code {code}")
    dt = np.dtype(_CODE_DTYPES[code]).newbyteorder("<")
    nbytes = math.prod(shape) * dt.itemsize  # Python ints: np.prod would wrap at 2**63
    if off + nbytes > size:
        raise FormatError("TSR1 tensor truncated in payload")
    if off + nbytes < size:
        raise FormatError(f"TSR1 record is {off + nbytes} bytes, not {size}")
    data = np.empty(shape, dtype=dt)
    buf, done = data.reshape(-1).view(np.uint8), 0
    while done < nbytes:
        n = f.readinto(buf[done:])
        if not n:
            raise FormatError("TSR1 tensor truncated in payload")
        done += n
    return Tensor(data.astype(_CODE_DTYPES[code], copy=False))


def save_tensor(path, t: Tensor) -> None:
    write_atomic(path, tensor_record(t))


def load_tensor(path) -> Tensor:
    """Read a TSR1 file; the file must hold exactly one record."""
    with open(path, "rb") as f:
        return read_record(f, os.fstat(f.fileno()).st_size)
