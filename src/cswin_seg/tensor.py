"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array (f32 or f64) plus an optional
gradient buffer.  Differentiable primitives record themselves onto the
innermost active ``Tape``; ``backward(loss, tape)`` replays the tape in
reverse and accumulates gradients into every ``requires_grad`` leaf.

The tape is rebuilt on every forward pass (define-by-run).  When no tape
is active the primitives run as plain numpy code, so inference costs no
bookkeeping.

Design notes:
  * Leading batch axes.  Every primitive the model records takes
    [..., H, W, C] maps and treats the leading axes as a batch: conv2d,
    reassemble and the MLP half-block run one matmul over every image's
    rows, and the attention half-block puts heads, batch and stripes on one
    leading attention axis.  A training step records one tape for its whole
    minibatch; a single [H, W, C] image is the same code with no leading
    axis.  Weight gradients reduce over all B*N rows at once, so a batch's
    gradients equal the sum of per-image ones up to rounding, not bitwise.
  * The MLP's gelu uses the tanh approximation
    0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).
  * conv2d is one primitive: a patch gather (im2col) feeding one matmul.
    conv2d_softmax is a conv whose output channel groups are softmax-
    normalized in place (CARAFE's kernel predictor), so its logits are not kept.
  * A CSWin block is two entries, one per residual half-block x + f(layer_norm(x)):
    ``residual_stripe_attention`` records a stripe_attention entry (f is both
    stripe groups, their projections, LePE, head merge and output projection)
    and ``residual_mlp`` an mlp entry (f is both linears and gelu).  No
    stand-alone layer_norm, attention or mlp entry exists: the array kernels
    (``_layer_norm``, ``_stripe``, ``_mlp`` and their backward functions)
    run only inside the half-blocks.
  * Reassembly is one primitive, ``reassemble``; the rest of the CARAFE
    upsampler (``carafe.py``) is core ops.  Bilinear upsampling is the same
    primitive under a fixed 3x3 kernel field (``carafe.bilinear_field``).
  * The im2col gather behind conv2d, reassemble and the LePE term is one
    copy out of a ``sliding_window_view`` of the zero-padded input.
  * Forward ops never check for NaN/Inf; ``backward`` validates the loss
    and names the first op with a non-finite output.
  * The tape keeps only what a gradient reads, and backward rebuilds what is
    cheap to rebuild.  Each entry holds its inputs, its output and a closure
    over the arrays its gradient needs: conv2d keeps only its inputs and
    gathers its im2col again; conv2d_softmax keeps its inputs and the
    normalized result; a half-block keeps x, the norm's per-row mean and
    1/std (not x-hat) and what f reads, and rebuilds layer_norm(x) once for
    both gradients.  f = mlp keeps its pre-activation, not gelu's output;
    f = attention keeps each group's q|k|v and probabilities and the merged
    heads, and transposes the map and gathers the LePE neighborhoods again.
    reassemble keeps only its inputs and gathers again.  ``reshape`` returns
    a view (all tensor data is C-contiguous).  ``backward`` pops each entry
    and drops its own reference to the entry's output before the gradient
    runs, so activations are freed as the reverse walk passes them instead of
    when it returns, and an output no gradient reads is gone before that
    gradient allocates.
  * conv2d_softmax and the half-blocks compute in place: they allocate their
    results and a few scratch arrays and write only into those, never into
    the upstream gradient (it may be a view shared with another op's
    gradient).  They keep the order of operations of the plain expressions,
    or of the composition they replaced, with the row maxima and sums taken
    by the reduction helpers below, so they are bitwise equal to them.
  * Reductions.  numpy reduces a short last axis one row at a time, and the
    model normalizes many short rows: attention over 16-98 keys, CARAFE over
    k_up^2 = 25 slots, layer norm over C channels, the losses over K
    classes.  Every such max, sum and mean goes through three helpers that
    run over all rows at once: ``_rowmax`` folds np.maximum over column
    slices (exactly numpy's max, NaN kept), ``_rowsum`` is one GEMV against
    a vector of ones (a mean divides it in place) and ``_colsum`` (bias and
    affine gradients) a vector of ones times the matrix.  The sums are
    reordered, so they equal numpy's up to rounding, not bitwise.  Each sum
    makes its operand C-contiguous first, so its bits depend only on the
    values and runs stay bitwise reproducible.
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
from numpy.lib.stride_tricks import sliding_window_view

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
        del out  # else this name alone would keep the output alive while grad_fn runs
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


# -- reductions ----------------------------------------------------------------

_FOLD_COLUMNS = 16  # rows this short take their max one column at a time


def _rowmax(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` for rows of n >= 1 entries, bit for
    bit, by folding np.maximum over column slices: each call runs over
    every row at once.  A row longer than 16 columns is first halved, its
    two halves folded into one (an odd last column folds into the first).
    np.maximum, unlike np.fmax, keeps a NaN."""
    m = x
    while m.shape[-1] > _FOLD_COLUMNS:
        h = m.shape[-1] // 2
        half = np.maximum(m[..., :h], m[..., h : 2 * h])
        if m.shape[-1] % 2:
            np.maximum(half[..., :1], m[..., -1:], out=half[..., :1])
        m = half
    out = m[..., :1].copy() if m.shape[-1] == 1 else np.maximum(m[..., :1], m[..., 1:2])
    for j in range(2, m.shape[-1]):
        np.maximum(out, m[..., j : j + 1], out=out)
    return out


def _rowsum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` up to rounding, as one GEMV against
    a vector of ones.  x is made C-contiguous first, so the result depends
    only on its values, not on its memory layout."""
    n = x.shape[-1]
    rows = np.ascontiguousarray(x).reshape(-1, n) @ np.ones(n, dtype=x.dtype)
    return rows.reshape(*x.shape[:-1], 1)


def _colsum(x2: np.ndarray) -> np.ndarray:
    """``x2.sum(axis=-2)`` of [..., N, C] up to rounding, as a vector of N
    ones times x2 made C-contiguous."""
    return np.ones(x2.shape[-2], dtype=x2.dtype) @ np.ascontiguousarray(x2)


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
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        return ga, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None

    return _emit("matmul", (a, b), out, grad_fn)


def _mlp(x2: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu(x2 @ w1 + b1) @ w2 + b2 of rows x2 [N, C]: the output [N, Cout]
    and the pre-activation h, which is all the gradient keeps."""
    h = np.matmul(x2, w1)
    h += b1
    a = np.multiply(h, 0.5)
    t = _gelu_tanh(h)
    t += 1.0
    a *= t  # gelu(h) = (0.5*h) * (1 + t)
    del t
    out = np.matmul(a, w2)
    out += b2
    return out, h


def _mlp_backward(x2: np.ndarray, h: np.ndarray, w1: np.ndarray, w2: np.ndarray, g2: np.ndarray) -> tuple:
    """The gradients (x2, w1, b1, w2, b2) of ``_mlp`` for the output gradient
    g2 [N, Cout].  tanh is computed once, for gelu(h), which w2's gradient
    reads, and for gelu's derivative."""
    t = _gelu_tanh(h)
    s = np.multiply(t, t)
    np.subtract(1.0, s, out=s)
    t += 1.0
    a = np.multiply(h, 0.5)
    a *= t  # gelu(h), as in the forward
    gw2 = a.T @ g2
    ga = np.matmul(g2, w2.T)
    dh = np.multiply(h, 0.5, out=a)
    dh *= s  # (0.5*h) * (1 - t*t)
    np.multiply(h, 3.0 * _GELU_A, out=s)
    s *= h
    s += 1.0
    s *= _GELU_C  # du = C * (1 + 3A*h*h)
    dh *= s
    t *= 0.5
    dh += t  # 0.5*(1 + t) + (0.5*h)*(1 - t*t)*du
    dh *= ga
    del t, s, ga
    return np.matmul(dh, w1.T), x2.T @ dh, _colsum(dh), gw2, _colsum(g2)


# -- normalization and attention scalars ---------------------------------------


def _attend(qkv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softmax(q k^T / sqrt(d)) v of a stacked [3, B, L, d] projection: the
    [B, L, d] output and the [B, L, L] probabilities.  Scores are scaled and
    normalized in place."""
    q, k, v = qkv
    p = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))
    p *= qkv.dtype.type(1.0 / np.sqrt(qkv.shape[3]))
    p -= _rowmax(p)  # softmax over keys, max-shifted
    np.exp(p, out=p)
    p /= _rowsum(p)
    return np.matmul(p, v), p


def _attend_backward(qkv: np.ndarray, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of ``_attend`` for the output gradient g [B, L, d]: one
    array like qkv."""
    q, k, v = qkv
    gqkv = np.empty_like(qkv)
    gs = np.matmul(g, np.swapaxes(v, -1, -2))
    gs -= _rowsum(gs * p)
    gs *= p
    gs *= qkv.dtype.type(1.0 / np.sqrt(qkv.shape[3]))
    np.matmul(gs, k, out=gqkv[0])
    gqkv[1] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)
    np.matmul(np.swapaxes(p, -1, -2), g, out=gqkv[2])
    return gqkv


def _check_layer_norm(opname: str, x: Tensor, gamma: Tensor, beta: Tensor) -> None:
    c = x.shape[-1]
    if c == 0:
        raise DimensionError(f"{opname} over zero channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"{opname}: affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
    _check_dtypes(opname, x, gamma, beta)


def _layer_norm(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma * x-hat + beta over the last axis, and the per-row mean and
    1/std ([..., 1] arrays) that ``_xhat`` rebuilds x-hat from."""
    c = xd.shape[-1]
    mean = _rowsum(xd)
    mean /= c
    xhat = np.subtract(xd, mean)
    out = np.multiply(xhat, xhat)
    var = _rowsum(out)
    var /= c
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(gamma, xhat, out=out)
    out += beta
    return out, mean, inv


def _xhat(xd: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x-hat again, in the forward's two passes."""
    xhat = np.subtract(xd, mean)
    xhat *= inv
    return xhat


def _layer_norm_backward(xhat: np.ndarray, gamma: np.ndarray, inv: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients (x, gamma, beta) of ``_layer_norm`` for the output gradient g."""
    c = xhat.shape[-1]
    s = np.multiply(g, xhat)
    dgamma = _colsum(s.reshape(-1, c))
    dbeta = _colsum(g.reshape(-1, c))
    dx = np.multiply(g, gamma)  # dxhat
    np.multiply(dx, xhat, out=s)
    mean = _rowsum(s)
    mean /= c
    np.multiply(xhat, mean, out=s)
    mean = _rowsum(dx)
    mean /= c
    dx -= mean
    dx -= s
    dx *= inv  # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    return dx, dgamma, dbeta


# -- convolution machinery -----------------------------------------------------


def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    out = (n + 2 * pad - k) // stride + 1
    if out < 1:
        raise DimensionError(f"kernel {k} larger than padded input extent {n + 2 * pad}")
    return out


def _pad_hw(xd: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the H and W axes of [..., H,W,C]: one allocation and one copy,
    without np.pad's per-call Python overhead, which dominates on small maps."""
    *lead, h, w, c = xd.shape
    xp = np.zeros((*lead, h + 2 * padding, w + 2 * padding, c), dtype=xd.dtype)
    xp[..., padding : padding + h, padding : padding + w, :] = xd
    return xp


def _im2col(xd: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, Callable]:
    """im2col [..., H,W,C] -> [..., H',W',kh*kw,C], plus its adjoint: a scatter-add
    back into [..., H,W,C] that keeps only the padded shape, not the input."""
    *lead, h, w, c = xd.shape
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(w, kw, stride, padding)
    xp = _pad_hw(xd, padding) if padding else xd
    # the windows [..., ho, wo, C, kh, kw] are a view; one copy puts them in tap order
    win = sliding_window_view(xp, (kh, kw), axis=(-3, -2))[..., ::stride, ::stride, :, :, :]
    out = np.moveaxis(win, -3, -1).reshape(*lead, ho, wo, kh * kw, c)
    xp_shape = xp.shape

    def scatter(g):  # tap i*kw + j starts at row i, column j; taps add in that order
        gp = np.zeros(xp_shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                gp[..., i : i + stride * ho : stride, j : j + stride * wo : stride, :] += g[..., i * kw + j, :]
        return np.ascontiguousarray(gp[..., padding : padding + h, padding : padding + w, :])

    return out, scatter


def _conv(opname: str, x: Tensor, w: Tensor, bias: Optional[Tensor], stride: int, padding: int) -> tuple:
    """Check a convolution's operands and run it as an im2col matmul with the
    bias added in place.  Returns the entry's inputs, the output rows
    [N, Cout] (N over the leading axes and output pixels), the output shape
    [..., H', W', Cout] and the gradient function, which gathers the im2col
    again from x (a 1x1 stride-1 unpadded kernel gathers none)."""
    if w.ndim != 4:
        raise DimensionError(f"{opname} weight must be [kh,kw,Cin,Cout], got {w.shape}")
    kh, kw, cin, cout = w.shape
    if x.ndim < 3 or x.shape[-1] != cin:
        raise DimensionError(f"{opname}: input {x.shape} does not match weight {w.shape}")
    inputs = (x, w) if bias is None else (x, w, bias)
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"{opname}: bias {bias.shape} does not match weight {w.shape}")
    _check_dtypes(opname, *inputs)
    *lead, h, wd, _ = x.shape
    ho = _conv_out_extent(h, kh, stride, padding)
    wo = _conv_out_extent(wd, kw, stride, padding)
    rows = math.prod(lead) * ho * wo
    direct = (kh, kw, stride, padding) == (1, 1, 1, 0)  # every pixel is its own patch

    def gather():  # the im2col [N, kh*kw*Cin] and its adjoint
        if direct:
            return x.data.reshape(rows, cin), lambda gc: gc.reshape(x.shape)
        cols, scatter = _im2col(x.data, kh, kw, stride, padding)
        return cols.reshape(rows, kh * kw * cin), scatter

    w2 = w.data.reshape(kh * kw * cin, cout)
    out = np.matmul(gather()[0], w2)
    if bias is not None:
        out += bias.data

    def grad_fn(g):  # a constant input (the image) gets no gradient
        g2 = g.reshape(rows, cout)
        cols, scatter = gather()
        gw = (cols.T @ g2).reshape(w.shape)
        del cols
        gx = scatter(np.matmul(g2, w2.T).reshape(*lead, ho, wo, kh * kw, cin)) if x.requires_grad else None
        return (gx, gw) if bias is None else (gx, gw, _colsum(g2))

    return inputs, out, (*lead, ho, wo, cout), grad_fn


def conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation: x [..., H,W,Cin], w [kh,kw,Cin,Cout], bias
    [Cout] or None -> [..., H',W',Cout].

    One primitive, an im2col matmul over every leading axis and output pixel
    at once.  The entry keeps only its inputs: backward gathers the im2col
    again from x."""
    inputs, out, shape, grad_fn = _conv("conv2d", x, w, bias, stride, padding)
    return _emit("conv2d", inputs, out.reshape(shape), grad_fn)


def conv2d_softmax(x: Tensor, w: Tensor, bias: Tensor, slots: int, padding: int = 0) -> Tensor:
    """softmax(reshape(conv2d(x, w, bias, padding=padding), [..., H, W, G, slots]))
    over the last axis: the Cout = G*slots output channels split into G
    groups of ``slots``, each group normalized -> [..., H, W, G, slots].

    One entry.  The softmax runs in place on the conv's output, so the
    logits are never kept: the entry holds x, w, bias and the result, and
    backward takes softmax's vector-Jacobian product from the result, then
    the conv's gradient from a re-gathered im2col.  These are the numpy calls
    of the conv2d -> reshape -> softmax composition it replaces, so both are
    bitwise equal."""
    inputs, y, shape, conv_grad = _conv("conv2d_softmax", x, w, bias, 1, padding)
    cout = shape[-1]
    if slots < 1 or cout % slots:
        raise DimensionError(f"conv2d_softmax: {cout} channels do not split into groups of {slots}")
    y = y.reshape(*shape[:-1], cout // slots, slots)
    y -= _rowmax(y)  # max-shifted
    np.exp(y, out=y)
    y /= _rowsum(y)

    def grad_fn(g):
        gx = np.multiply(g, y)
        dot = _rowsum(gx)
        np.subtract(g, dot, out=gx)
        gx *= y  # y * (g - sum(g * y))
        return conv_grad(gx)

    return _emit("conv2d_softmax", inputs, y, grad_fn)


def _shuffle_axes(lead: int) -> tuple:
    """The transpose between (h, w, di, dj, c) and (h, di, w, dj, c) behind
    ``lead`` leading axes: pixel shuffle's, and its own inverse."""
    return (*range(lead), lead, lead + 2, lead + 1, lead + 3, lead + 4)


def reassemble(x: Tensor, field: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """CARAFE reassembly: x [..., H,W,C] and a source-major kernel field
    [..., H,W,sigma^2,k^2] -> [..., sigma*H, sigma*W, C], plus bias [C] if
    given.

    Output pixel (i*sigma + di, j*sigma + dj) is the k x k neighborhood of
    source pixel (i, j), zero outside the map, weighted by the kernel
    field[i, j, di*sigma + dj]; slot a*k + b weighs the neighbor at offset
    (a - k//2, b - k//2).  The bias is added after the weighted sum: a 1x1
    conv that runs on x before the reassembly hands its bias here, since on
    border pixels the in-bounds kernel mass is below one.  One primitive:
    the im2col gather of the neighborhoods [..., H,W,k^2,C] feeds one batched
    [sigma^2, k^2] x [k^2, C] matmul per source pixel, written out in
    pixel-shuffle order.  The entry keeps only x, field and bias; backward
    gathers the neighborhoods again and scatters the x gradient with the
    gather's adjoint, so every result equals im2col -> matmul ->
    pixel_shuffle bitwise.
    """
    if x.ndim < 3 or field.ndim != x.ndim + 1 or field.shape[:-2] != x.shape[:-1]:
        raise DimensionError(f"reassemble expects x [..., H,W,C] and a field [..., H,W,s,k], got {x.shape} and {field.shape}")
    *lead, h, w, c = x.shape
    inputs = (x, field) if bias is None else (x, field, bias)
    if bias is not None and bias.shape != (c,):
        raise DimensionError(f"reassemble: bias {bias.shape} does not match {c} channels")
    _check_dtypes("reassemble", *inputs)
    s2, k2 = field.shape[-2:]
    sigma, k = math.isqrt(s2), math.isqrt(k2)
    if sigma * sigma != s2 or k * k != k2 or k % 2 == 0:
        raise DimensionError(f"reassemble: field {field.shape} must hold sigma^2 kernels of k^2 slots, k odd")
    shuffle = _shuffle_axes(len(lead))
    prod = np.matmul(field.data, _im2col(x.data, k, k, 1, k // 2)[0])  # [..., H, W, sigma^2, C]
    out = np.ascontiguousarray(prod.reshape(*lead, h, w, sigma, sigma, c).transpose(shuffle))
    if bias is not None:
        out += bias.data

    def grad_fn(g):  # a constant input gets no gradient
        gprod = np.ascontiguousarray(g.reshape(*lead, h, sigma, w, sigma, c).transpose(shuffle)).reshape(*lead, h, w, s2, c)
        cols, scatter = _im2col(x.data, k, k, 1, k // 2)
        gf = np.matmul(gprod, np.swapaxes(cols, -1, -2)) if field.requires_grad else None
        del cols
        gx = scatter(np.matmul(np.swapaxes(field.data, -1, -2), gprod)) if x.requires_grad else None
        return (gx, gf) if bias is None else (gx, gf, _colsum(g.reshape(-1, c)))

    return _emit("reassemble", inputs, out.reshape(*lead, sigma * h, sigma * w, c), grad_fn)


# per stripe group: the axes that take its [n, B, P, Q, d] head outputs to
# the merged [B, H, W, n, d] layout, and back; group 1 runs on the transposed map
_TO_MERGED = ((1, 2, 3, 0, 4), (1, 3, 2, 0, 4))
_FROM_MERGED = ((3, 0, 1, 2, 4), (3, 0, 2, 1, 4))


def _stripe_plane(xd: np.ndarray, gi: int) -> tuple[np.ndarray, int, int]:
    """Group gi's maps [B, P, Q, C] of xd [B, H, W, C], stripes along P,
    flattened to [BPQ, C]."""
    xg = xd if gi == 0 else np.ascontiguousarray(xd.transpose(0, 2, 1, 3))
    return xg.reshape(-1, xg.shape[3]), xg.shape[1], xg.shape[2]


def _lepe_taps(qkv: np.ndarray, lepe: np.ndarray, gi: int, sw: int, pp: int, qq: int) -> tuple:
    """v's neighborhoods [n, Bm, sw, Q, k*k, d] in each stripe of group gi,
    their adjoint and the group's kernels."""
    n, k, d = lepe.shape[1], lepe.shape[2], lepe.shape[4]
    v = qkv[2].reshape(n, -1, sw, qq, d)
    kern = lepe[gi] if gi == 0 else np.ascontiguousarray(lepe[gi].transpose(0, 2, 1, 3))
    cols, scatter = _im2col(v, k, k, 1, k // 2)
    return cols, scatter, kern.reshape(n, 1, 1, 1, k * k, d)


def _stripe(xd: np.ndarray, wqkv: np.ndarray, wo: np.ndarray, lepe: Optional[np.ndarray], sw: int) -> tuple:
    """Stripe attention of xd [..., H,W,C]: the output [BHW, C] and what the
    gradient keeps, each group's q|k|v [3, n*B*m, sw*Q, d] and probabilities
    [n*B*m, sw*Q, sw*Q], and the merged heads [BHW, C]."""
    h, w, c = xd.shape[-3:]
    xd = xd.reshape(-1, h, w, c)
    nb = xd.shape[0]
    n, d = wqkv.shape[1] // 3, wqkv.shape[3]
    merged = np.empty((nb, h, w, 2 * n, d), dtype=xd.dtype)
    kept = []
    for gi in (0, 1):
        xg, pp, qq = _stripe_plane(xd, gi)
        qkv = np.matmul(xg, wqkv[gi : gi + 1]).reshape(3, n * nb * (pp // sw), sw * qq, d)
        y, prob = _attend(qkv)
        y = y.reshape(n, nb, pp, qq, d)
        if lepe is not None:
            cols, _, kern = _lepe_taps(qkv, lepe, gi, sw, pp, qq)
            y += (cols * kern).sum(axis=-2).reshape(n, nb, pp, qq, d)
            del cols
        merged[..., gi * n : (gi + 1) * n, :] = y.transpose(_TO_MERGED[gi])
        kept.append((qkv, prob))
    merged = merged.reshape(nb * h * w, c)
    return np.matmul(merged, wo), (kept, merged)


def _stripe_backward(xd, wqkv, wo, lepe, sw: int, state: tuple, g: np.ndarray) -> tuple:
    """The gradients (x, wqkv, wo[, lepe]) of ``_stripe`` for the output
    gradient g [..., H,W,C]."""
    kept, merged = state
    shape = xd.shape
    h, w, c = shape[-3:]
    xd = xd.reshape(-1, h, w, c)
    nb = xd.shape[0]
    n, d = wqkv.shape[1] // 3, wqkv.shape[3]
    g2 = g.reshape(nb * h * w, c)
    gwo = np.matmul(np.swapaxes(merged, -1, -2), g2)
    gm = np.matmul(g2, np.swapaxes(wo, -1, -2)).reshape(nb, h, w, 2 * n, d)
    gx, gw = None, np.empty_like(wqkv)
    gl = None if lepe is None else np.empty_like(lepe)
    for gi in (1, 0):
        qkv, prob = kept[gi]
        xg, pp, qq = _stripe_plane(xd, gi)
        gy = np.ascontiguousarray(gm[..., gi * n : (gi + 1) * n, :].transpose(_FROM_MERGED[gi]))
        gqkv = _attend_backward(qkv, prob, gy.reshape(qkv.shape[1:]))
        if lepe is not None:
            cols, scatter, kern = _lepe_taps(qkv, lepe, gi, sw, pp, qq)
            gl5 = gy.reshape(cols.shape[:-2] + (d,))
            gp = np.broadcast_to(np.expand_dims(gl5, -2), cols.shape)
            gqkv[2] += scatter(gp * kern).reshape(gqkv.shape[1:])
            gk = _unbroadcast(gp * cols, kern.shape).reshape(lepe.shape[1:])
            gl[gi] = gk if gi == 0 else gk.transpose(0, 2, 1, 3)
            del cols, gp
        g4 = gqkv.reshape(1, 3 * n, nb * pp * qq, d)
        gw[gi] = np.matmul(np.swapaxes(xg, -1, -2), g4)[0]
        axes = [0, 1, -1]  # one contraction over the heads and the head dim
        gxg = np.tensordot(g4, wqkv[gi : gi + 1], axes=(axes, axes)).reshape(nb, pp, qq, c)
        gxg = gxg if gi == 0 else np.ascontiguousarray(gxg.transpose(0, 2, 1, 3))
        gx = gxg if gx is None else gx + gxg
    gx = gx.reshape(shape)
    return (gx, gw, gwo) if lepe is None else (gx, gw, gwo, gl)


# -- residual half-blocks ------------------------------------------------------


def _residual(opname: str, x: Tensor, gamma: Tensor, beta: Tensor, weights: tuple, f: Callable, f_backward: Callable, eps: float) -> Tensor:
    """x + f(layer_norm(x)) as one entry named ``opname``.

    ``f(y) -> (f(y), kept)`` and ``f_backward(y, kept, g) -> (gy, *gweights)``
    run on arrays.  The entry keeps x, the per-row mean and 1/std and f's
    ``kept``, neither y = layer_norm(x) nor f(y).  Backward rebuilds x-hat
    once, makes y from it for f's weight gradients and reuses it for
    layer_norm's.  x's gradient is g + d(layer_norm): the residual's share
    first, as the composition layer_norm -> f -> add accumulates it, so both
    are bitwise equal."""
    y, mean, inv = _layer_norm(x.data, gamma.data, beta.data, eps)
    fy, kept = f(y)
    del y
    out = fy.reshape(x.shape)  # f's result is fresh and not kept: add x into it
    out += x.data

    def grad_fn(g):
        xhat = _xhat(x.data, mean, inv)
        y = np.multiply(gamma.data, xhat)
        y += beta.data  # layer_norm's output, as in the forward
        gy, *gw = f_backward(y, kept, g)
        del y
        dx, dgamma, dbeta = _layer_norm_backward(xhat, gamma.data, inv, gy)
        return (g + dx, dgamma, dbeta, *gw)

    return _emit(opname, (x, gamma, beta, *weights), out, grad_fn)


def residual_stripe_attention(
    x: Tensor, gamma: Tensor, beta: Tensor, wqkv: Tensor, wo: Tensor, lepe: Optional[Tensor], sw: int, eps: float = 1e-5
) -> Tensor:
    """x + attention(layer_norm(x, gamma, beta)): a CSWin block's attention
    half as one ``stripe_attention`` entry, x [..., H,W,C] -> [..., H,W,C].

    The attention is cross-shaped-window self-attention: group 0 attends
    inside horizontal stripes of sw rows, group 1 inside vertical stripes of
    sw columns; group 1 runs on the transposed map, where its stripes are
    rows.  wqkv [2, 3n, C, d] projects each group's n query heads, then its
    keys, then its values, with n*d = C/2.  lepe [2, n, k, k, d] (or None)
    adds a k x k depthwise convolution of each head's values inside its
    stripe, kernels given in the (H, W) geometry.  Heads, the leading
    (batch) axes and stripes share one leading attention axis, in that
    order.  The heads' outputs are merged channel-wise, group 0 first, into
    [BHW, C] and projected by wo [C, C].  The attention's gradients make the
    same numpy calls as its composition of matmul, attention, depthwise
    convolution, permute and concat, so both are bitwise equal."""
    opname = "residual_stripe_attention"
    if x.ndim < 3 or wqkv.ndim != 4:
        raise DimensionError(f"{opname} expects x [..., H,W,C] and wqkv [2, 3n, C, d], got {x.shape} and {wqkv.shape}")
    h, w, c = x.shape[-3:]
    n, d = wqkv.shape[1] // 3, wqkv.shape[3]
    if wqkv.shape != (2, 3 * n, c, d) or 2 * n * d != c or wo.shape != (c, c):
        raise DimensionError(f"{opname}: wqkv {wqkv.shape} or wo {wo.shape} do not fit C={c}")
    if lepe is not None and (lepe.ndim != 5 or lepe.shape != (2, n, lepe.shape[2], lepe.shape[2], d) or lepe.shape[2] % 2 == 0):
        raise DimensionError(f"{opname}: lepe {lepe.shape} is not [2, {n}, k, k, {d}] with k odd")
    if sw < 1 or h % sw or w % sw:
        raise DimensionError(f"{opname}: stripe width {sw} does not divide {h} x {w}")
    weights = (wqkv, wo) if lepe is None else (wqkv, wo, lepe)
    _check_dtypes(opname, x, *weights)
    _check_layer_norm(opname, x, gamma, beta)
    ld = None if lepe is None else lepe.data

    def f(y):
        return _stripe(y, wqkv.data, wo.data, ld, sw)

    def f_backward(y, kept, g):
        return _stripe_backward(y, wqkv.data, wo.data, ld, sw, kept, g)

    return _residual("stripe_attention", x, gamma, beta, weights, f, f_backward, eps)


def residual_mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, eps: float = 1e-5) -> Tensor:
    """x + mlp(layer_norm(x, gamma, beta)): a CSWin block's MLP half as one
    ``mlp`` entry, where mlp(y) = gelu(y @ w1 + b1) @ w2 + b2 maps the C
    channels of x [..., C] back to C."""
    _check_dtypes("residual_mlp", x, w1, b1, w2, b2)
    ok = x.ndim >= 1 and w1.ndim == w2.ndim == 2 and b1.shape == w1.shape[1:] and b2.shape == w2.shape[1:]
    if not ok or x.shape[-1] != w1.shape[0] or w2.shape[0] != w1.shape[1]:
        shapes = ", ".join(str(t.shape) for t in (x, w1, b1, w2, b2))
        raise DimensionError(f"residual_mlp needs [..., C], [C, Ch], [Ch], [Ch, Cout], [Cout], got {shapes}")
    _check_layer_norm("residual_mlp", x, gamma, beta)
    c = x.shape[-1]
    if w2.shape[1] != c:
        raise DimensionError(f"residual_mlp: output width {w2.shape[1]} is not the input's {c}")

    def f(y):
        return _mlp(y.reshape(-1, c), w1.data, b1.data, w2.data, b2.data)

    def f_backward(y, h, g):
        gy, *gw = _mlp_backward(y.reshape(-1, c), h, w1.data, w2.data, g.reshape(-1, c))
        return (gy.reshape(x.shape), *gw)

    return _residual("mlp", x, gamma, beta, (w1, b1, w2, b2), f, f_backward, eps)


def pixel_shuffle(x: Tensor, factor: int, tail: int) -> Tensor:
    """Move factor^2 channel groups to space: [..., H,W,factor^2*tail] ->
    [..., fH,fW,tail].

    Channel index (di*factor + dj)*tail + t lands at output pixel
    (i*factor + di, j*factor + dj), slot t.  Frozen layout; checkpoints
    depend on it.
    """
    *lead, h, w, c = x.shape
    if c != factor * factor * tail:
        raise DimensionError(f"pixel_shuffle: {c} channels != {factor}^2 * {tail}")
    y = reshape(x, (*lead, h, w, factor, factor, tail))
    y = permute(y, _shuffle_axes(len(lead)))
    return reshape(y, (*lead, h * factor, w * factor, tail))


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
