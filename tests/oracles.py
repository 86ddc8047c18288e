"""Independent reference implementations used only by the test suite.

Everything here is deliberately written as plain numpy (loops where that is
the most obvious form) and shares no code with the package internals, so a
bug in the production path cannot hide in its own oracle.  The exceptions
are the references that must agree with a kernel bit for bit:
``softmax_naive``, ``layer_norm_naive``, ``stripe_attention_composition`` and
``softmax`` take their row maxima and sums from the package's reductions
(``T._rowmax``, ``T._rowsum``, ``T._colsum``), which test_tensor pins
against numpy's; and the taped entries at the end.  ``softmax`` and
``conv2d_softmax_composition`` record package primitives on the package's
tape, as the network did before those steps became one entry.
``layer_norm``, ``mlp`` and ``stripe_attention`` record the package's array
kernels as stand-alone entries, so tests can compose the three entries a
residual half-block replaces and check the kernels by finite differences.
"""

from __future__ import annotations

import types

import numpy as np

from cswin_seg import tensor as T
from cswin_seg.errors import DimensionError


def conv2d_naive(x, w, bias=None, stride=1, padding=0):
    """Quadruple-loop cross-correlation. x [H,W,Cin], w [kh,kw,Cin,Cout]."""
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            for ki in range(kh):
                for kj in range(kw):
                    px = xp[i * stride + ki, j * stride + kj, :]
                    out[i, j, :] += px @ w[ki, kj, :, :]
    if bias is not None:
        out += bias
    return out


def depthwise_conv2d_naive(x, w, stride=1, padding=0):
    """Per-channel loop convolution. x [H,W,C], w [kh,kw,C]."""
    h, wd, c = x.shape
    kh, kw, _ = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((ho, wo, c), dtype=x.dtype)
    for i in range(ho):
        for j in range(wo):
            patch = xp[i * stride : i * stride + kh, j * stride : j * stride + kw, :]
            out[i, j, :] = (patch * w).sum(axis=(0, 1))
    return out


def softmax_rows(a):
    a = a - a.max(axis=-1, keepdims=True)
    e = np.exp(a)
    return e / e.sum(axis=-1, keepdims=True)


def gelu_naive(x):
    """tanh-approximation GELU and its derivative, as plain array expressions
    (each step a new array); returns (y, dy/dx)."""
    c, a = 0.7978845608028654, 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    du = c * (1.0 + 3.0 * a * x * x)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def _along(reduce, a, axis):
    """A last-axis reduction of the package (``T._rowmax``, ``T._rowsum``)
    applied along `axis`, keeping that axis."""
    return np.moveaxis(reduce(np.moveaxis(a, axis, -1)), -1, axis)


def softmax_naive(x, g, axis):
    """Max-shifted softmax along `axis` and the vector-Jacobian product with
    g, as plain array expressions whose max and sums come from the package's
    reductions; returns (y, dx)."""
    e = np.exp(x - _along(T._rowmax, x, axis))
    y = e / _along(T._rowsum, e, axis)
    return y, y * (g - _along(T._rowsum, g * y, axis))


def layer_norm_naive(x, gamma, beta, g, eps=1e-5):
    """Last-axis layer norm and its vector-Jacobian product with g, as plain
    array expressions whose sums and means come from the package's row and
    column sums; returns (y, dx, dgamma, dbeta)."""
    c = x.shape[-1]
    xc = x - T._rowsum(x) / c
    inv = 1.0 / np.sqrt(T._rowsum(xc * xc) / c + eps)
    xhat = xc * inv
    dxhat = g * gamma
    dx = inv * (dxhat - T._rowsum(dxhat) / c - xhat * (T._rowsum(dxhat * xhat) / c))
    return gamma * xhat + beta, dx, T._colsum((g * xhat).reshape(-1, c)), T._colsum(g.reshape(-1, c))


def dense_attention(tokens, wq, wk, wv):
    """Plain single-head attention over a token list [L,C] with C x d weights."""
    q = tokens @ wq
    k = tokens @ wk
    v = tokens @ wv
    scores = (q @ k.T) / np.sqrt(wq.shape[1])
    return softmax_rows(scores) @ v


def dense_attention_macs(h, w, dim):
    """Score and value products for global attention over all H*W tokens."""
    return 2 * (h * w) ** 2 * dim


def attention_naive(qkv):
    """softmax(q k^T / sqrt(d)) v of a stacked [3, B, L, d] array, one
    output element at a time."""
    _, nb, n, d = qkv.shape
    out = np.zeros((nb, n, d))
    for b in range(nb):
        q, k, v = qkv[0, b], qkv[1, b], qkv[2, b]
        for i in range(n):
            scores = [sum(q[i, c] * k[j, c] for c in range(d)) / np.sqrt(d) for j in range(n)]
            top = max(scores)
            weights = [np.exp(s - top) for s in scores]
            total = sum(weights)
            for c in range(d):
                out[b, i, c] = sum(wj * v[j, c] for j, wj in enumerate(weights)) / total
    return out


def per_head(grouped, kinds):
    """Per-head views of a group-major block weight [2, kinds*N/2, ...].

    Returns `kinds` lists of N arrays in head order: the first N/2 heads are
    group 0 (horizontal), the rest group 1.  per_head(wqkv, 3) gives the
    query, key and value projections; per_head(lepe, 1) the LePE kernels.
    """
    half = grouped.shape[1] // kinds
    return [[grouped[g, t * half + i] for g in range(2) for i in range(half)] for t in range(kinds)]


def cross_window_attention(x, wq, wk, wv, wo, sw, lepe=None):
    """Two-group stripe attention over x [H,W,C].

    wq/wk/wv are per-head weight lists (length N, each C x d); the first
    half of the heads attends inside horizontal stripes of width sw, the
    second half inside vertical stripes.  With lepe (a per-head list of
    k x k x d kernels) each head adds the zero-padded depthwise convolution
    of its values, taken inside each stripe.  Heads concatenate
    channel-wise and the result is projected by wo [C,C].
    """
    h, w, c = x.shape
    n = len(wq)
    half = n // 2
    outs = []
    for head in range(half):
        y = np.zeros((h, w, wq[head].shape[1]), dtype=x.dtype)
        for s in range(h // sw):
            stripe = x[s * sw : (s + 1) * sw, :, :]
            tok = stripe.reshape(-1, c)
            att = dense_attention(tok, wq[head], wk[head], wv[head]).reshape(sw, w, -1)
            if lepe is not None:
                att += depthwise_conv2d_naive(stripe @ wv[head], lepe[head], padding=lepe[head].shape[0] // 2)
            y[s * sw : (s + 1) * sw, :, :] = att
        outs.append(y)
    for head in range(half, n):
        y = np.zeros((h, w, wq[head].shape[1]), dtype=x.dtype)
        for s in range(w // sw):
            stripe = x[:, s * sw : (s + 1) * sw, :]
            tok = stripe.reshape(-1, c)
            att = dense_attention(tok, wq[head], wk[head], wv[head]).reshape(h, sw, -1)
            if lepe is not None:
                att += depthwise_conv2d_naive(stripe @ wv[head], lepe[head], padding=lepe[head].shape[0] // 2)
            y[:, s * sw : (s + 1) * sw, :] = att
        outs.append(y)
    return np.concatenate(outs, axis=-1) @ wo


def source_major(field, sigma):
    """Image-layout kernel field [sigma*H, sigma*W, K] -> source-major
    [H, W, sigma^2, K]: output pixel (i*sigma + di, j*sigma + dj) moves to
    [i, j, di*sigma + dj]."""
    sh, sw, k = field.shape
    h, w = sh // sigma, sw // sigma
    out = np.empty((h, w, sigma * sigma, k), dtype=field.dtype)
    for ip in range(sh):
        for jp in range(sw):
            out[ip // sigma, jp // sigma, (ip % sigma) * sigma + jp % sigma] = field[ip, jp]
    return out


def reassemble_naive(x, field, sigma, k_up):
    """Five-nested-loop weighted reassembly.

    x [H,W,C], source-major field [H, W, sigma^2, k_up^2]; out-of-bounds
    neighbors contribute zero.
    """
    h, w, c = x.shape
    r = k_up // 2
    out = np.zeros((sigma * h, sigma * w, c), dtype=x.dtype)
    for ip in range(sigma * h):
        for jp in range(sigma * w):
            i, j = ip // sigma, jp // sigma
            kernel = field[i, j, (ip % sigma) * sigma + jp % sigma]
            for n in range(-r, r + 1):
                for m in range(-r, r + 1):
                    si, sj = i + n, j + m
                    if 0 <= si < h and 0 <= sj < w:
                        out[ip, jp, :] += kernel[(n + r) * k_up + (m + r)] * x[si, sj, :]
    return out


def reassemble_then_conv1x1(x, field, w, bias, sigma, k_up):
    """The architecture's order: reassemble x [H,W,Cin] at full resolution,
    then a 1x1 conv w [1,1,Cin,Cout] with bias [Cout], one output pixel at a
    time.  Returns [sigma*H, sigma*W, Cout]."""
    up = reassemble_naive(x, field, sigma, k_up)
    out = np.empty(up.shape[:2] + (w.shape[3],), dtype=x.dtype)
    for ip in range(up.shape[0]):
        for jp in range(up.shape[1]):
            out[ip, jp] = up[ip, jp] @ w[0, 0] + bias
    return out


def im2col_taps(x, k, stride=1, padding=0):
    """Gather k x k neighborhoods [..., H,W,C] -> [..., H',W',k*k,C] with one
    strided copy per kernel tap; tap i*k + j starts at row i, column j."""
    *lead, h, w, c = x.shape
    xp = np.pad(x, [(0, 0)] * len(lead) + [(padding, padding), (padding, padding), (0, 0)])
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    out = np.empty((*lead, ho, wo, k * k, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            out[..., i * k + j, :] = xp[..., i : i + stride * ho : stride, j : j + stride * wo : stride, :]
    return out


def reassemble_composition(x, field, g):
    """CARAFE reassembly as patches -> batched matmul -> pixel_shuffle, with
    the backward of each step, in plain numpy.

    x [H,W,C], source-major field [H,W,sigma^2,k^2], upstream gradient g
    [sigma*H, sigma*W, C]; returns (out, dx, dfield).  Each step is the numpy
    call the composed tape ran, so a fused reassembly that computes the same
    per-pixel products and adds the taps of dx in the same order agrees with
    it bitwise."""
    h, w, c = x.shape
    s2, k2 = field.shape[2:]
    sigma, k = int(round(s2**0.5)), int(round(k2**0.5))
    r = k // 2
    hood = im2col_taps(x, k, padding=r)  # [H, W, k^2, C]
    prod = np.matmul(field, hood)  # [H, W, sigma^2, C]
    out = np.ascontiguousarray(prod.reshape(h, w, sigma, sigma, c).transpose(0, 2, 1, 3, 4)).reshape(sigma * h, sigma * w, c)
    gprod = np.ascontiguousarray(g.reshape(h, sigma, w, sigma, c).transpose(0, 2, 1, 3, 4)).reshape(h, w, s2, c)
    dfield = np.matmul(gprod, np.swapaxes(hood, -1, -2))
    ghood = np.matmul(np.swapaxes(field, -1, -2), gprod)
    gxp = np.zeros((h + 2 * r, w + 2 * r, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            gxp[i : i + h, j : j + w, :] += ghood[:, :, i * k + j, :]
    return out, gxp[r : r + h, r : r + w, :], dfield


def stripe_attention_composition(x, wqkv, wo, lepe, sw, g):
    """Cross-shaped-window attention as the composition it was recorded as
    before it became one primitive, with the backward of each step, in plain
    numpy: per group a projection matmul, the stacked [3, B, L, d] attention,
    the optional depthwise LePE convolution of v and an add; then the head
    merge (permute, concat) and the output matmul.

    x [H,W,C], wqkv [2, 3n, C, d], wo [C,C], lepe [2, n, k, k, d] or None,
    upstream gradient g [H,W,C]; returns (out, dx, dwqkv, dwo, dlepe).  Each
    step is the numpy call the composed tape ran, and every gradient sums its
    contributions as the tape did (split gradients are zero-padded), so a
    fused primitive that makes the same calls agrees with it bitwise."""
    h, w, c = x.shape
    n, d = wqkv.shape[1] // 3, wqkv.shape[3]
    scale = x.dtype.type(1.0 / np.sqrt(d))
    to_merged, from_merged = ((1, 2, 0, 3), (2, 1, 0, 3)), ((2, 0, 1, 3), (2, 1, 0, 3))
    groups = []
    for gi in (0, 1):
        plane = x if gi == 0 else np.ascontiguousarray(x.transpose(1, 0, 2))
        pp, qq = plane.shape[:2]
        wg = np.ascontiguousarray(wqkv[gi : gi + 1])
        qkv = np.matmul(plane.reshape(pp * qq, c), wg).reshape(3, n * (pp // sw), sw * qq, d)
        q, k, v = qkv
        s = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2))) * scale
        e = np.exp(s - T._rowmax(s))
        p = e / T._rowsum(e)
        y = np.matmul(p, v).reshape(n, pp, qq, d)
        taps = None
        if lepe is not None:
            kk = lepe.shape[2]
            kern = lepe[gi] if gi == 0 else np.ascontiguousarray(lepe[gi].transpose(0, 2, 1, 3))
            cols = im2col_taps(np.ascontiguousarray(v).reshape(n, pp // sw, sw, qq, d), kk, padding=kk // 2)
            wk = kern.reshape(n, 1, 1, 1, kk * kk, d)
            y = y + (cols * wk).sum(axis=-2).reshape(n, pp, qq, d)
            taps = (cols, wk)
        groups.append((plane, wg, qkv, p, taps))
        groups[-1] += (np.ascontiguousarray(y.transpose(to_merged[gi])),)
    merged = np.concatenate([grp[5] for grp in groups], axis=2).reshape(h * w, c)
    out = np.matmul(merged, wo).reshape(h, w, c)

    g2 = g.reshape(h * w, c)
    dwo = np.matmul(np.swapaxes(merged, -1, -2), g2)
    pieces = np.split(np.matmul(g2, np.swapaxes(wo, -1, -2)).reshape(h, w, 2 * n, d), [n], axis=2)
    dx, dwqkv, dlepe = None, None, None
    for gi in (1, 0):  # the tape's reverse walk reaches the vertical group first
        plane, wg, qkv, p, taps, _ = groups[gi]
        pp, qq = plane.shape[:2]
        gy = np.ascontiguousarray(np.ascontiguousarray(pieces[gi]).transpose(from_merged[gi]))
        gy3 = gy.reshape(qkv.shape[1:])
        q, k, v = qkv
        gs = np.matmul(gy3, np.swapaxes(v, -1, -2))
        gs = (gs - T._rowsum(gs * p)) * p * scale
        gattn = np.stack([
            np.matmul(gs, k),
            np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2),
            np.matmul(np.swapaxes(p, -1, -2), gy3),
        ])
        gqkv = gattn
        if taps is not None:
            cols, wk = taps
            kk = int(round(cols.shape[-2] ** 0.5))
            gp = np.broadcast_to(np.expand_dims(gy.reshape(cols.shape[:-2] + (d,)), -2), cols.shape)
            gcols = gp * wk
            r = kk // 2
            gvp = np.zeros((n, pp // sw, sw + 2 * r, qq + 2 * r, d), dtype=x.dtype)
            for i in range(kk):
                for j in range(kk):
                    gvp[:, :, i : i + sw, j : j + qq, :] += gcols[..., i * kk + j, :]
            gsplit = np.zeros_like(qkv)
            gsplit[2] = gvp[:, :, r : r + sw, r : r + qq, :].reshape(gsplit.shape[1:])
            gqkv = gsplit + gattn
            gk = (gp * cols).sum(axis=1, keepdims=True).sum(axis=2, keepdims=True).sum(axis=3, keepdims=True)
            gk = gk.reshape((1, n, kk, kk, d))
            gk = gk if gi == 0 else np.ascontiguousarray(gk.transpose(0, 1, 3, 2, 4))
            full = np.zeros_like(lepe)
            full[gi : gi + 1] = gk
            dlepe = full if dlepe is None else dlepe + full
        g4 = gqkv.reshape(1, 3 * n, pp * qq, d)
        full = np.zeros_like(wqkv)
        full[gi : gi + 1] = np.matmul(np.swapaxes(plane.reshape(pp * qq, c), -1, -2), g4)
        dwqkv = full if dwqkv is None else dwqkv + full
        gplane = np.tensordot(g4, wg, axes=([0, 1, -1], [0, 1, -1])).reshape(pp, qq, c)
        gplane = gplane if gi == 0 else np.ascontiguousarray(gplane.transpose(1, 0, 2))
        dx = gplane if dx is None else dx + gplane
    return out, dx, dwqkv, dwo, dlepe


def upsample_bilinear_naive(x, factor):
    """Bilinear upsampling of x [H,W,C] as a sum over the four corners of each
    output pixel's source cell (half-pixel centres, edges clamped)."""
    h, w, _ = x.shape

    def axis_coords(n):
        src = (np.arange(n * factor, dtype=np.float64) + 0.5) / factor - 0.5
        lo = np.floor(src)
        t = src - lo
        i0 = np.clip(lo, 0, n - 1).astype(np.intp)
        i1 = np.clip(lo + 1, 0, n - 1).astype(np.intp)
        return i0, i1, t.astype(x.dtype)

    i0, i1, ti = axis_coords(h)
    j0, j1, tj = axis_coords(w)
    ti = ti[:, None, None]
    tj = tj[None, :, None]
    corners = ((i0, j0, (1 - ti) * (1 - tj)), (i0, j1, (1 - ti) * tj),
               (i1, j0, ti * (1 - tj)), (i1, j1, ti * tj))
    out = np.zeros((h * factor, w * factor, x.shape[2]), dtype=x.dtype)
    for ii, jj, wgt in corners:
        out += wgt * x[ii[:, None], jj[None, :], :]
    return out


def boundary_pixels(mask):
    """Pixels of a binary mask with a 4-neighbor outside the mask (or the image)."""
    pts = []
    h, w = mask.shape
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            on_edge = i == 0 or j == 0 or i == h - 1 or j == w - 1
            if on_edge or not (mask[i - 1, j] and mask[i + 1, j] and mask[i, j - 1] and mask[i, j + 1]):
                pts.append((i, j))
    return pts


def hausdorff_bruteforce(mask_a, mask_b):
    """All-pairs symmetric Hausdorff (full max and 95th percentile) in pixels."""
    a = boundary_pixels(mask_a)
    b = boundary_pixels(mask_b)
    h, w = mask_a.shape
    if not a and not b:
        return 0.0, 0.0
    if not a or not b:
        diag = float(np.hypot(h - 1, w - 1))
        return diag, diag

    def directed(src, dst):
        mins = []
        for (i, j) in src:
            best = min((i - p) * (i - p) + (j - q) * (j - q) for (p, q) in dst)
            mins.append(np.sqrt(best))
        return np.asarray(mins)

    d_ab = directed(a, b)
    d_ba = directed(b, a)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    hd95 = max(float(np.percentile(d_ab, 95)), float(np.percentile(d_ba, 95)))
    return hd, hd95


def confusion_counts(pred, true):
    """(TP, FP, TN, FN) by direct enumeration over binary masks."""
    tp = fp = tn = fn = 0
    for p, t in zip(pred.reshape(-1), true.reshape(-1)):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and not t:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def cross_entropy_scalar(logits, labels):
    """Mean pixel NLL computed with plain scalar math."""
    h, w, k = logits.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            row = logits[i, j, :] - logits[i, j, :].max()
            p = np.exp(row) / np.exp(row).sum()
            total += -np.log(p[labels[i, j]])
    return total / (h * w)


def dice_loss_scalar(logits, labels, smooth):
    """Soft multi-class Dice loss recomputed directly."""
    h, w, k = logits.shape
    probs = softmax_rows(logits.reshape(-1, k)).reshape(h, w, k)
    onehot = np.eye(k)[labels]
    total = 0.0
    for c in range(k):
        inter = (probs[:, :, c] * onehot[:, :, c]).sum()
        denom = probs[:, :, c].sum() + onehot[:, :, c].sum()
        total += (2.0 * inter + smooth) / (denom + smooth)
    return 1.0 - total / k


def segmentation_loss_numpy(logits, labels, alpha, beta, smooth):
    """alpha * soft Dice + beta * mean pixel NLL as plain array expressions.

    Written only with operations analytic in the logits (the max shift is a
    constant taken from the real part), so a complex input carries the
    derivative along its imaginary part."""
    h, w, k = logits.shape
    z = logits.reshape(-1, k)
    z = z - z.real.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    t = np.eye(k)[labels.reshape(-1)]
    inter = (p * t).sum(axis=0)
    denom = p.sum(axis=0) + t.sum(axis=0)
    dice = 1.0 - ((2.0 * inter + smooth) / (denom + smooth)).mean()
    ce = (np.log(e.sum(axis=1)) - (z * t).sum(axis=1)).mean()
    return alpha * dice + beta * ce


def complex_step_grad(f, x, step=1e-30):
    """Gradient of a real-analytic f at real x: Im f(x + i*step*e_j) / step
    for each coordinate j.  No difference is taken, so it is exact to rounding
    whatever the step."""
    g = np.empty(x.shape)
    for j in range(x.size):
        xc = x.astype(complex)
        xc.flat[j] += 1j * step
        g.flat[j] = f(xc).imag / step
    return g


def trunc_normal_reference(rng, shape, std):
    """Truncated normal by redrawing every out-of-range entry of a boolean
    mask over the whole array until none is left; returns (array, rounds)."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    rounds = 0
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
        rounds += 1
    return out, rounds


def reachable_arrays(obj, seen=None):
    """Every numpy array an object holds: through objects with a ``data``
    array (tensors), tuples, lists and the closure cells of functions."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(getattr(obj, "data", None), np.ndarray):
        return reachable_arrays(obj.data, seen)
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in reachable_arrays(item, seen)]
    if isinstance(obj, types.FunctionType):
        return [a for cell in obj.__closure__ or () for a in reachable_arrays(cell.cell_contents, seen)]
    return []


def softmax(x, axis=-1):
    """Numerically stable softmax along `axis` (max subtraction) as one taped
    primitive: the entry CARAFE's kernel predictor recorded after its
    encoder conv before the two became one ``conv2d_softmax`` entry."""
    if x.shape[axis] == 0:
        raise DimensionError("softmax over an empty axis")
    y = np.subtract(x.data, _along(T._rowmax, x.data, axis))
    np.exp(y, out=y)
    y /= _along(T._rowsum, y, axis)

    def grad_fn(g):
        gx = np.multiply(g, y)
        dot = _along(T._rowsum, gx, axis)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return T._emit("softmax", (x,), y, grad_fn)


def conv2d_softmax_composition(x, w, bias, slots, padding=0):
    """conv2d -> reshape -> softmax, the three entries ``T.conv2d_softmax``
    replaces; the conv's output (the logits) stays on the tape."""
    logits = T.conv2d(x, w, bias, padding=padding)
    *lead, c = logits.shape
    return softmax(T.reshape(logits, (*lead, c // slots, slots)), axis=-1)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Last-axis layer norm as one taped entry of the package's kernels; it
    keeps the per-row mean and 1/std and rebuilds x-hat in backward."""
    out, mean, inv = T._layer_norm(x.data, gamma.data, beta.data, eps)

    def grad_fn(g):
        return T._layer_norm_backward(T._xhat(x.data, mean, inv), gamma.data, inv, g)

    return T._emit("layer_norm", (x, gamma, beta), out, grad_fn)


def mlp(x, w1, b1, w2, b2):
    """gelu(x @ w1 + b1) @ w2 + b2 over the last axis of x [..., C] as one
    taped entry of the package's kernels; it keeps the pre-activation."""
    out, h = T._mlp(x.data.reshape(-1, x.shape[-1]), w1.data, b1.data, w2.data, b2.data)

    def grad_fn(g):
        gx, *gw = T._mlp_backward(x.data.reshape(-1, x.shape[-1]), h, w1.data, w2.data, g.reshape(-1, g.shape[-1]))
        return (gx.reshape(x.shape), *gw)

    return T._emit("mlp", (x, w1, b1, w2, b2), out.reshape(x.shape[:-1] + out.shape[1:]), grad_fn)


def stripe_attention(x, wqkv, wo, lepe, sw):
    """Cross-shaped-window attention of x [..., H,W,C] (no norm, no
    residual) as one taped entry of the package's kernels."""
    ld = None if lepe is None else lepe.data
    out, kept = T._stripe(x.data, wqkv.data, wo.data, ld, sw)

    def grad_fn(g):
        return T._stripe_backward(x.data, wqkv.data, wo.data, ld, sw, kept, g)

    inputs = (x, wqkv, wo) if lepe is None else (x, wqkv, wo, lepe)
    return T._emit("stripe_attention", inputs, out.reshape(x.shape), grad_fn)
