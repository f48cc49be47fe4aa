"""Dense float64 tensors with tape-based reverse-mode differentiation.

Small by design: a handful of primitives, each with a hand-derived backward
rule, recorded on an explicit Tape and replayed in reverse. No broadcasting
magic beyond what numpy gives us, no GPU. Gradients are exact up to float64
round-off; the test suite checks every backward rule against central finite
differences. Gradients are summed out of place, so a gradient array may be
shared by several tensors, or be a view of another one, and nothing ever
writes into it.

``Tape.backward(loss, wrt=...)`` leaves a gradient only on the named
tensors (every tensor on the tape when ``wrt`` is None): it replays just
the paths from them to the loss and drops each other gradient as soon as
its node has passed it on, so a pass holds the gradients in flight rather
than one per tensor.

The hot path is Python overhead per node, so the primitives are coarse:
every (..., k) @ (k, m) product runs as one 2-D GEMM over the flattened
leading axes, ``gather_heads`` looks up every head's relative-position bias
in one node, and ``multi_head_attention`` is fused. Three nodes fuse a
transformer's remaining sublayers: ``ffn`` (a residual feed-forward block),
``residual_matmul`` (a residual projection) and ``softmax_head`` (an output
head). Each runs exactly the operations of the composition it replaces, so
its bits are that composition's, and its backward keeps only the arrays
its rule reads: the training tape holds no pre-activation, logit or
pre-residual product. Reductions call the ufunc's ``reduce`` directly,
which gives the same bits as the ndarray methods without their Python
frames.

The forward formulas a tape-free caller needs are plain array functions
(``gemm``, ``linear_array``, ``softmax_array``, ``residual_matmul_array``,
``ffn_array``, ``softmax_head_array``, ``layer_norm_array`` and
``attention_array``, which splits heads and runs ``attention_heads``).
Each primitive computes its output with its array function, so code that
runs a pass on arrays, with no Tensor or node per step, gets the bits the
taped pass gets.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_FLOOR = 1e-12  # probability floor inside weighted_nll

_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tensor:
    """Immutable-by-convention value node.

    `data` is a float64 ndarray, and it may be a view of another tensor's
    data (``reshape`` makes one). Views are safe because no array on a
    graph is written while that graph is in use: intermediates are never
    written after creation, and optimizers rebind a parameter's data rather
    than write into it. Code that writes a parameter in place, such as a
    finite-difference probe, builds its graph again after the write.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


class Tape:
    """Ordered record of executed primitives.

    Each node is (output, parents, backward_fn). Backward replays the list
    in reverse in one pass, summing parent gradients out of place, so
    fan-out in the DAG sums naturally. Entering a tape makes it the active
    recorder for the current thread; tapes must not be nested.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("tapes do not nest")
        _tls.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _tls.tape = None

    def backward(
        self,
        loss: Tensor,
        wrt: Iterable[Tensor] | None = None,
        seeds: Iterable[tuple[Tensor, np.ndarray]] = (),
    ) -> None:
        """Store d(loss)/d(tensor) in .grad.

        loss must be a scalar recorded on this tape. Grads of all tensors
        touched by the tape are reset first, so repeated backward calls over
        one tape never mix.

        ``seeds`` are extra (tensor, cotangent) pairs, each cotangent shaped
        like its tensor: the pass then differentiates loss + sum_i <c_i, t_i>,
        a vector-Jacobian product. A seed starts its tensor's gradient before
        any node adds to it, so a tensor whose downstream graph is gone can
        still pass on a gradient taken earlier.

        ``wrt`` names the tensors to differentiate; None names every tensor
        on the tape. One pass serves both: only nodes with a parent on a
        path from a named tensor to the loss are replayed, and the named
        tensors that the loss (or a seed) reaches hold a gradient afterwards;
        every other .grad is None. A replayed node's output that is not
        named drops its gradient as soon as the node has passed it on, so
        the pass holds only the gradients still in flight, not one per
        tensor. A named tensor may be an intermediate: it gets its own exact
        gradient, and nothing upstream of it is replayed unless another
        named tensor lies there. The named tensors' gradients are
        bit-identical to those of a pass that names every tensor, since
        every pruned contribution ends off those paths and sums never write
        into an array.
        """
        if loss.data.shape != ():
            raise ValueError("backward expects a scalar loss")
        for out, parents, _ in self.nodes:
            out.grad = None
            for p in parents:
                p.grad = None
        if wrt is None:
            named = {id(t) for out, parents, _ in self.nodes for t in (out, *parents)}
        else:
            named = {id(t) for t in wrt}
        live, replay = self._downstream(named)
        loss.grad = np.ones((), dtype=np.float64)
        for t, c in seeds:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != t.data.shape:
                raise ValueError(f"seed of shape {c.shape} for a tensor of shape {t.data.shape}")
            if id(t) not in live:
                continue  # reaches no named tensor
            t.grad = c.copy() if t.grad is None else t.grad + c
        for out, parents, back in reversed(self.nodes):
            if out.grad is None:
                continue
            if id(out) in replay:
                for p, g in zip(parents, back(out.grad)):
                    if g is not None and p.requires_grad and id(p) in live:
                        p.grad = g if p.grad is None else p.grad + g
            if id(out) not in named:
                out.grad = None  # no earlier node reads it

    def _downstream(self, named: set[int]) -> tuple[set[int], set[int]]:
        """ids of the named tensors and of every recorded output that depends
        on one (the tensors that may receive a gradient), and ids of the
        outputs whose node has such a parent (the nodes to replay)."""
        live = set(named)
        replay = set()
        for out, parents, _ in self.nodes:
            for p in parents:
                if id(p) in live:
                    live.add(id(out))
                    replay.add(id(out))
                    break
        return live, replay


def recording() -> bool:
    """True while a tape is recording on the current thread."""
    return _active_tape() is not None


@contextlib.contextmanager
def no_grad():
    """Suspend recording on the current thread's active tape, if any."""
    prev = _active_tape()
    _tls.tape = None
    try:
        yield
    finally:
        _tls.tape = prev


def _record(out: Tensor, parents: tuple[Tensor, ...], back: Callable) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.nodes.append((out, parents, back))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- primitives


# Backward closures must bind operand arrays at op-construction time (the
# `ad`/`bd` locals below): optimizers rebind parameter .data between steps,
# and the staged schedule re-differentiates graphs built before a rebind.


def add(a: Tensor, b: Tensor) -> Tensor:
    ash, bsh = a.data.shape, b.data.shape
    out = Tensor(a.data + b.data)
    return _record(
        out, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh))
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward formula of ``matmul`` on plain arrays: a (..., k) @ b
    (k, m) as one 2-D product over the flattened leading axes; numpy would
    otherwise loop over them, one small product each."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (..., k) @ b (k, m) -> (..., m): leading axes of a are batch axes."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ValueError("matmul expects a (..., k) @ (k, m) pair")
    ad, bd = a.data, b.data
    out = Tensor(gemm(ad, bd))
    k, m = bd.shape
    return _record(
        out, (a, b), lambda g: (gemm(g, bd.T), ad.reshape(-1, k).T @ g.reshape(-1, m))
    )


def linear_array(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An affine map x (..., k) @ w (k, m) + b (m,) on plain arrays."""
    y = gemm(x, w)
    y += b
    return y


def residual_matmul_array(x: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The forward formula of ``residual_matmul`` on plain arrays."""
    return x + gemm(a, w)


def residual_matmul(x: Tensor, a: Tensor, w: Tensor) -> Tensor:
    """x + a (..., k) @ w (k, m) as one node: a residual projection, such as
    an attention output's. Backward keeps only a and w."""
    ad, wd = a.data, w.data
    k, m = wd.shape
    return _record(Tensor(residual_matmul_array(x.data, ad, wd)), (x, a, w),
                   lambda g: (g, gemm(g, wd.T), ad.reshape(-1, k).T @ g.reshape(-1, m)))


def ffn_array(r: np.ndarray, x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
              w2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward formula of ``ffn`` on plain arrays: the output, and the
    post-ReLU activation its backward reads (the ReLU runs in place)."""
    h = linear_array(x, w1, b1)
    np.maximum(h, 0.0, out=h)
    return r + linear_array(h, w2, b2), h


def ffn(r: Tensor, x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A residual feed-forward block r + relu(x @ w1 + b1) @ w2 + b2 as one
    node, x (..., k), w1 (k, f), w2 (f, k) and r shaped like the output.
    Backward keeps x, the activation and the two weight matrices, not the
    pre-activation or the block's output before the residual sum."""
    xd, wd1, wd2 = x.data, w1.data, w2.data
    y, h = ffn_array(r.data, xd, wd1, b1.data, wd2, b2.data)
    k, f = wd1.shape

    def back(g):
        g2 = g.reshape(-1, k)
        gh = gemm(g, wd2.T) * (h > 0.0)
        gh2 = gh.reshape(-1, f)
        return (g, gemm(gh, wd1.T), xd.reshape(-1, k).T @ gh2, np.add.reduce(gh2, axis=0),
                h.reshape(-1, f).T @ g2, np.add.reduce(g2, axis=0))

    return _record(Tensor(y), (r, x, w1, b1, w2, b2), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old),))


def gather(a: Tensor, idx) -> Tensor:
    """Rows of a indexed along axis 0 by an integer array of any shape.

    a (n, ...) with idx shape I -> out shape I + a.shape[1:]. Backward
    scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(idx, dtype=np.intp)
    shape, dtype = a.data.shape, a.data.dtype
    out = Tensor(a.data[idx])

    def back(g):
        buf = np.zeros(shape, dtype=dtype)
        np.add.at(buf, idx, g)
        return (buf,)

    return _record(out, (a,), back)


def gather_sum(a: Tensor, idx, mask) -> Tensor:
    """Masked sums of gathered rows: out[r] = sum_k mask[r, k] * a[idx[r, k]].

    a (n, d) with idx and mask (R, K) -> (R, d). Rows are summed in k
    order, and an entry with mask 0 adds nothing and receives no gradient;
    backward scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(idx, dtype=np.intp)
    m = np.asarray(mask, dtype=np.float64)[..., None]
    shape = a.data.shape
    out = Tensor((a.data[idx] * m).sum(axis=1))

    def back(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g[:, None, :] * m)
        return (buf,)

    return _record(out, (a,), back)


def gather_heads(tables: Sequence[Tensor], idx) -> Tensor:
    """Per-head lookups stacked as one node: out[h] = tables[h][idx].

    Each table is (n,) and idx an integer array of any shape I; the output
    is (H, *I), e.g. the (H, Tq, Tk) relative-position bias of an
    attention from a (Tq, Tk) bucket table. Backward scatter-adds each
    head's gradient into its own table, so repeated ids accumulate.
    """
    idx = np.asarray(idx, dtype=np.intp)
    H, n = len(tables), tables[0].data.shape[0]
    out = Tensor(np.stack([t.data for t in tables])[:, idx])

    def back(g):
        flat = (idx + n * np.arange(H).reshape((H,) + (1,) * idx.ndim)).ravel()
        buf = np.bincount(flat, weights=g.ravel(), minlength=H * n).reshape(H, n)
        return tuple(buf)

    return _record(out, tuple(tables), back)


def softmax_array(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax of a plain array along ``axis``."""
    e = np.exp(a - np.maximum.reduce(a, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def softmax_head_array(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward formula of ``softmax_head`` on plain arrays."""
    return softmax_array(linear_array(x, w, b))


def softmax_head(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """An output head softmax(x (..., k) @ w (k, m) + b (m,)) over its last
    axis as one node. Backward keeps x, w and the output, not the logits."""
    xd, wd = x.data, w.data
    k, m = wd.shape
    y = softmax_head_array(xd, wd, b.data)

    def back(g):
        gz = y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))
        gz2 = gz.reshape(-1, m)
        return (gemm(gz, wd.T), xd.reshape(-1, k).T @ gz2, np.add.reduce(gz2, axis=0))

    return _record(Tensor(y), (x, w, b), back)


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward formula of ``layer_norm`` on plain arrays: the output,
    and the normalized rows and inverse deviations its backward reads."""
    d = x.shape[-1]
    # the sums np.mean / np.var compute, without their per-call overhead
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x (…, d) to zero mean / unit variance, then affine."""
    gd = gain.data
    d = x.data.shape[-1]
    y, xhat, inv = layer_norm_array(x.data, gd, bias.data, eps)
    out = Tensor(y)

    def back(g):
        gg = g * gd
        gx = inv * (
            gg
            - np.add.reduce(gg, axis=-1, keepdims=True) / d
            - xhat * (np.add.reduce(gg * xhat, axis=-1, keepdims=True) / d)
        )
        axes = tuple(range(g.ndim - 1))
        return (gx, np.add.reduce(g * xhat, axis=axes), np.add.reduce(g, axis=axes))

    return _record(out, (x, gain, bias), back)


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d) -> (..., H, T, d/H)."""
    *lead, T, d = x.shape
    return x.reshape(*lead, T, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, T, dh) -> (..., T, H*dh)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def attention_heads(
    qh: np.ndarray,
    kh: np.ndarray,
    vh: np.ndarray,
    bias: np.ndarray | None,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The head-level formula of attention on (..., H, T, d/H) arrays: the
    merged (..., Tq, d) output and the (..., H, Tq, Tk) attention weights.
    A caller that holds its keys and values split into heads already, such
    as a cached decode step, calls it directly."""
    logits = qh @ kh.swapaxes(-1, -2)
    if bias is not None:
        logits += bias
    logits *= inv_scale
    if mask is not None:
        logits += mask
    A = softmax_array(logits)
    return _merge_heads(A @ vh), A


def attention_array(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    bias: np.ndarray | None,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """The forward formula of ``multi_head_attention`` on plain arrays: the
    (..., Tq, d) output, then the per-head q, k and v and the attention
    weights its backward reads."""
    if not qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]:
        raise ValueError(f"q, k and v leading axes differ: {qd.shape}, {kd.shape}, {vd.shape}")
    if qd.shape[-1] % n_heads:
        raise ValueError("width not divisible by head count")
    qh, kh, vh = (split_heads(x, n_heads) for x in (qd, kd, vd))
    y, A = attention_heads(qh, kh, vh, bias, inv_scale, mask)
    return y, qh, kh, vh, A


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Tensor | None,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Fused multi-head attention with leading batch axes.

    q (..., Tq, d), k/v (..., Tk, d), all three with the same leading axes
    (ValueError otherwise). Head h uses columns [h*dh:(h+1)*dh], and all
    heads are computed at once as (..., H, Tq, Tk)
    logits = (q_h k_h^T + bias[h]) * inv_scale + mask, softmaxed over keys,
    with the head outputs concatenated back to (..., Tq, d). `bias` is one
    (H, Tq, Tk) tensor (the learned relative-position term, from
    ``gather_heads``) or None; it is added to the logits in place, so it
    must not be larger than them. `mask` is an additive constant (0 / -inf)
    broadcastable to the (..., H, Tq, Tk) logits: a (Tq, Tk) causal mask
    shared by every batch entry and head, or a (B, 1, 1, Tk) key-padding
    mask. Every query row must keep one finite key. The weights are not
    returned; value rows that are one-hot within each head's block make the
    output show them. Fusing keeps the tape short; the backward below is
    the textbook attention gradient, batched over heads, with the bias's
    gradient summed back to its shape.
    """
    y, qh, kh, vh, A = attention_array(q.data, k.data, v.data,
                                       None if bias is None else bias.data,
                                       n_heads, inv_scale, mask)
    parents = (q, k, v) if bias is None else (q, k, v, bias)

    def back(g):
        gh = split_heads(g, n_heads)
        gA = gh @ vh.swapaxes(-1, -2)
        gs = A * (gA - np.add.reduce(gA * A, axis=-1, keepdims=True)) * inv_scale
        grads = (_merge_heads(gs @ kh), _merge_heads(gs.swapaxes(-1, -2) @ qh),
                 _merge_heads(A.swapaxes(-1, -2) @ gh))
        return grads if bias is None else (*grads, _unbroadcast(gs, bias.data.shape))

    return _record(Tensor(y), parents, back)


def weighted_nll(probs: Tensor, targets, weights) -> Tensor:
    """sum_r -weights[r] * log probs[r, targets[r]], probabilities floored.

    probs (R, V); targets int (R,); weights float (R,). Rows with weight 0
    contribute nothing and receive no gradient.
    """
    targets = np.asarray(targets, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    rows = np.arange(probs.data.shape[0])
    picked = probs.data[rows, targets]
    clipped = np.maximum(picked, LOG_FLOOR)
    out = Tensor(-(w * np.log(clipped)).sum())

    def back(g):
        gp = np.zeros_like(probs.data)
        live = picked >= LOG_FLOOR
        gp[rows, targets] = -float(g) * w * live / clipped
        return (gp,)

    return _record(out, (probs,), back)
