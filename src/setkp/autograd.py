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
leading axes, and ``gather_heads`` looks up every head's relative-position
bias in one node. Each pre-LN transformer sublayer is one node:
``self_attention``, ``cross_attention`` and ``ffn`` each run the sublayer's
layer norm, its projections and attention or feed-forward block, and its
residual sum; ``softmax_head`` is an output head. Each runs exactly the
operations of the composition it replaces and sums its gradients in the
order a tape of that composition sums them, so its bits are that
composition's. Its backward keeps only the arrays its rule reads: of the
norm, the normalized rows and inverse deviations, from which it rebuilds the
normed rows as xhat * gain + bias (the forward's own two elementwise
operations, with no reduction run again). So the training tape holds no
normed activation, pre-activation, logit or pre-residual product.
``layer_norm`` stays a node for a stack's final norm. Reductions call the
ufunc's ``reduce`` directly, which gives the same bits as the ndarray
methods without their Python frames.

The formulas that more than one node needs are plain array functions: the
forwards ``gemm``, ``softmax_array``, ``layer_norm_array``, ``split_heads``
and ``attention_array``, and the backwards ``layer_norm_backward`` and
``attention_backward``. Every other forward runs inside its own node.
``model.Model.decode_cache`` uses ``gemm`` and ``split_heads`` to build the
cache of the greedy decode loop, and its cached step
(``model.Model.decode_probs``) uses ``layer_norm_array`` and
``softmax_array``, so the package has one norm formula and one softmax
formula; the rest of the step runs the nodes' operations in their order as
plain numpy, keeping none of the intermediates a backward rule reads, and
``tests/test_model.py::test_greedy_decode_has_the_bits_of_the_concatenating_step``
pins its bits to a greedy loop built from these functions.

In-place rule: a function or node writes only into arrays it made itself.
``layer_norm_array`` normalizes its own centred rows (they become xhat) and
adds the bias into its own xhat * gain; ``softmax_array`` overwrites and
returns the logits it is given, so each caller passes logits it has just
made; the backwards finish on their own g * gain or gA; and the nodes add
into their own residual sums, rebuilt normed rows, projection-gradient sums
and input gradients. Each in-place step runs the ufunc the allocating
formula ran, on the same operands in the same order, or swaps the two
operands of a single + or *, which IEEE 754 makes exact; so it saves the
temporaries and changes no bit. Nothing writes into an incoming gradient,
an array a backward rule keeps, a parameter or a ``DecodeCache`` buffer.
``tests/test_autograd.py::test_in_place_formulas_have_the_bits_of_the_allocating_ones``
pins each formula to its allocating form.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_FLOOR = 1e-12  # probability floor inside weighted_nll
LN_EPS = 1e-5  # variance floor of every layer norm

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


def ffn(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
        ) -> Tensor:
    """A pre-LN residual feed-forward sublayer
    x + relu(layer_norm(x, gain, bias) @ w1 + b1) @ w2 + b2 as one node,
    x (..., k), w1 (k, f) and w2 (f, k). Backward keeps the norm's xhat and
    inv, the activation and the weight matrices; it rebuilds the normed rows
    as xhat * gain + bias, the forward's own two operations. x's gradient is
    the residual's plus the norm's, the sum a tape of the unfused nodes
    makes. The ReLU, both bias sums and the residual sum run in place."""
    xd, gd, bd, wd1, wd2 = x.data, gain.data, bias.data, w1.data, w2.data
    n, xhat, inv = layer_norm_array(xd, gd, bd)
    h = gemm(n, wd1)
    h += b1.data
    np.maximum(h, 0.0, out=h)
    y = gemm(h, wd2)
    y += b2.data
    y += xd  # the residual sum x + y, its two operands swapped
    k, f = wd1.shape

    def back(g):
        g2 = g.reshape(-1, k)
        gh = gemm(g, wd2.T)
        np.multiply(gh, h > 0.0, out=gh)  # the ReLU's slope, with no second (rows, f) array
        gh2 = gh.reshape(-1, f)
        gw1, gb1 = _normed(xhat, gd, bd).reshape(-1, k).T @ gh2, np.add.reduce(gh2, axis=0)
        gn = gemm(gh, wd1.T)
        del gh, gh2  # the widest arrays go before the norm's backward runs
        gx, ggain, gbias = layer_norm_backward(gn, xhat, inv, gd)
        gx += g  # the residual's gradient plus the norm's
        return (gx, ggain, gbias, gw1, gb1, h.reshape(-1, f).T @ g2, np.add.reduce(g2, axis=0))

    return _record(Tensor(y), (x, gain, bias, w1, b1, w2, b2), back)


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


def softmax_array(a: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax of a plain array over its last axis,
    computed in place: it overwrites ``a`` with the result and returns it,
    so a caller passes logits it has just made and reads them no more."""
    a -= np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=-1, keepdims=True)
    return a


def softmax_head(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """An output head softmax(x (..., k) @ w (k, m) + b (m,)) over its last
    axis as one node. Backward keeps x, w and the output, not the logits."""
    xd, wd = x.data, w.data
    k, m = wd.shape
    z = gemm(xd, wd)
    z += b.data
    y = softmax_array(z)

    def back(g):
        gz = g - np.add.reduce(g * y, axis=-1, keepdims=True)
        gz *= y
        gz2 = gz.reshape(-1, m)
        return (gemm(gz, wd.T), xd.reshape(-1, k).T @ gz2, np.add.reduce(gz2, axis=0))

    return _record(Tensor(y), (x, w, b), back)


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward formula of ``layer_norm`` on plain arrays: the output,
    and the normalized rows and inverse deviations its backward reads."""
    d = x.shape[-1]
    # the sums np.mean / np.var compute, without their per-call overhead;
    # the centred rows become xhat in place, the variances the inverse deviations
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _normed(xhat, gain, bias), xhat, inv


def _normed(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """A layer norm's output xhat * gain + bias from its normalized rows,
    the bias added into the product this call makes."""
    y = xhat * gain
    y += bias
    return y


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward formula of ``layer_norm`` on plain arrays: the gradients
    of x, gain and bias from the output's gradient g and the normalized rows
    and inverse deviations of ``layer_norm_array``."""
    d = g.shape[-1]
    gx = g * gain
    # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), finished in place on
    # gg = g * gain once both of its row means are taken
    mean = np.add.reduce(gx, axis=-1, keepdims=True) / d
    proj = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
    gx -= mean
    gx -= xhat * proj
    gx *= inv
    axes = tuple(range(g.ndim - 1))
    return gx, np.add.reduce(g * xhat, axis=axes), np.add.reduce(g, axis=axes)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of x (…, d) to zero mean / unit variance, then affine."""
    gd = gain.data
    y, xhat, inv = layer_norm_array(x.data, gd, bias.data)
    return _record(Tensor(y), (x, gain, bias), lambda g: layer_norm_backward(g, xhat, inv, gd))


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d) -> (..., H, T, d/H)."""
    *lead, T, d = x.shape
    return x.reshape(*lead, T, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, T, dh) -> (..., T, H*dh)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def attention_array(
    qd: np.ndarray,
    kd: np.ndarray,
    vd: np.ndarray,
    bias: np.ndarray | None,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Multi-head attention on plain arrays with leading batch axes: the
    (..., Tq, d) output, then the per-head q, k and v and the attention
    weights that ``attention_backward`` reads.

    q (..., Tq, d), k/v (..., Tk, d), all three with the same leading axes
    (ValueError otherwise). Head h uses columns [h*dh:(h+1)*dh], and all
    heads are computed at once as (..., H, Tq, Tk)
    logits = (q_h k_h^T + bias[h]) * inv_scale + mask, softmaxed over keys,
    with the head outputs concatenated back to (..., Tq, d). `bias` is an
    (H, Tq, Tk) array (a learned relative-position term) or None; it is
    added to the logits in place, so it must not be larger than them.
    `mask` is an additive constant (0 / -inf) broadcastable to the logits:
    a (Tq, Tk) causal mask shared by every batch entry and head, or a
    (B, 1, 1, Tk) key-padding mask. Every query row must keep one finite
    key.
    """
    if not qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]:
        raise ValueError(f"q, k and v leading axes differ: {qd.shape}, {kd.shape}, {vd.shape}")
    if qd.shape[-1] % n_heads:
        raise ValueError("width not divisible by head count")
    qh, kh, vh = (split_heads(x, n_heads) for x in (qd, kd, vd))
    logits = qh @ kh.swapaxes(-1, -2)
    if bias is not None:
        logits += bias
    logits *= inv_scale
    if mask is not None:
        logits += mask
    A = softmax_array(logits)
    return _merge_heads(A @ vh), qh, kh, vh, A


def attention_backward(g: np.ndarray, qh: np.ndarray, kh: np.ndarray, vh: np.ndarray,
                       A: np.ndarray, n_heads: int, inv_scale: float) -> tuple[np.ndarray, ...]:
    """The backward formula of attention on plain arrays, the textbook
    attention gradient batched over heads: from the merged output's gradient
    g and the per-head q, k, v and weights A of the forward, the merged
    gradients of q, k and v, then the (..., H, Tq, Tk) gradient of a
    position bias before it is summed back to the bias's shape."""
    gh = split_heads(g, n_heads)
    gs = gh @ vh.swapaxes(-1, -2)  # gA, then A * (gA - sum(gA * A)) * inv_scale in place
    gs -= np.add.reduce(gs * A, axis=-1, keepdims=True)
    gs *= A
    gs *= inv_scale
    return (_merge_heads(gs @ kh), _merge_heads(gs.swapaxes(-1, -2) @ qh),
            _merge_heads(A.swapaxes(-1, -2) @ gh), gs)


def self_attention(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    pos_bias: Tensor,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> Tensor:
    """A pre-LN self-attention sublayer as one node: x (..., T, d) plus
    ``attention_array`` over the normed rows' projections by wq, wk and wv,
    projected by wo. `pos_bias` is the (H, T, T) position bias (from
    ``gather_heads``) and `mask` is as for ``attention_array``.

    Backward keeps the norm's xhat and inv, the per-head q, k and v, the
    attention weights and the merged attention output; it rebuilds the
    normed rows as xhat * gain + bias, the forward's own two operations.
    Gradients are summed as a tape of the unfused nodes sums them: the
    normed rows' as (v + k) + q, x's as the residual's plus the norm's.
    """
    xd, gd, bd = x.data, gain.data, bias.data
    wqd, wkd, wvd, wod = wq.data, wk.data, wv.data, wo.data
    d = xd.shape[-1]
    n, xhat, inv = layer_norm_array(xd, gd, bd)
    q, k, v = gemm(n, wqd), gemm(n, wkd), gemm(n, wvd)
    del n  # backward rebuilds the normed rows
    att, qh, kh, vh, A = attention_array(q, k, v, pos_bias.data, n_heads, inv_scale, mask)
    shape = pos_bias.data.shape

    def back(g):
        gq, gk, gv, gs = attention_backward(gemm(g, wod.T), qh, kh, vh, A, n_heads, inv_scale)
        gpos = _unbroadcast(gs, shape)
        del gs
        n2 = _normed(xhat, gd, bd).reshape(-1, d)
        # each projection's gradients in the order the unfused tape replays
        # them, its incoming gradient dropped as soon as it is read
        gwv, gn = n2.T @ gv.reshape(-1, d), gemm(gv, wvd.T)
        del gv
        gwk = n2.T @ gk.reshape(-1, d)
        gn += gemm(gk, wkd.T)
        del gk
        gwq = n2.T @ gq.reshape(-1, d)
        gn += gemm(gq, wqd.T)
        del gq, n2
        gx, ggain, gbias = layer_norm_backward(gn, xhat, inv, gd)
        gx += g  # the residual's gradient plus the norm's
        return (gx, ggain, gbias, gwq, gwk, gwv, att.reshape(-1, d).T @ g.reshape(-1, d), gpos)

    y = gemm(att, wod)
    y += xd  # the residual sum x + y, its two operands swapped
    return _record(Tensor(y), (x, gain, bias, wq, wk, wv, wo, pos_bias), back)


def cross_attention(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    wq: Tensor,
    k: Tensor,
    v: Tensor,
    wo: Tensor,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> Tensor:
    """A pre-LN cross-attention sublayer as one node: x (..., T, d) plus
    the attention of the normed rows' wq projections over the keys and
    values k, v (B, S, d), projected by wo. x's rows regroup into B equal
    blocks in order, one per segment, and block b attends over k[b] and
    v[b] only; `mask` is a (B, 1, 1, S) key-padding mask or None.

    Backward keeps the norm's xhat and inv, the query heads, the attention
    weights and the attention output (the key and value heads are views of
    k and v); it rebuilds the normed rows as xhat * gain + bias. x's
    gradient is the residual's plus the norm's, the sum a tape of the
    unfused nodes makes.
    """
    xd, gd, bd, wqd, wod = x.data, gain.data, bias.data, wq.data, wo.data
    d = xd.shape[-1]
    n, xhat, inv = layer_norm_array(xd, gd, bd)
    q = gemm(n, wqd)
    del n  # backward rebuilds the normed rows
    # (..., T, d) rows -> (B, rows per segment, d) per-segment queries and back
    att, qh, kh, vh, A = attention_array(q.reshape(*k.data.shape[:-2], -1, d), k.data, v.data,
                                         None, n_heads, inv_scale, mask)
    att = att.reshape(xd.shape)

    def back(g):
        gq, gk, gv = attention_backward(gemm(g, wod.T).reshape(*kh.shape[:-3], -1, d),
                                        qh, kh, vh, A, n_heads, inv_scale)[:3]
        gq = gq.reshape(g.shape)
        gwq, gn = _normed(xhat, gd, bd).reshape(-1, d).T @ gq.reshape(-1, d), gemm(gq, wqd.T)
        del gq
        gx, ggain, gbias = layer_norm_backward(gn, xhat, inv, gd)
        gx += g  # the residual's gradient plus the norm's
        return (gx, ggain, gbias, gwq, gk, gv, att.reshape(-1, d).T @ g.reshape(-1, d))

    y = gemm(att, wod)
    y += xd  # the residual sum x + y, its two operands swapped
    return _record(Tensor(y), (x, gain, bias, wq, k, v, wo), back)


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
