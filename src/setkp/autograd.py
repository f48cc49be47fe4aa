"""Dense float64 tensors with tape-based reverse-mode differentiation.

Small by design: a handful of primitives, each with a hand-derived backward
rule, recorded on an explicit Tape and replayed in reverse. No broadcasting
magic beyond what numpy gives us, no views into graph tensors, no GPU.
Gradients are exact up to float64 round-off; the test suite checks every
backward rule against central finite differences.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

LOG_FLOOR = 1e-12  # probability floor inside weighted_nll

_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tensor:
    """Immutable-by-convention value node.

    `data` is a float64 ndarray. Intermediate tensors must never be written
    to after creation; parameter leaves (requires_grad=True) are mutated only
    by optimizers and finite-difference probes, never mid-graph.
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
    in reverse exactly once, accumulating parent gradients by summation, so
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

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

        loss must be a scalar recorded on this tape. Grads of all tensors
        touched by the tape are reset first, so repeated backward calls over
        one tape never mix.
        """
        if loss.data.shape != ():
            raise ValueError("backward expects a scalar loss")
        for out, parents, _ in self.nodes:
            out.grad = None
            for p in parents:
                p.grad = None
        loss.grad = np.ones((), dtype=np.float64)
        for out, parents, back in reversed(self.nodes):
            if out.grad is None:
                continue
            gs = back(out.grad)
            for p, g in zip(parents, gs):
                if g is None or not p.requires_grad:
                    continue
                if p.grad is None:
                    p.grad = g.copy()  # g may be shared with a sibling parent
                else:
                    p.grad += g


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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------- primitives


# Backward closures must bind operand arrays at op-construction time (the
# `ad`/`bd` locals below): optimizers rebind parameter .data between steps,
# and the staged schedule re-differentiates graphs built before a rebind.


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape
    out = Tensor(a.data + b.data)
    return _record(
        out, (a, b), lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh))
    )


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (..., k) @ b (k, m) -> (..., m): leading axes of a are batch axes."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ValueError("matmul expects a (..., k) @ (k, m) pair")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    k, m = bd.shape
    return _record(
        out, (a, b), lambda g: (g @ bd.T, ad.reshape(-1, k).T @ g.reshape(-1, m))
    )


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape).copy())
    return _record(out, (a,), lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0
    return _record(out, (a,), lambda g: (g * mask,))


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


def sum_rows(a: Tensor) -> Tensor:
    """(n, d) -> (d,): sum over axis 0."""
    out = Tensor(a.data.sum(axis=0))
    n = a.data.shape[0]
    return _record(out, (a,), lambda g: (np.tile(g, (n, 1)),))


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """List of (d,) vectors -> (n, d). Row i depends only on parts[i]."""
    out = Tensor(np.stack([p.data for p in parts], axis=0))
    return _record(out, tuple(parts), lambda g: tuple(g[i] for i in range(len(parts))))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along `axis`."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x (…, d) to zero mean / unit variance, then affine."""
    gd = gain.data
    d = x.data.shape[-1]
    # the sums np.mean / np.var compute, without their per-call overhead
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gd + bias.data)

    def back(g):
        gg = g * gd
        gx = inv * (
            gg
            - gg.mean(axis=-1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        return (gx, (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return _record(out, (x, gain, bias), back)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, d) -> (..., H, T, d/H)."""
    *lead, T, d = x.shape
    return x.reshape(*lead, T, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, T, dh) -> (..., T, H*dh)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    biases: Sequence[Tensor] | None,
    n_heads: int,
    inv_scale: float,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Fused multi-head attention with leading batch axes.

    q (..., Tq, d), k/v (..., Tk, d); the leading axes broadcast, so keys
    shared by every batch entry can stay (Tk, d). Head h uses columns
    [h*dh:(h+1)*dh], and all heads are computed at once as (..., H, Tq, Tk)
    logits = (q_h k_h^T + bias_h) * inv_scale + mask, softmaxed over keys,
    with the head outputs concatenated back to (..., Tq, d). `biases` is
    one tensor per head broadcastable to (..., Tq, Tk) (learned
    relative-position term) or None. `mask` is an additive (Tq, Tk)
    constant (0 / -inf) shared by every batch entry and head. The weights
    are not returned; value rows that are one-hot within each head's block
    make the output show them. Fusing keeps the tape short; the backward
    below is the textbook attention gradient, batched over heads, with
    broadcast operands' gradients summed back to their shapes.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.shape[-1] % n_heads:
        raise ValueError("width not divisible by head count")
    qh, kh, vh = (_split_heads(x, n_heads) for x in (qd, kd, vd))

    logits = qh @ kh.swapaxes(-1, -2)
    if biases is not None:
        logits = logits + np.stack([b.data for b in biases], axis=-3)
    logits *= inv_scale
    if mask is not None:
        logits += mask
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    A = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(_merge_heads(A @ vh))

    parents: tuple[Tensor, ...]
    if biases is not None:
        parents = (q, k, v, *biases)
    else:
        parents = (q, k, v)

    def back(g):
        gh = _split_heads(g, n_heads)
        gA = gh @ vh.swapaxes(-1, -2)
        gs = A * (gA - (gA * A).sum(axis=-1, keepdims=True)) * inv_scale
        grads = [
            _unbroadcast(_merge_heads(gs @ kh), qd.shape),
            _unbroadcast(_merge_heads(gs.swapaxes(-1, -2) @ qh), kd.shape),
            _unbroadcast(_merge_heads(A.swapaxes(-1, -2) @ gh), vd.shape),
        ]
        if biases is not None:
            grads += [_unbroadcast(gs[..., h, :, :], b.data.shape) for h, b in enumerate(biases)]
        return tuple(grads)

    return _record(out, parents, back)


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
