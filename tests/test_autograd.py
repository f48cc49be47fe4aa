import ast
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp import autograd as ag
from setkp.autograd import Tape, Tensor
from setkp.inference import ENCODE_ROWS
from setkp.model import padding_mask


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    n_coords: int = 50,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    f() must rebuild its graph from scratch on every call and depend on the
    parameters only through their .data. Coordinates are sampled uniformly
    across all parameters.
    """
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for name, p in params.items()}

    coords = []
    for name, p in params.items():
        for flat in range(p.data.size):
            coords.append((name, flat))
    rng = np.random.default_rng(seed)
    if len(coords) > n_coords:
        pick = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in pick]

    worst = 0.0
    for name, flat in coords:
        p = params[name]
        base = p.data.flat[flat]
        p.data.flat[flat] = base + step
        hi = f().item()
        p.data.flat[flat] = base - step
        lo = f().item()
        p.data.flat[flat] = base
        numeric = (hi - lo) / (2.0 * step)
        analytic = grads[name].flat[flat]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def _param(rng, shape):
    return Tensor(rng.standard_normal(shape))


def _readout(n: int) -> np.ndarray:
    return np.random.default_rng(99).standard_normal(n)


def _dot(t: Tensor) -> Tensor:
    """Scalar <t, r> for a fixed random r, from reshape and _matmul alone."""
    n = t.data.size
    r = Tensor(_readout(n).reshape(n, 1))
    return ag.reshape(_matmul(ag.reshape(t, (1, n)), r), ())


def _linear_array(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ag.gemm(x, w) + b


# Test-local nodes: a product, a softmax, a ReLU, an affine map and
# multi-head attention, each recorded with ``ag._record``. The tape-mechanics
# tests use the product and the softmax as generic nodes; the attention node
# runs the shared ``attention_array`` and ``attention_backward`` formulas,
# which the attention tests check; and with ``layer_norm`` they are the
# unfused reference that the fused sublayer and head nodes must match bit
# for bit.


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    """a (..., k) @ b (k, m) -> (..., m), one ``ag.gemm`` over the leading axes."""
    ad, bd = a.data, b.data
    k, m = bd.shape
    return ag._record(Tensor(ag.gemm(ad, bd)), (a, b),
                      lambda g: (ag.gemm(g, bd.T), ad.reshape(-1, k).T @ g.reshape(-1, m)))


def _softmax(a: Tensor) -> Tensor:
    y = ag.softmax_array(a.data.copy())  # it overwrites its argument

    def back(g):
        return (y * (g - np.add.reduce(g * y, axis=-1, keepdims=True)),)

    return ag._record(Tensor(y), (a,), back)


def _relu(a: Tensor) -> Tensor:
    ad = a.data
    return ag._record(Tensor(np.maximum(ad, 0.0)), (a,), lambda g: (g * (ad > 0.0),))


def _linear(x: Tensor, w: Tensor, b: Tensor, product=ag.gemm) -> Tensor:
    """x @ w + b, its forward's product one flattened ``ag.gemm`` or, with
    ``np.matmul``, one product per leading slice, as in ``ag.softmax_head``."""
    xd, wd = x.data, w.data
    k, m = wd.shape

    def back(g):
        g2 = g.reshape(-1, m)
        return (ag.gemm(g, wd.T), xd.reshape(-1, k).T @ g2, np.add.reduce(g2, axis=0))

    return ag._record(Tensor(product(xd, wd) + b.data), (x, w, b), back)


def _attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None, n_heads: int,
               inv_scale: float, mask: np.ndarray | None = None) -> Tensor:
    y, qh, kh, vh, A = ag.attention_array(q.data, k.data, v.data,
                                          None if bias is None else bias.data,
                                          n_heads, inv_scale, mask)
    parents = (q, k, v) if bias is None else (q, k, v, bias)

    def back(g):
        gq, gk, gv, gs = ag.attention_backward(g, qh, kh, vh, A, n_heads, inv_scale)
        return (gq, gk, gv) if bias is None else (gq, gk, gv, ag._unbroadcast(gs, bias.shape))

    return ag._record(Tensor(y), parents, back)


# ----------------------------------------------------------- FD battery


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a = _param(rng, (3, 4))
    b = _param(rng, (4,))
    err = grad_check(lambda: _dot(_softmax(ag.add(a, b))), {"a": a, "b": b}, n_coords=16)
    assert err < 1e-6


def test_matmul_grad():
    rng = np.random.default_rng(2)
    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    err = grad_check(lambda: _dot(_matmul(a, b)), {"a": a, "b": b}, n_coords=20)
    assert err < 1e-6


def test_matmul_flat_matches_per_entry_products():
    # (B, T, k) @ (k, m) runs as one flattened GEMM; forward and the input
    # gradient must match per-entry 2-D products
    rng = np.random.default_rng(16)
    a = _param(rng, (5, 3, 8))
    b = _param(rng, (8, 6))
    with Tape() as tape:
        out = _matmul(a, b)
        loss = _dot(out)
    tape.backward(loss)
    g = _readout(out.data.size).reshape(out.shape)
    for i in range(5):
        np.testing.assert_allclose(out.data[i], a.data[i] @ b.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad[i], g[i] @ b.data.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, sum(a.data[i].T @ g[i] for i in range(5)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, m", [(64, 64), (64, 256), (256, 64)])
def test_gemm_row_blocks_have_the_bits_of_their_own_products(k, m):
    # batched inference relies on this on the installed numpy and BLAS: in
    # a product of at most ENCODE_ROWS rows at the default encoder widths,
    # each S-row block has the bits of that block's own product, and the
    # stacked (B, S, k) product equals its 2-D slices. It does not hold for
    # every width: the (64, V) generation head breaks it for some V.
    rng = np.random.default_rng(k + m)
    w = rng.standard_normal((k, m))
    for S in range(2, 40):
        B = ENCODE_ROWS // S
        a = rng.standard_normal((B, S, k))
        flat = a.reshape(B * S, k) @ w
        stacked = ag.gemm(a, w)
        for b in range(B):
            own = a[b] @ w
            assert np.array_equal(flat[b * S:(b + 1) * S], own), (S, b)
            assert np.array_equal(stacked[b], own), (S, b)


def _away_from_kink(rng, shape, gain, bias, w1, b1, margin=0.05):
    """An FFN sublayer input whose pre-activations
    layer_norm(x) @ w1 + b1 all lie at least ``margin`` from the ReLU kink,
    so central differences see one slope."""
    while True:
        x = rng.standard_normal(shape)
        if np.abs(_pre_activations(x, gain, bias, w1, b1)).min() >= margin:
            return Tensor(x)


def _pre_activations(x, gain, bias, w1, b1):
    n = ag.layer_norm_array(x, gain.data, bias.data)[0]
    return _linear_array(n, w1.data, b1.data)


def test_ffn_grad():
    rng = np.random.default_rng(17)
    gain, bias = Tensor(rng.standard_normal(3) + 2.0), _param(rng, (3,))
    w1, b1, w2, b2 = _param(rng, (3, 5)), _param(rng, (5,)), _param(rng, (5, 3)), _param(rng, (3,))
    x = _away_from_kink(rng, (2, 2, 3), gain, bias, w1, b1)
    h = _pre_activations(x.data, gain, bias, w1, b1)
    assert (h > 0).any() and (h < 0).any()  # both ReLU slopes are checked
    params = {"x": x, "gain": gain, "bias": bias, "w1": w1, "b1": b1, "w2": w2, "b2": b2}
    assert grad_check(lambda: _dot(ag.ffn(x, gain, bias, w1, b1, w2, b2)), params,
                      n_coords=70) < 1e-6


def _projection(rng, d):
    """A (d, d) weight that keeps attention logits O(1), so no softmax
    saturates and central differences resolve every gradient."""
    return Tensor(rng.standard_normal((d, d)) / np.sqrt(d))


def _self_attention_parents(rng, lead, d, H):
    T = lead[-1]
    return [_param(rng, (*lead, d)), Tensor(rng.standard_normal(d) + 1.0),
            _param(rng, (d,)), *(_projection(rng, d) for _ in range(4)), _param(rng, (H, T, T))]


def _cross_attention_parents(rng, lead, d, B, S):
    return [_param(rng, (*lead, d)), Tensor(rng.standard_normal(d) + 1.0),
            _param(rng, (d,)), _projection(rng, d), _param(rng, (B, S, d)),
            *(_projection(rng, d) for _ in range(3))]


def test_self_attention_grad():
    # two batch entries of four positions under a causal mask, two heads
    rng = np.random.default_rng(24)
    parents = _self_attention_parents(rng, (2, 4), 6, 2)
    mask = np.triu(np.full((4, 4), -np.inf), k=1)
    names = ("x", "gain", "bias", "wq", "wk", "wv", "wo", "pos")
    err = grad_check(lambda: _dot(ag.self_attention(*parents, 2, 0.5, mask=mask)),
                     dict(zip(names, parents)), n_coords=120)
    assert err < 1e-5


def test_cross_attention_grad():
    # six slot rows of two steps in three segments of two rows each, over
    # states of lengths 3, 2 and 3 padded to 3, two heads
    rng = np.random.default_rng(27)
    parents = _cross_attention_parents(rng, (6, 2), 6, 3, 3)
    mask = padding_mask([3, 2, 3])
    names = ("x", "gain", "bias", "wq", "states", "wk", "wv", "wo")
    err = grad_check(lambda: _dot(ag.cross_attention(*parents, 2, 0.5, mask=mask)),
                     dict(zip(names, parents)), n_coords=120)
    assert err < 1e-5
    with Tape() as tape:
        loss = _dot(ag.cross_attention(*parents, 2, 0.5, mask=mask))
    tape.backward(loss)
    states = parents[4]
    assert not states.grad[1, 2:].any()  # padding gets no gradient
    assert states.grad[1, :2].all()


def test_softmax_head_grad():
    rng = np.random.default_rng(25)
    x, w, b = _param(rng, (2, 3, 4)), _param(rng, (4, 5)), _param(rng, (5,))
    err = grad_check(lambda: _dot(ag.softmax_head(x, w, b)), {"x": x, "w": w, "b": b},
                     n_coords=40)
    assert err < 1e-6


@pytest.mark.parametrize("node", ["ffn", "self_attention", "cross_attention"])
def test_residual_input_that_feeds_other_nodes(node):
    # the sublayer's input r feeds its residual sum and its layer norm, and
    # a third node too, so its gradient sums three contributions
    rng = np.random.default_rng(26)
    x0, w0 = _param(rng, (2, 3, 4)), _param(rng, (4, 4))
    gain, bias = _param(rng, (4,)), _param(rng, (4,))
    w1, b1, w2, b2 = _param(rng, (4, 6)), _param(rng, (6,)), _param(rng, (6, 4)), _param(rng, (4,))
    wq, wk, wv, wo = (_param(rng, (4, 4)) for _ in range(4))
    pos, kv = _param(rng, (2, 3, 3)), _param(rng, (1, 5, 4))
    params = {"x0": x0, "w0": w0, "gain": gain, "bias": bias}
    if node == "ffn":
        params.update(w1=w1, b1=b1, w2=w2, b2=b2)
    elif node == "self_attention":
        params.update(wq=wq, wk=wk, wv=wv, wo=wo, pos=pos)
    else:
        params.update(wq=wq, kv=kv, wk=wk, wv=wv, wo=wo)

    def f():
        r = _matmul(x0, w0)
        if node == "ffn":
            out = ag.ffn(r, gain, bias, w1, b1, w2, b2)
        elif node == "self_attention":
            out = ag.self_attention(r, gain, bias, wq, wk, wv, wo, pos, 2, 0.5)
        else:  # both batch entries attend over one segment's states
            out = ag.cross_attention(r, gain, bias, wq, kv, wk, wv, wo, 2, 0.5)
        return _dot(ag.add(out, ag.scale(r, 0.5)))

    if node == "ffn":
        pre = _pre_activations(x0.data @ w0.data, gain, bias, w1, b1)
        assert np.abs(pre).min() >= 1e-3  # away from the kink
    assert grad_check(f, params, n_coords=80) < 1e-6


def _fused_and_unfused(node: str, d: int, rng):
    """Parent tensors of one fused node with a (3, 8) batch lead, and two
    functions of them: the fused node and the unfused composition, in which
    a residual projection is ``add`` over ``_matmul``. ``cross_attention``
    attends with one (8, d) slot row per segment; ``cross_attention_slots``
    has the decoder's layout, a (6, 4) lead of two slot rows per segment;
    ``softmax_head`` has a (3, 5) lead."""
    lead, H = ((6, 4) if node == "cross_attention_slots" else (3, 8)), 4
    if node == "ffn":
        f = 4 * d
        parents = [_param(rng, (*lead, d)), _param(rng, (d,)), _param(rng, (d,)),
                   _param(rng, (d, f)), _param(rng, (f,)), _param(rng, (f, d)), _param(rng, (d,))]
        return parents, lambda *p: ag.ffn(*p), lambda x, gain, bias, w1, b1, w2, b2: ag.add(
            x, _linear(_relu(_linear(ag.layer_norm(x, gain, bias), w1, b1)), w2, b2))
    if node == "self_attention":
        mask = np.triu(np.full((8, 8), -np.inf), k=1)

        def unfused(x, gain, bias, wq, wk, wv, wo, pos):
            h = ag.layer_norm(x, gain, bias)
            att = _attention(_matmul(h, wq), _matmul(h, wk), _matmul(h, wv), pos, H, 0.125,
                             mask=mask)
            return ag.add(x, _matmul(att, wo))

        return (_self_attention_parents(rng, lead, d, H),
                lambda *p: ag.self_attention(*p, H, 0.125, mask=mask), unfused)
    if node.startswith("cross_attention"):
        # 3 segments over states of 5, 3 and 4 of 5 positions
        mask = padding_mask([5, 3, 4])

        def unfused(x, gain, bias, wq, states, wk, wv, wo):
            # the products of the states first: the fused node sums their gradient in this order
            k, v = _matmul(states, wk), _matmul(states, wv)
            q = ag.reshape(_matmul(ag.layer_norm(x, gain, bias), wq), (3, -1, d))
            att = ag.reshape(_attention(q, k, v, None, H, 0.125, mask=mask), x.shape)
            return ag.add(x, _matmul(att, wo))

        return (_cross_attention_parents(rng, lead, d, 3, 5),
                lambda *p: ag.cross_attention(*p, H, 0.125, mask=mask), unfused)
    # slices of 5 rows at width 147, where one flattened product gives some
    # rows other bits than their slice's own product: only the head's rule matches
    parents = [_param(rng, (3, 5, d)), _param(rng, (d, 147)), _param(rng, (147,))]
    return parents, lambda *p: ag.softmax_head(*p), lambda x, w, b: _softmax(
        _linear(x, w, b, np.matmul))


@pytest.mark.parametrize("d", [64, 20])
@pytest.mark.parametrize("node", ["ffn", "self_attention", "cross_attention",
                                  "cross_attention_slots", "softmax_head"])
def test_fused_node_has_the_bits_of_its_composition(node, d):
    parents, fused, unfused = _fused_and_unfused(node, d, np.random.default_rng(d))
    results = []
    for build in (fused, unfused):
        with Tape() as tape:
            out = build(*parents)
            loss = _dot(out)
        tape.backward(loss, wrt=parents)
        results.append((out.data, [p.grad for p in parents]))
    (y, grads), (y_ref, grads_ref) = results
    assert np.array_equal(y, y_ref)
    for g, g_ref in zip(grads, grads_ref):
        assert g is not None and np.array_equal(g, g_ref)


@pytest.mark.parametrize("order", ["given", "reversed"])
def test_softmax_head_slices_have_the_bits_of_their_own_product(order):
    # in one flattened (B*S, d) @ (d, m) product a row's bits may depend on
    # its offset when m mod 8 is 1 to 4, as for the (d, 3) tagger; the head
    # runs one product per slice, so each of B segments gets the bits of
    # its own batch of one, wherever it sits in the batch
    rng = np.random.default_rng(34)
    d, B = 64, 6
    for m in (3, *range(140, 165)):
        w, b = Tensor(rng.standard_normal((d, m))), Tensor(rng.standard_normal(m))
        for S in (1, 2, 5, 8, 13, 32, 40):
            x = rng.standard_normal((B, S, d))
            if order == "reversed":
                x = x[::-1].copy()
            y = ag.softmax_head(Tensor(x), w, b).data
            for i in range(B):
                own = ag.softmax_head(Tensor(x[i : i + 1]), w, b).data[0]
                assert np.array_equal(y[i], own), (m, S, i)


# The shared array formulas as they were written before they computed in
# place, kept verbatim as the reference: the in-place forms must run the
# same operations in the same order, so every bit must match.


def _layer_norm_reference(x, gain, bias):
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + ag.LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _softmax_reference(a):
    e = np.exp(a - np.maximum.reduce(a, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _layer_norm_backward_reference(g, xhat, inv, gain):
    d = g.shape[-1]
    gg = g * gain
    gx = inv * (
        gg
        - np.add.reduce(gg, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(gg * xhat, axis=-1, keepdims=True) / d)
    )
    axes = tuple(range(g.ndim - 1))
    return gx, np.add.reduce(g * xhat, axis=axes), np.add.reduce(g, axis=axes)


def _attention_backward_reference(g, qh, kh, vh, A, n_heads, inv_scale):
    gh = ag.split_heads(g, n_heads)
    gA = gh @ vh.swapaxes(-1, -2)
    gs = A * (gA - np.add.reduce(gA * A, axis=-1, keepdims=True)) * inv_scale
    return (ag._merge_heads(gs @ kh), ag._merge_heads(gs.swapaxes(-1, -2) @ qh),
            ag._merge_heads(A.swapaxes(-1, -2) @ gh), gs)


def _softmax_head_backward_reference(g, y, xd, wd):
    k, m = wd.shape
    gz = y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))
    gz2 = gz.reshape(-1, m)
    return (ag.gemm(gz, wd.T), xd.reshape(-1, k).T @ gz2, np.add.reduce(gz2, axis=0))


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("d", [64, 20])
def test_in_place_formulas_have_the_bits_of_the_allocating_ones(d):
    # each shared formula, and the softmax head's backward, against its
    # allocating form; none writes into an argument it did not make
    rng = np.random.default_rng(d + 1)
    H, lead = 4, (3, 5)
    x = rng.standard_normal((*lead, d)) * 3.0 + 0.5
    gain, bias = rng.standard_normal(d) + 1.0, rng.standard_normal(d)
    g = rng.standard_normal((*lead, d))
    args = [x, gain, bias, g]
    kept = [a.copy() for a in args]

    out = ag.layer_norm_array(x, gain, bias)
    _assert_all_equal(out, _layer_norm_reference(x, gain, bias))
    _, xhat, inv = out
    _assert_all_equal(ag.layer_norm_backward(g, xhat, inv, gain),
                      _layer_norm_backward_reference(g, xhat, inv, gain))

    # logits with -inf key-padding and causal entries; each row keeps a key
    logits = rng.standard_normal((3, H, 5, 5)) * 4.0
    logits += padding_mask([5, 3, 4])
    logits += np.triu(np.full((5, 5), -np.inf), k=1)
    want = _softmax_reference(logits)
    assert (want == 0.0).any()
    assert np.array_equal(ag.softmax_array(logits.copy()), want)

    q, kv = x @ rng.standard_normal((d, d)) / np.sqrt(d), rng.standard_normal((3, 4, d))
    scale = 0.3  # not a power of two, under which two products' order would not show
    _, qh, kh, vh, A = ag.attention_array(q, kv, kv, None, H, scale, padding_mask([4, 2, 3]))
    kept += [a.copy() for a in (qh, kh, vh, A)]
    _assert_all_equal(ag.attention_backward(g, qh, kh, vh, A, H, scale),
                      _attention_backward_reference(g, qh, kh, vh, A, H, scale))

    w, b = Tensor(rng.standard_normal((d, 147))), Tensor(rng.standard_normal(147))
    xt = Tensor(x)
    with Tape() as tape:
        y = ag.softmax_head(xt, w, b)
    assert np.array_equal(y.data, _softmax_reference(x @ w.data + b.data))
    gy = rng.standard_normal(y.shape)
    kept += [gy.copy(), y.data.copy()]
    _assert_all_equal(tape.nodes[-1][2](gy), _softmax_head_backward_reference(gy, y.data, x, w.data))
    for a, before in zip([*args, qh, kh, vh, A, gy, y.data], kept):
        assert np.array_equal(a, before)


def test_gather_heads_grad_per_head_tables():
    # repeated bucket ids accumulate, and each head's table gets only the
    # gradient of its own output block
    rng = np.random.default_rng(18)
    tables = [_param(rng, (5,)) for _ in range(3)]
    idx = np.array([[0, 1, 1], [4, 1, 0]])
    out = ag.gather_heads(tables, idx)
    assert out.shape == (3, 2, 3)
    for h, t in enumerate(tables):
        np.testing.assert_array_equal(out.data[h], t.data[idx])
    params = {f"h{h}": t for h, t in enumerate(tables)}
    assert grad_check(lambda: _dot(_softmax(ag.gather_heads(tables, idx))), params,
                      n_coords=15) < 1e-6

    with Tape() as tape:
        loss = _dot(ag.gather_heads(tables, idx))
    tape.backward(loss)
    r = _readout(18).reshape(3, 2, 3)
    for h, t in enumerate(tables):
        expect = np.zeros(5)
        np.add.at(expect, idx, r[h])
        np.testing.assert_array_equal(t.grad, expect)
        assert t.grad[1] != 0.0 and t.grad[2] == 0.0 and t.grad[3] == 0.0


def test_reshape_grad():
    rng = np.random.default_rng(3)
    a = _param(rng, (3, 4))
    err = grad_check(lambda: _dot(ag.reshape(a, (2, 6))), {"a": a}, n_coords=12)
    assert err < 1e-6
    assert np.shares_memory(ag.reshape(a, (2, 6)).data, a.data)  # a view, not a copy


def test_gather_grad_accumulates_repeats():
    a = Tensor(np.arange(12, dtype=float).reshape(4, 3))
    idx = np.array([1, 1, 3])
    with Tape() as tape:
        out = _dot(ag.gather(a, idx))
    tape.backward(out)
    r = _readout(9).reshape(3, 3)
    expect = np.zeros((4, 3))
    expect[1] = r[0] + r[1]
    expect[3] = r[2]
    np.testing.assert_array_equal(a.grad, expect)


def test_gather_2d_index_shape():
    a = Tensor(np.arange(10, dtype=float).reshape(5, 2))
    out = ag.gather(a, np.array([[0, 1], [4, 4]]))
    assert out.shape == (2, 2, 2)


def test_gather_sum_values_and_grad():
    # rows of different lengths, a repeated index within one row, an empty row
    rng = np.random.default_rng(5)
    a = _param(rng, (6, 4))
    idx = np.array([[1, 1, 4], [2, 0, 0], [0, 0, 0], [5, 3, 0]])
    mask = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0]], dtype=float)
    out = ag.gather_sum(a, idx, mask).data
    np.testing.assert_array_equal(out[0], a.data[1] + a.data[1] + a.data[4])
    np.testing.assert_array_equal(out[1], a.data[2])
    np.testing.assert_array_equal(out[2], np.zeros(4))
    np.testing.assert_array_equal(out[3], a.data[5] + a.data[3])
    err = grad_check(lambda: _dot(_softmax(ag.gather_sum(a, idx, mask))), {"a": a}, n_coords=24)
    assert err < 1e-6

    with Tape() as tape:
        loss = _dot(ag.gather_sum(a, idx, mask))
    tape.backward(loss)
    assert not a.grad[[0]].any()  # index 0 appears only under mask 0


def test_attention_grad_with_key_padding_mask():
    # batch entries of lengths 4, 2 and 3 padded to 4, one (H, T, T) head
    # bias; queries and values past an entry's length are padding too
    rng = np.random.default_rng(15)
    q = _param(rng, (3, 4, 6))
    k = _param(rng, (3, 4, 6))
    v = _param(rng, (3, 4, 6))
    bias = _param(rng, (2, 4, 4))
    lengths = [4, 2, 3]
    mask = np.zeros((3, 1, 1, 4))
    for b, n in enumerate(lengths):
        mask[b, ..., n:] = -np.inf

    def f():
        return _dot(_attention(q, k, v, bias, n_heads=2, inv_scale=0.5, mask=mask))

    params = {"q": q, "k": k, "v": v, "bias": bias}
    assert grad_check(f, params, n_coords=100) < 1e-5

    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    out = _attention(q, k, v, bias, n_heads=2, inv_scale=0.5, mask=mask)
    for b, n in enumerate(lengths):
        assert not k.grad[b, n:].any() and not v.grad[b, n:].any()
        one = _attention(Tensor(q.data[b, :n]), Tensor(k.data[b, :n]), Tensor(v.data[b, :n]),
                         Tensor(bias.data[:, :n, :n]), n_heads=2, inv_scale=0.5)
        np.testing.assert_allclose(out.data[b, :n], one.data, rtol=0, atol=1e-12)


def test_layer_norm_grad():
    rng = np.random.default_rng(7)
    x = _param(rng, (4, 6))
    g = Tensor(rng.standard_normal(6) + 2.0)
    b = _param(rng, (6,))
    err = grad_check(lambda: _dot(ag.layer_norm(x, g, b)), {"x": x, "g": g, "b": b},
                     n_coords=40)
    assert err < 1e-5


def test_layer_norm_hand_values():
    x = Tensor(np.array([[1.0, 3.0]]))
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = ag.layer_norm(x, g, b).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]] / np.sqrt(1.0 + ag.LN_EPS), atol=1e-12)


def test_attention_grad_with_bias_and_mask():
    rng = np.random.default_rng(8)
    q = _param(rng, (3, 4))
    k = _param(rng, (5, 4))
    v = _param(rng, (5, 4))
    bias = _param(rng, (2, 3, 5))
    mask = np.zeros((3, 5))
    mask[0, 4] = -np.inf

    def f():
        return _dot(_attention(q, k, v, bias, n_heads=2, inv_scale=0.5, mask=mask))

    params = {"q": q, "k": k, "v": v, "bias": bias}
    assert grad_check(f, params, n_coords=60) < 1e-5


def test_batched_attention_grad_with_bias_and_causal_mask():
    # (B, T, d) queries/keys/values, one (H, T, T) head bias and a (T, T)
    # causal mask broadcast over the batch axis
    rng = np.random.default_rng(11)
    q = _param(rng, (3, 4, 6))
    k = _param(rng, (3, 4, 6))
    v = _param(rng, (3, 4, 6))
    bias = _param(rng, (2, 4, 4))
    mask = np.triu(np.full((4, 4), -np.inf), k=1)

    def f():
        return _dot(_attention(q, k, v, bias, n_heads=2, inv_scale=0.5, mask=mask))

    params = {"q": q, "k": k, "v": v, "bias": bias}
    assert grad_check(f, params, n_coords=80) < 1e-5


@pytest.mark.parametrize("shapes", [
    ((3, 2, 4), (5, 4), (5, 4)),  # keys and values shared by every batch entry
    ((3, 2, 4), (1, 5, 4), (1, 5, 4)),  # a batch axis of one, broadcast
    ((3, 2, 4), (3, 5, 4), (2, 5, 4)),  # values of another batch
    ((2, 4), (2, 5, 4), (2, 5, 4)),  # unbatched queries
])
def test_attention_rejects_differing_leading_axes(shapes):
    q, k, v = (Tensor(np.ones(s)) for s in shapes)
    with pytest.raises(ValueError, match="leading axes"):
        _attention(q, k, v, None, n_heads=2, inv_scale=0.5)


def test_batched_attention_matches_per_entry_loop():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((3, 4, 6)))
    k = Tensor(rng.standard_normal((3, 4, 6)))
    v = Tensor(rng.standard_normal((3, 4, 6)))
    bias = Tensor(rng.standard_normal((2, 4, 4)))
    mask = np.triu(np.full((4, 4), -np.inf), k=1)
    out = _attention(q, k, v, bias, n_heads=2, inv_scale=0.5, mask=mask)
    for b in range(3):
        one = _attention(Tensor(q.data[b]), Tensor(k.data[b]), Tensor(v.data[b]),
                         bias, n_heads=2, inv_scale=0.5, mask=mask)
        np.testing.assert_allclose(out.data[b], one.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("masking", ["key_padding", "causal"])
def test_attention_head_bias_matches_per_head_logits(masking):
    # one (H, Tq, Tk) bias adds bias[h] to head h's logits, for every batch entry
    rng = np.random.default_rng(19)
    H, B, T, d = 2, 3, 4, 6
    q, k, v = (Tensor(rng.standard_normal((B, T, d))) for _ in range(3))
    bias = Tensor(rng.standard_normal((H, T, T)))
    if masking == "causal":
        mask = np.triu(np.full((T, T), -np.inf), k=1)
    else:
        mask = np.zeros((B, 1, 1, T))
        mask[1, ..., 2:] = -np.inf
    out = _attention(q, k, v, bias, n_heads=H, inv_scale=0.5, mask=mask)
    dh = d // H
    full = np.broadcast_to(mask, (B, H, T, T))
    for b in range(B):
        for h in range(H):
            cols = slice(h * dh, (h + 1) * dh)
            logits = (q.data[b, :, cols] @ k.data[b, :, cols].T + bias.data[h]) * 0.5
            logits = logits + full[b, h]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            A = e / e.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out.data[b, :, cols], A @ v.data[b, :, cols],
                                       rtol=0, atol=1e-12)


def test_matmul_batched_grad():
    rng = np.random.default_rng(14)
    a = _param(rng, (2, 3, 4))
    b = _param(rng, (4, 5))
    err = grad_check(lambda: _dot(_matmul(a, b)), {"a": a, "b": b}, n_coords=30)
    assert err < 1e-5


def test_attention_rows_stochastic_and_mask_zeroes():
    # value row j is one-hot at column j of each head's block, so head h's
    # output block is its (Tq, Tk) weight matrix
    rng = np.random.default_rng(9)
    H, Tq, Tk = 2, 3, 5
    q = Tensor(rng.standard_normal((Tq, H * Tk)))
    k = Tensor(rng.standard_normal((Tk, H * Tk)))
    v = Tensor(np.tile(np.eye(Tk), (1, H)))
    mask = np.zeros((Tq, Tk))
    mask[1, 2] = -np.inf
    out = _attention(q, k, v, None, n_heads=H, inv_scale=0.5, mask=mask)
    for h in range(H):
        A = out.data[:, h * Tk:(h + 1) * Tk]
        np.testing.assert_allclose(A.sum(axis=1), np.ones(Tq), atol=1e-12)
        assert A[1, 2] == 0.0
        assert (A[mask == 0] > 0).all()


def test_attention_matches_manual_single_head():
    rng = np.random.default_rng(10)
    q = Tensor(rng.standard_normal((2, 3)))
    k = Tensor(rng.standard_normal((4, 3)))
    v = Tensor(rng.standard_normal((4, 3)))
    bias = Tensor(rng.standard_normal((1, 2, 4)))
    inv_scale = 1.0 / np.sqrt(3.0)
    out = _attention(q, k, v, bias, n_heads=1, inv_scale=inv_scale)

    logits = (q.data @ k.data.T + bias.data[0]) * inv_scale
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    A = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.data, A @ v.data, atol=1e-12)


def test_weighted_nll_hand_value():
    probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]))
    loss = ag.weighted_nll(probs, [0, 1, 0], [1.0, 0.5, 0.0])
    expect = -np.log(0.5) - 0.5 * np.log(0.75)
    assert loss.item() == pytest.approx(expect)


def test_weighted_nll_zero_weight_rows_get_no_grad():
    probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
    with Tape() as tape:
        loss = ag.weighted_nll(probs, [0, 1], [1.0, 0.0])
    tape.backward(loss)
    np.testing.assert_array_equal(probs.grad[1], np.zeros(2))
    assert probs.grad[0, 0] != 0.0


def test_weighted_nll_floor_adds_constant_and_no_grad():
    # row 0's picked probability sits below the floor: it adds
    # -w * log(LOG_FLOOR) and gets no gradient; row 1 is ordinary
    probs = Tensor(np.array([[1e-15, 1.0], [0.25, 0.75]]))
    with Tape() as tape:
        loss = ag.weighted_nll(probs, [0, 1], [2.0, 1.0])
    tape.backward(loss)
    assert loss.item() == pytest.approx(-2.0 * np.log(ag.LOG_FLOOR) - np.log(0.75))
    np.testing.assert_array_equal(probs.grad[0], np.zeros(2))
    assert probs.grad[1, 1] == pytest.approx(-1.0 / 0.75)


def test_weighted_nll_all_ones_equals_ce_sum():
    rng = np.random.default_rng(11)
    raw = rng.random((4, 3)) + 0.1
    pd = raw / raw.sum(axis=1, keepdims=True)
    probs = Tensor(pd)
    targets = [2, 0, 1, 1]
    loss = ag.weighted_nll(probs, targets, np.ones(4))
    expect = sum(-np.log(pd[i, t]) for i, t in enumerate(targets))
    assert loss.item() == pytest.approx(expect)


# ------------------------------------------------------------ tape mechanics


def test_fanout_accumulates():
    x = Tensor(np.array(3.0))
    with Tape() as tape:
        y = ag.add(x, x)  # dy/dx = 2
    tape.backward(y)
    assert x.grad == pytest.approx(2.0)


def test_backward_twice_resets_grads():
    x = Tensor(np.array([1.0, 2.0]))
    with Tape() as tape:
        loss = _dot(_softmax(ag.add(x, x)))
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3))
    with Tape() as tape:
        y = ag.add(x, x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_a_node_is_recorded_exactly_while_a_tape_is_active():
    # the one recording rule: every op run inside a tape records its node,
    # plain parents or not; an op outside any tape is recorded nowhere; and
    # a pass's wrt alone decides which tensors keep a gradient
    x, w = Tensor(np.array([[2.0]])), Tensor(np.array([[5.0]]))
    before = ag.scale(x, 3.0)
    with Tape() as tape:
        y = ag.scale(x, 3.0)  # every parent a plain Tensor
        loss = ag.reshape(_matmul(y, w), ())
    after = ag.scale(x, 3.0)
    with Tape() as idle:
        pass
    outs = [out for out, _, _ in tape.nodes]
    assert len(outs) == 3 and outs[0] is y and outs[2] is loss
    assert not idle.nodes and all(t not in outs for t in (before, after))
    tape.backward(loss, wrt=[w])
    assert w.grad == pytest.approx(6.0)
    assert x.grad is None and y.grad is None and loss.grad is None
    tape.backward(loss, wrt=[x, y])
    assert x.grad == pytest.approx(15.0) and y.grad == pytest.approx(5.0) and w.grad is None


def test_backward_uses_values_from_op_time():
    # optimizers rebind .data between backward passes of one retained graph;
    # gradients must reflect the forward-time values
    x = Tensor(np.array([[2.0]]))
    w = Tensor(np.array([[5.0]]))
    with Tape() as tape:
        loss = ag.reshape(_matmul(x, w), ())
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(5.0)
        w.data = np.array([[100.0]])  # rebinding, as AdamW does
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(5.0)


def test_seeded_backward_matches_finite_differences():
    # backward(loss, seeds=[(t, c), ...]) differentiates loss + sum <c, t>;
    # z is not on the loss's path at all, so only its seed reaches w2
    rng = np.random.default_rng(5)
    x, w, w2 = _param(rng, (3, 4)), _param(rng, (4, 4)), _param(rng, (4, 2))
    gain, bias = _param(rng, (4,)), _param(rng, (4,))
    c_h, c_z = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
    params = {"x": x, "w": w, "w2": w2, "gain": gain, "bias": bias}

    def forward():
        h = ag.layer_norm(_matmul(x, w), gain, bias)
        return _dot(_softmax(h)), h, _matmul(x, w2)

    def value() -> float:
        loss, h, z = forward()
        return loss.item() + float(np.sum(c_h * h.data)) + float(np.sum(c_z * z.data))

    with Tape() as tape:
        loss, h, z = forward()
    tape.backward(loss, seeds=[(h, c_h), (z, c_z)])
    grads = {n: p.grad.copy() for n, p in params.items()}
    tape.backward(loss, wrt=[w2, gain], seeds=[(h, c_h), (z, c_z)])
    np.testing.assert_array_equal(w2.grad, grads["w2"])
    np.testing.assert_array_equal(gain.grad, grads["gain"])
    assert x.grad is None and w.grad is None and bias.grad is None

    step = 1e-6
    for name, p in params.items():
        for flat in range(p.data.size):
            base = p.data.flat[flat]
            p.data.flat[flat] = base + step
            hi = value()
            p.data.flat[flat] = base - step
            lo = value()
            p.data.flat[flat] = base
            numeric = (hi - lo) / (2.0 * step)
            assert grads[name].flat[flat] == pytest.approx(numeric, rel=1e-6, abs=1e-8), (name, flat)


def test_seed_shape_must_match_its_tensor():
    x = Tensor(np.ones((2, 3)))
    with Tape() as tape:
        h = ag.scale(x, 2.0)
        loss = _dot(h)
    with pytest.raises(ValueError):
        tape.backward(loss, seeds=[(h, np.ones(3))])


def test_backward_wrt_intermediate_gives_its_exact_gradient():
    rng = np.random.default_rng(6)
    x, w = _param(rng, (3, 4)), _param(rng, (4, 4))
    with Tape() as tape:
        h = _matmul(x, w)  # the intermediate; its node is tape.nodes[0]
        loss = ag.add(_dot(_softmax(h)), _dot(ag.scale(h, 0.5)))  # h fans out
    producer = [0]  # counts replays of h's node
    out, parents, back = tape.nodes[0]

    def counted(g):
        producer[0] += 1
        return back(g)

    tape.nodes[0] = (out, parents, counted)
    tape.backward(loss)
    full = h.grad.copy()
    assert producer == [1] and x.grad is not None and w.grad is not None

    tape.backward(loss, wrt=[h])
    np.testing.assert_array_equal(h.grad, full)
    assert x.grad is None and w.grad is None
    assert producer == [1]  # nothing upstream of h was replayed


def _reference_grads(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Every gradient of a full pass, keyed by tensor id, from a replay that
    copies each first gradient and never adds in place: no array it keeps
    can alias another, so its bits are the ones an alias-free tape gives."""
    grads = {id(loss): np.ones(())}
    for out, parents, back in reversed(tape.nodes):
        if id(out) not in grads:
            continue
        for p, g in zip(parents, back(grads[id(out)])):
            if g is None:
                continue
            grads[id(p)] = g.copy() if id(p) not in grads else grads[id(p)] + g
    return grads


def _assert_same_bits(tape: Tape, ref: dict[int, np.ndarray], only=None) -> None:
    tensors = {id(t): t for out, parents, _ in tape.nodes for t in (out, *parents)}
    for key in ref if only is None else [id(t) for t in only]:
        got = tensors[key].grad
        assert got is not None and got.shape == ref[key].shape
        assert got.tobytes() == ref[key].tobytes()


def _twin(a: Tensor, b: Tensor) -> Tensor:
    """a + b, whose backward hands one array to both parents."""
    def back(g):
        d = g * 1.0
        return d, d
    return ag._record(Tensor(a.data + b.data), (a, b), back)


def _identity(a: Tensor) -> Tensor:
    """a, whose backward hands its incoming gradient straight back."""
    return ag._record(Tensor(a.data.copy()), (a,), lambda g: (g,))


def test_backward_keeps_first_gradients_apart_from_shared_arrays():
    # each first gradient the tape adopts without a copy would, if shared,
    # be written through by a later += : add's parents get two views of one
    # array, and the reshape view of r's gradient then accumulates into u;
    # _twin hands one array to both parents; _identity returns out.grad
    x = Tensor(np.arange(6.0).reshape(2, 3) - 2.5)
    with Tape() as tape:
        u, v = ag.scale(x, 2.0), ag.scale(x, 3.0)
        r = ag.reshape(u, (3, 2))  # replayed after add: accumulates into u
        s = ag.add(u, v)
        e = ag.scale(s, 1.5)  # replayed after _identity: accumulates into s
        i = _identity(s)
        p, q = ag.scale(x, 0.5), ag.scale(x, -1.0)
        c = ag.scale(q, 0.25)  # replayed after _twin: accumulates into q
        t = _twin(p, q)
        loss = ag.add(ag.add(_dot(i), _dot(e)), ag.add(_dot(t), ag.add(_dot(r), _dot(c))))
    ref = _reference_grads(tape, loss)
    tape.backward(loss)
    _assert_same_bits(tape, ref)
    tape.backward(loss, wrt=[u, s])
    _assert_same_bits(tape, ref, only=[u, s])


def _kept_slope(a: Tensor, rest: Tensor, kept: np.ndarray) -> Tensor:
    """sum(kept * a) + rest as a loss: its backward rule returns the array
    `kept` itself, which is a's gradient since a loss's incoming one is 1."""
    out = Tensor(np.add.reduce(kept * a.data) + rest.data)
    return ag._record(out, (a, rest), lambda g: (kept, g))


def test_backward_never_writes_into_an_array_a_rule_keeps():
    # the loss node is replayed first, so x's first gradient is `kept`
    # itself; the softmax path recorded before it then adds to x
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    kept = np.full(3, 2.0)
    with Tape() as tape:
        loss = _kept_slope(x, _dot(_softmax(x)), kept)
    ref = _reference_grads(tape, loss)
    for wrt in (None, [x]):
        tape.backward(loss, wrt=wrt)
        np.testing.assert_array_equal(kept, np.full(3, 2.0))
        _assert_same_bits(tape, ref, only=[x])


def _every_primitive(emb, w, b, gain, bias, tables) -> Tensor:
    x = ag.gather(emb, [[0, 1, 1], [4, 2, 0]])  # (2, 3, 4)
    h = ag.layer_norm(ag.ffn(x, gain, bias, w, b, w, b), gain, bias)  # w, b, gain and bias twice
    rel = ag.gather_heads(tables, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    a = ag.self_attention(h, gain, bias, w, w, w, w, rel, 2, 0.5)  # w four times in one node
    c = ag.cross_attention(a, gain, bias, w, x, w, w, w, 2, 0.5)  # x fans out, twice in one node
    y = ag.add(c, ag.scale(h, 0.5))
    s = ag.gather_sum(ag.reshape(y, (6, 4)), [[0, 5, 2], [2, 2, 1]], [[1, 1, 0], [1, 1, 1]])
    probs = ag.softmax_head(s, w, b)
    return ag.weighted_nll(probs, [1, 3], [0.5, 2.0]), h


def test_backward_bits_on_a_graph_of_every_primitive():
    rng = np.random.default_rng(21)
    params = {"emb": _param(rng, (5, 4)), "w": _param(rng, (4, 4)), "b": _param(rng, (4,)),
              "gain": _param(rng, (4,)), "bias": _param(rng, (4,))}
    tables = [_param(rng, (3,)) for _ in range(2)]

    def f():
        return _every_primitive(*params.values(), tables)

    all_params = {**params, "t0": tables[0], "t1": tables[1]}
    assert grad_check(lambda: f()[0], all_params, n_coords=40) < 1e-6
    with Tape() as tape:
        loss, h = f()  # h: an intermediate that fans out
    ref = _reference_grads(tape, loss)
    tape.backward(loss)
    _assert_same_bits(tape, ref)
    tape.backward(loss, wrt=[h, params["w"]])
    _assert_same_bits(tape, ref, only=[h, params["w"]])


def _tape_tensors(tape: Tape) -> list[Tensor]:
    return list({id(t): t for out, parents, _ in tape.nodes for t in (out, *parents)}.values())


def test_wrt_pass_keeps_gradients_only_on_named_tensors():
    rng = np.random.default_rng(22)
    params = {"emb": _param(rng, (5, 4)), "w": _param(rng, (4, 4)), "b": _param(rng, (4,)),
              "gain": _param(rng, (4,)), "bias": _param(rng, (4,))}
    tables = [_param(rng, (3,)) for _ in range(2)]
    with Tape() as tape:
        loss, h = _every_primitive(*params.values(), tables)
        z = _matmul(h, params["w"])  # seeded, off the loss's path
    seeds = [(z, rng.standard_normal(z.shape)), (params["gain"], rng.standard_normal(4))]
    tensors = _tape_tensors(tape)

    ref = _reference_grads(tape, loss)
    named = [h, params["w"], params["emb"], tables[1]]
    tape.backward(loss, wrt=iter(named))  # a one-shot iterable
    _assert_same_bits(tape, ref, only=named)
    assert {id(t) for t in tensors if t.grad is not None} == {id(t) for t in named}

    tape.backward(loss, seeds=seeds)
    full = {id(t): t.grad.copy() for t in tensors if t.grad is not None}
    assert id(z) in full and id(h) in full and len(full) > len(named) + 2
    named = [params["w"], params["b"]]  # both upstream of z; the seeded gain is a leaf
    tape.backward(loss, wrt={n: params[n] for n in ("w", "b")}.values(), seeds=seeds)
    for t in named:
        assert t.grad.tobytes() == full[id(t)].tobytes()
    assert {id(t) for t in tensors if t.grad is not None} == {id(t) for t in named}


def test_wrt_pass_frees_the_gradients_it_was_not_asked_for():
    # a chain of L (256, 64) products: a full pass ends holding one 128 KiB
    # gradient per link, a pass for the weights only the two in flight
    L = 8
    rng = np.random.default_rng(23)
    x = _param(rng, (256, 64))
    ws = [Tensor(rng.standard_normal((64, 64)) / 8.0) for _ in range(L)]
    with Tape() as tape:
        h = x
        for w in ws:
            h = _matmul(h, w)
        loss = _dot(h)

    def traced_peak(wrt) -> int:
        for t in _tape_tensors(tape):
            t.grad = None
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tape.backward(loss, wrt=wrt)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    full, pruned = traced_peak(None), traced_peak(ws)
    assert all(w.grad is not None for w in ws)
    assert full - pruned >= (L - 2) * 256 * 64 * 8


# ------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one(n, m, seed):
    x = np.random.default_rng(seed).standard_normal((n, m)) * 5
    y = ag.softmax_array(x)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(n), atol=1e-12)
    assert (y >= 0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.floats(-50, 50), st.integers(0, 2**31 - 1))
def test_softmax_shift_invariant(n, shift, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    a = ag.softmax_array(x.copy())
    b = ag.softmax_array(x + shift)
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_add_grad_matches_fd_random_shapes(n, m, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, m)))
    b = Tensor(rng.standard_normal((m,)))
    err = grad_check(lambda: _dot(_softmax(ag.add(a, b))), {"a": a, "b": b},
                     n_coords=8, seed=seed)
    assert err < 1e-5


# ------------------------------------------------------------- module shape


# functions and methods that no src/ module reads, each kept for a reader
# outside src/: the criterion helpers that tests/test_acceptance.py calls
CRITERION_HELPERS = {"setkp.assignment.brute_force", "setkp.metrics.f1_at_5",
                     "setkp.metrics.ndcg_at_k", "setkp.training.loss_encoder_stage3"}
# public names that more than one setkp definition has, each checked to have a
# reader of its own: Model.encode and Vocabulary.encode, the two .text
# properties, and TrainReport.write_csv and io.write_csv
SHARED_NAMES = {"encode", "text", "write_csv"}


def test_every_public_function_has_a_reader_in_src(monkeypatch):
    # a function that only tests call belongs in the tests: every public
    # top-level function and class method of every setkp module is read in
    # src/ outside its own definition. A read is a load of the bare name, so
    # definitions that share a name share their reads: the set of shared
    # names is pinned, and a new one fails until its definitions are checked.
    from test_bench_targets import _bench_targets

    src = Path(ag.__file__).parent
    public = {}
    read = set()

    def visit(node, owners):
        if isinstance(node, ast.FunctionDef):
            owners = owners | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name not in owners:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            # Model.fresh calls Initializer's methods by the names param_spec lists
            if getattr(top, "name", None) == "Initializer":
                continue
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for n in defs:
                if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"):
                    owner = f"{top.name}." if n is not top else ""
                    public[f"setkp.{path.stem}.{owner}{n.name}"] = n.name
        visit(tree, frozenset())
    # the benchmark's tracer times these by name
    traced = {f"{t.module}.{t.attr}" for t in _bench_targets(monkeypatch)}
    unread = {q for q, name in public.items() if name not in read}
    assert len(public) > 100
    names = list(public.values())
    assert {n for n in names if names.count(n) > 1} == SHARED_NAMES
    assert unread <= traced | CRITERION_HELPERS, sorted(unread - traced - CRITERION_HELPERS)
    # every exception is still a public function that nothing in src/ reads
    assert CRITERION_HELPERS <= unread


def _writes_a_file(call: ast.Call) -> bool:
    """A call of open, os.open or Path.open with a mode that is not plain
    reading, of Path.write_text or Path.write_bytes, or of os.replace,
    os.rename or os.fsync."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    on_os = isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "os"
    if name in ("write_text", "write_bytes"):
        return True
    if name in ("replace", "rename", "fsync"):
        return on_os
    if name != "open":
        return False
    pos = 1 if isinstance(f, ast.Name) or on_os else 0  # Path.open(mode)
    mode = call.args[pos] if len(call.args) > pos else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_every_file_is_written_by_the_one_writer():
    # checkpoints, JSONL and CSV outputs replace their target in one way:
    # only io.output_file opens a file to write, renames or fsyncs
    src = Path(ag.__file__).parent
    writers = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call) and _writes_a_file(n):
                    writers.append(f"{path.name}:{getattr(top, 'name', n.lineno)}")
    assert set(writers) == {"io.py:output_file"}, writers


def test_no_private_name_crosses_a_module():
    # a name with a leading underscore is read only in the module that
    # defines it: no setkp module imports one from another (`from .m import
    # _x`) or reads one off another module it imported (`m._x`)
    src = Path(ag.__file__).parent
    crossings = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names this file binds to setkp modules
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level > 0:
                for a in n.names:
                    if n.module is None:
                        modules.add(a.asname or a.name)
                    elif a.name.startswith("_"):
                        crossings.append(f"{path.name}: from .{n.module} import {a.name}")
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr.startswith("_")
                    and isinstance(n.value, ast.Name) and n.value.id in modules):
                crossings.append(f"{path.name}:{n.lineno}: {n.value.id}.{n.attr}")
    assert crossings == []
