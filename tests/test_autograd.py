from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp import autograd as ag
from setkp.autograd import Tape, Tensor, no_grad


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
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _readout(n: int) -> np.ndarray:
    return np.random.default_rng(99).standard_normal(n)


def _dot(t: Tensor) -> Tensor:
    """Scalar <t, r> for a fixed random r, from reshape and matmul alone."""
    n = t.data.size
    r = Tensor(_readout(n).reshape(n, 1))
    return ag.reshape(ag.matmul(ag.reshape(t, (1, n)), r), ())


# ----------------------------------------------------------- FD battery


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a = _param(rng, (3, 4))
    b = _param(rng, (4,))
    err = grad_check(lambda: _dot(ag.softmax(ag.add(a, b))), {"a": a, "b": b}, n_coords=16)
    assert err < 1e-6


def test_matmul_grad():
    rng = np.random.default_rng(2)
    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    err = grad_check(lambda: _dot(ag.matmul(a, b)), {"a": a, "b": b}, n_coords=20)
    assert err < 1e-6


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ag.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_reshape_grad():
    rng = np.random.default_rng(3)
    a = _param(rng, (3, 4))
    err = grad_check(lambda: _dot(ag.reshape(a, (2, 6))), {"a": a}, n_coords=12)
    assert err < 1e-6


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((4, 4)) + np.sign(rng.standard_normal((4, 4))) * 0.5,
               requires_grad=True)
    err = grad_check(lambda: _dot(ag.relu(a)), {"a": a}, n_coords=16)
    assert err < 1e-6


def test_gather_grad_accumulates_repeats():
    a = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
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


def test_sum_rows_stack_rows_grad():
    rng = np.random.default_rng(5)
    parts = [_param(rng, (4,)) for _ in range(3)]
    err = grad_check(lambda: _dot(ag.softmax(ag.stack_rows(parts))),
                     {f"p{i}": p for i, p in enumerate(parts)}, n_coords=12)
    assert err < 1e-6

    a = _param(rng, (3, 4))
    err = grad_check(lambda: _dot(ag.softmax(ag.sum_rows(a))), {"a": a}, n_coords=12)
    assert err < 1e-6


def test_softmax_grad():
    rng = np.random.default_rng(6)
    a = _param(rng, (3, 5))
    err = grad_check(lambda: _dot(ag.softmax(a)), {"a": a}, n_coords=15)
    assert err < 1e-6


def test_layer_norm_grad():
    rng = np.random.default_rng(7)
    x = _param(rng, (4, 6))
    g = Tensor(rng.standard_normal(6) + 2.0, requires_grad=True)
    b = _param(rng, (6,))
    err = grad_check(lambda: _dot(ag.layer_norm(x, g, b)), {"x": x, "g": g, "b": b},
                     n_coords=40)
    assert err < 1e-5


def test_layer_norm_hand_values():
    x = Tensor(np.array([[1.0, 3.0]]))
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = ag.layer_norm(x, g, b, eps=0.0).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-12)


def test_attention_grad_with_bias_and_mask():
    rng = np.random.default_rng(8)
    q = _param(rng, (3, 4))
    k = _param(rng, (5, 4))
    v = _param(rng, (5, 4))
    biases = [_param(rng, (3, 5)) for _ in range(2)]
    mask = np.zeros((3, 5))
    mask[0, 4] = -np.inf

    def f():
        return _dot(ag.multi_head_attention(q, k, v, biases, n_heads=2, inv_scale=0.5, mask=mask))

    params = {"q": q, "k": k, "v": v, "b0": biases[0], "b1": biases[1]}
    assert grad_check(f, params, n_coords=60) < 1e-5


def test_batched_attention_grad_with_bias_and_causal_mask():
    # (B, T, d) queries/keys/values, per-head (T, T) biases and a (T, T)
    # causal mask broadcast over the batch axis
    rng = np.random.default_rng(11)
    q = _param(rng, (3, 4, 6))
    k = _param(rng, (3, 4, 6))
    v = _param(rng, (3, 4, 6))
    biases = [_param(rng, (4, 4)) for _ in range(2)]
    mask = np.triu(np.full((4, 4), -np.inf), k=1)

    def f():
        return _dot(ag.multi_head_attention(q, k, v, biases, n_heads=2, inv_scale=0.5, mask=mask))

    params = {"q": q, "k": k, "v": v, "b0": biases[0], "b1": biases[1]}
    assert grad_check(f, params, n_coords=80) < 1e-5


def test_batched_attention_grad_with_shared_keys():
    # (B, Tq, d) queries over (Tk, d) keys/values shared by every batch entry
    rng = np.random.default_rng(12)
    q = _param(rng, (3, 2, 4))
    k = _param(rng, (5, 4))
    v = _param(rng, (5, 4))

    def f():
        return _dot(ag.multi_head_attention(q, k, v, None, n_heads=2, inv_scale=0.5))

    assert grad_check(f, {"q": q, "k": k, "v": v}, n_coords=60) < 1e-5


def test_batched_attention_matches_per_entry_loop():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((3, 4, 6)))
    k = Tensor(rng.standard_normal((3, 4, 6)))
    v = Tensor(rng.standard_normal((3, 4, 6)))
    biases = [Tensor(rng.standard_normal((4, 4))) for _ in range(2)]
    mask = np.triu(np.full((4, 4), -np.inf), k=1)
    out = ag.multi_head_attention(q, k, v, biases, n_heads=2, inv_scale=0.5, mask=mask)
    for b in range(3):
        one = ag.multi_head_attention(Tensor(q.data[b]), Tensor(k.data[b]), Tensor(v.data[b]),
                                      biases, n_heads=2, inv_scale=0.5, mask=mask)
        np.testing.assert_allclose(out.data[b], one.data, rtol=0, atol=1e-12)


def test_matmul_batched_grad():
    rng = np.random.default_rng(14)
    a = _param(rng, (2, 3, 4))
    b = _param(rng, (4, 5))
    err = grad_check(lambda: _dot(ag.matmul(a, b)), {"a": a, "b": b}, n_coords=30)
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
    out = ag.multi_head_attention(q, k, v, None, n_heads=H, inv_scale=0.5, mask=mask)
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
    bias = Tensor(rng.standard_normal((2, 4)))
    inv_scale = 1.0 / np.sqrt(3.0)
    out = ag.multi_head_attention(q, k, v, [bias], n_heads=1, inv_scale=inv_scale)

    logits = (q.data @ k.data.T + bias.data) * inv_scale
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    A = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.data, A @ v.data, atol=1e-12)


def test_weighted_nll_hand_value():
    probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]), requires_grad=True)
    loss = ag.weighted_nll(probs, [0, 1, 0], [1.0, 0.5, 0.0])
    expect = -np.log(0.5) - 0.5 * np.log(0.75)
    assert loss.item() == pytest.approx(expect)


def test_weighted_nll_zero_weight_rows_get_no_grad():
    probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]), requires_grad=True)
    with Tape() as tape:
        loss = ag.weighted_nll(probs, [0, 1], [1.0, 0.0])
    tape.backward(loss)
    np.testing.assert_array_equal(probs.grad[1], np.zeros(2))
    assert probs.grad[0, 0] != 0.0


def test_weighted_nll_floor_adds_constant_and_no_grad():
    # row 0's picked probability sits below the floor: it adds
    # -w * log(LOG_FLOOR) and gets no gradient; row 1 is ordinary
    probs = Tensor(np.array([[1e-15, 1.0], [0.25, 0.75]]), requires_grad=True)
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
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape() as tape:
        y = ag.add(x, x)  # dy/dx = 2
    tape.backward(y)
    assert x.grad == pytest.approx(2.0)


def test_backward_twice_resets_grads():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = _dot(ag.softmax(ag.add(x, x)))
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ag.add(x, x)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_no_grad_suspends_recording():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        with no_grad():
            y = ag.scale(x, 3.0)
        z = ag.scale(x, 3.0)
    assert not y.requires_grad
    assert len(tape.nodes) == 1
    tape.backward(z)
    assert x.grad == pytest.approx(3.0)


def test_recording_off_without_tape():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = ag.add(x, x)
    assert not y.requires_grad


def test_backward_uses_values_from_op_time():
    # optimizers rebind .data between backward passes of one retained graph;
    # gradients must reflect the forward-time values
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    w = Tensor(np.array([[5.0]]), requires_grad=True)
    with Tape() as tape:
        loss = ag.reshape(ag.matmul(x, w), ())
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(5.0)
        w.data = np.array([[100.0]])  # rebinding, as AdamW does
        tape.backward(loss)
        assert x.grad[0, 0] == pytest.approx(5.0)


# ------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_softmax_rows_sum_to_one(n, m, seed):
    x = np.random.default_rng(seed).standard_normal((n, m)) * 5
    y = ag.softmax(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(n), atol=1e-12)
    assert (y >= 0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.floats(-50, 50), st.integers(0, 2**31 - 1))
def test_softmax_shift_invariant(n, shift, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    a = ag.softmax(Tensor(x)).data
    b = ag.softmax(Tensor(x + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_add_grad_matches_fd_random_shapes(n, m, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, m)), requires_grad=True)
    b = Tensor(rng.standard_normal((m,)), requires_grad=True)
    err = grad_check(lambda: _dot(ag.softmax(ag.add(a, b))), {"a": a, "b": b},
                     n_coords=8, seed=seed)
    assert err < 1e-5
