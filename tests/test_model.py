import math

import numpy as np
import pytest

from setkp import autograd as ag
from setkp.autograd import Tape
from setkp.corpus import KeywordSpan
from setkp.model import (
    DecodeCache,
    Model,
    ModelConfig,
    _ape_rows,
    ape_vector,
    dope_rpe_bucket,
)
from setkp.training import loss_kg


def tiny_cfg(**kw):
    base = dict(
        vocab_size=30,
        d=16,
        n_heads=2,
        n_enc_layers=2,
        n_dec_layers=2,
        n_slots=4,
        n_control_keywords=1,
        ffn_width=32,
        max_encode_len=64,
    )
    base.update(kw)
    return ModelConfig(**base)


# ------------------------------------------------------------------- config


def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d=15)  # odd width
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d=16, n_heads=3)  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, n_slots=7)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, n_slots=4, n_control_keywords=3)
    with pytest.raises(ValueError):
        # strictly fewer control keywords than slots per group
        ModelConfig(vocab_size=10, n_slots=4, n_control_keywords=2)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, max_kp_len=0)  # slots would decode nothing
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, assign_steps=0)  # every assignment cost 0


def test_config_roundtrip():
    cfg = tiny_cfg()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------- positions


def test_ape_t0_is_unit_pattern():
    v = ape_vector(0, 8)
    assert np.allclose(v[0::2], 0.0)  # sin(0)
    assert np.allclose(v[1::2], 1.0)  # cos(0)


def test_ape_t1_hand_values():
    v = ape_vector(1, 4)
    assert v[0] == pytest.approx(math.sin(1.0))
    assert v[1] == pytest.approx(math.cos(1.0))
    assert v[2] == pytest.approx(math.sin(1.0 / 100.0))
    assert v[3] == pytest.approx(math.cos(1.0 / 100.0))


def test_ape_rows_start_at_step_one():
    rows = _ape_rows(3, 8)
    assert rows.shape == (3, 8)
    assert np.allclose(rows[0], ape_vector(1, 8))
    assert np.allclose(rows[2], ape_vector(3, 8))


@pytest.mark.parametrize(
    "u,v,expect",
    [
        (5, 5, 0),  # zero offset
        (5, 4, 1),  # small negative offsets fill buckets 1..7
        (5, 0, 5),
        (0, 1, 17),  # positive offsets start at n_buckets//2 + 1
        (0, 7, 23),
        (0, 8, 24),  # first log bucket
        (8, 0, 8),
        (0, 500, 31),  # far future shares the terminal bucket
        (500, 0, 15),  # far past likewise on the negative side
    ],
)
def test_rpe_buckets_bidirectional(u, v, expect):
    assert dope_rpe_bucket(u, v, 32, 128, bidirectional=True) == expect


def test_rpe_buckets_unidirectional():
    # looking back: offsets 0..15 exact, then log buckets; future collapses to 0
    assert dope_rpe_bucket(3, 3, 32, 128, bidirectional=False) == 0
    assert dope_rpe_bucket(3, 8, 32, 128, bidirectional=False) == 0
    assert dope_rpe_bucket(8, 3, 32, 128, bidirectional=False) == 5
    assert dope_rpe_bucket(20, 4, 32, 128, bidirectional=False) == 16
    assert dope_rpe_bucket(200, 0, 32, 128, bidirectional=False) == 31


def test_rpe_monotone_with_distance():
    prev = -1
    for k in range(0, 200):
        b = dope_rpe_bucket(0, k, 32, 128, bidirectional=True)
        if k > 0:
            assert b >= prev
        prev = b
    assert prev == 31


# ------------------------------------------------------------------ encoder


def test_encode_shapes_and_determinism():
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=0)
    ids = [1, 5, 7, 2, 9]
    a = model.encode(ids)
    b = model.encode(ids)
    assert a.data.shape == (5, cfg.d)
    assert np.array_equal(a.data, b.data)


def test_encode_rejects_bad_lengths():
    model = Model.fresh(tiny_cfg(), seed=0)
    with pytest.raises(ValueError):
        model.encode([])
    with pytest.raises(ValueError):
        model.encode([1] * 65)


def test_encoder_uses_relative_biases():
    # a uniform bias shift is softmax-invariant; a single-bucket bump is not
    cfg = tiny_cfg()
    a = Model.fresh(cfg, seed=0)
    b = Model.fresh(cfg, seed=0)
    b.store["enc.rpe.h0"].data[0] += 5.0
    ids = [1, 2, 3, 4, 5]
    assert not np.allclose(a.encode(ids).data, b.encode(ids).data)


def test_kwe_probs_rows_sum_to_one():
    model = Model.fresh(tiny_cfg(), seed=0)
    probs = model.kwe_probs(model.encode([1, 2, 3]))
    assert probs.data.shape == (3, 3)
    assert np.allclose(probs.data.sum(axis=1), 1.0)


def test_encode_differentiable_end_to_end():
    model = Model.fresh(tiny_cfg(), seed=0)
    with Tape() as tape:
        probs = model.kwe_probs(model.encode([1, 2, 3]))
        loss = ag.weighted_nll(probs, [0, 1, 2], np.ones(3))
        tape.backward(loss)
    g = model.store["enc.emb"].grad
    assert g is not None and np.isfinite(g).all() and np.abs(g).sum() > 0


# ----------------------------------------------------------- keyword decode


def _probs_for_labels(labels, conf=0.9):
    out = np.full((len(labels), 3), (1 - conf) / 2)
    for i, lab in enumerate(labels):
        out[i, lab] = conf
    return out


def test_predict_keywords_spans_and_confidence():
    model = Model.fresh(tiny_cfg(), seed=0)
    tag_probs = _probs_for_labels([1, 2, 0, 1])  # B I O B
    spans = model.predict_keywords(tag_probs, ["a", "b", "c", "d"])
    assert [(s.start, s.tokens) for s in spans] == [(0, ["a", "b"]), (3, ["d"])]
    assert all(s.confidence == pytest.approx(0.9) for s in spans)


def test_predict_keywords_ranks_by_confidence():
    model = Model.fresh(tiny_cfg(), seed=0)
    tag_probs = _probs_for_labels([1, 0, 1, 0])
    tag_probs[0, 1] = 0.6  # first span low confidence
    tag_probs[2, 1] = 0.99
    spans = model.predict_keywords(tag_probs, list("abcd"))
    assert [s.start for s in spans] == [2, 0]
    assert [s.start for s in spans[:1]] == [2]


def test_predict_keywords_tie_breaks_by_start():
    model = Model.fresh(tiny_cfg(), seed=0)
    tag_probs = _probs_for_labels([1, 0, 1, 0])
    spans = model.predict_keywords(tag_probs, list("abcd"))
    assert [s.start for s in spans] == [0, 2]


def test_predict_keywords_orphan_i_ignored():
    model = Model.fresh(tiny_cfg(), seed=0)
    tag_probs = _probs_for_labels([0, 2, 0])  # bare I never opens a span
    assert model.predict_keywords(tag_probs, list("abc")) == []


# ------------------------------------------------------------------ control


def test_control_rows_adds_keyword_embeddings():
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=0)
    rows = model.control_rows([[3, 4], None, None, None]).data
    ctrl = model.store["dec.ctrl"].data
    emb = model.store["dec.emb"].data
    assert rows.shape == (cfg.n_slots, cfg.d)
    assert np.allclose(rows[0], ctrl[0] + emb[3] + emb[4])
    for n in (1, 2, 3):
        assert np.allclose(rows[n], ctrl[n])


def test_control_rows_disabled_ignores_keywords():
    cfg = tiny_cfg(use_keyword_control=False)
    model = Model.fresh(cfg, seed=0)
    rows = model.control_rows([[3, 4], None, None, None]).data
    assert np.allclose(rows[0], model.store["dec.ctrl"].data[0])


def test_control_rows_wrong_length_rejected():
    model = Model.fresh(tiny_cfg(), seed=0)
    with pytest.raises(AssertionError):
        model.control_rows([None, None])


# ------------------------------------------------------------------ decoder


def _decode_setup(cfg, seed=0):
    model = Model.fresh(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, cfg.vocab_size, size=(cfg.n_slots, 3))
    control = model.control_rows([None] * cfg.n_slots)
    enc = model.encode([1, 2, 3, 4, 5])
    return model, prev, control, enc


def test_decode_probs_shape_and_rows():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    probs = model.decode_probs(prev, control, enc)
    assert probs.data.shape == (cfg.n_slots * 3, cfg.vocab_size)
    assert np.allclose(probs.data.sum(axis=1), 1.0)


def test_decode_slot_isolation_under_prev_change():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    base = model.decode_probs(prev, control, enc).data
    T = prev.shape[1]
    mutated = prev.copy()
    mutated[2, :] = (mutated[2, :] + 1) % cfg.vocab_size
    out = model.decode_probs(mutated, control, enc).data
    for n in range(cfg.n_slots):
        rows = slice(n * T, (n + 1) * T)
        if n == 2:
            assert not np.allclose(base[rows], out[rows])
        else:
            assert np.array_equal(base[rows], out[rows])


def test_decode_slot_isolation_under_control_change():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    base = model.decode_probs(prev, control, enc).data
    other = model.control_rows([None, [7], None, None])
    out = model.decode_probs(prev, other, enc).data
    T = prev.shape[1]
    for n in range(cfg.n_slots):
        rows = slice(n * T, (n + 1) * T)
        if n == 1:
            assert not np.allclose(base[rows], out[rows])
        else:
            assert np.array_equal(base[rows], out[rows])


def test_decode_causal_within_slot():
    # changing a slot's last prev token must not touch its earlier rows
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    base = model.decode_probs(prev, control, enc).data
    mutated = prev.copy()
    mutated[0, 2] = (mutated[0, 2] + 1) % cfg.vocab_size
    out = model.decode_probs(mutated, control, enc).data
    assert np.array_equal(base[0:2], out[0:2])
    assert not np.allclose(base[2], out[2])


def test_cached_decode_matches_full_recompute():
    # feeding the steps one (or two) at a time through a cache gives the rows
    # of the teacher-forced pass over the whole prefix
    cfg = tiny_cfg()
    model, _, control, enc = _decode_setup(cfg)
    prev = np.random.default_rng(3).integers(0, cfg.vocab_size, size=(cfg.n_slots, 5))
    full = model.decode_probs(prev, control, enc).data.reshape(cfg.n_slots, 5, -1)
    for chunks in ([1, 1, 1, 1, 1], [2, 1, 2]):
        cache = DecodeCache()
        t0 = 0
        for c in chunks:
            rows = model.decode_probs(prev[:, t0:t0 + c], control, enc, cache=cache).data
            assert rows.shape == (cfg.n_slots * c, cfg.vocab_size)
            np.testing.assert_allclose(
                rows.reshape(cfg.n_slots, c, -1), full[:, t0:t0 + c], rtol=0, atol=1e-12
            )
            t0 += c
        assert cache.steps == 5
        assert all(k.data.shape == (cfg.n_slots, 5, cfg.d) for kv in cache.self_kv for k in kv)


def test_cached_decode_keeps_slots_isolated():
    # two caches stepped along inputs that differ only in slot 1's fed tokens:
    # every other slot's rows stay bit-identical at every step
    cfg = tiny_cfg()
    model, _, control, enc = _decode_setup(cfg)
    prev = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(cfg.n_slots, 6))
    other = prev.copy()
    other[1] = (other[1] + 7) % cfg.vocab_size
    a, b = DecodeCache(), DecodeCache()
    keep = [n for n in range(cfg.n_slots) if n != 1]
    for t in range(prev.shape[1]):
        ra = model.decode_probs(prev[:, t:t + 1], control, enc, cache=a).data
        rb = model.decode_probs(other[:, t:t + 1], control, enc, cache=b).data
        assert np.array_equal(ra[keep], rb[keep])
        assert not np.array_equal(ra[1], rb[1])


def test_greedy_steps_leave_recording_to_the_caller():
    # the generator must not switch recording off itself: under a tape its
    # first cached step raises, under no_grad it decodes
    cfg = tiny_cfg()
    model, _, control, enc = _decode_setup(cfg)
    with Tape():
        with pytest.raises(RuntimeError):
            next(model.greedy_steps(control, enc, 1, 4))
        with ag.no_grad():
            assert next(model.greedy_steps(control, enc, 1, 4)).shape == (cfg.n_slots, cfg.vocab_size)


def test_decode_cache_rejected_while_recording():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    with Tape():
        with pytest.raises(RuntimeError):
            model.decode_probs(prev[:, :1], control, enc, cache=DecodeCache())
        with ag.no_grad():
            model.decode_probs(prev[:, :1], control, enc, cache=DecodeCache())


def test_decode_cache_bound_to_its_encoder_states():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    cache = DecodeCache()
    model.decode_probs(prev[:, :1], control, enc, cache=cache)
    with pytest.raises(ValueError):
        model.decode_probs(prev[:, 1:2], control, model.encode([1, 2, 3]), cache=cache)


def test_decode_grads_flow_to_decoder_params():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    with Tape() as tape:
        enc_t = model.encode([1, 2, 3])
        ctrl = model.control_rows([[3], None, None, None])
        probs = model.decode_probs(prev, ctrl, enc_t)
        loss = loss_kg(probs, prev, np.ones(prev.shape))
        tape.backward(loss)
    for name in ("dec.ctrl", "dec.emb", "kg.w", "enc.emb"):
        g = model.store[name].grad
        assert g is not None and np.isfinite(g).all()


def test_param_split_covers_store():
    model = Model.fresh(tiny_cfg(), seed=0)
    enc = set(model.encoder_params())
    dec = set(model.decoder_params())
    assert not (enc & dec)
    assert enc | dec == set(model.store.names())
