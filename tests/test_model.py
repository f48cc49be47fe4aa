import hashlib
import math

import numpy as np
import pytest

from setkp import autograd as ag
from setkp import model as model_module
from setkp.autograd import Tape, Tensor
from setkp.corpus import KeywordSpan
from setkp.assignment import k_step_predict
from setkp.model import (
    DecodeCache,
    Model,
    ModelConfig,
    _BUCKET_TABLES,
    _ape_rows,
    _buckets,
    ape_vector,
    dope_rpe_bucket,
    padded,
    padding_mask,
    param_spec,
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
    for name in ("ffn_width", "n_enc_layers", "n_dec_layers"):
        for bad in (0, -3):  # an empty FFN dies in its first product; no layers trains nothing
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                ModelConfig(vocab_size=10, **{name: bad})
    for bad in (dict(d=0), dict(n_heads=0), dict(n_heads=-2)):
        with pytest.raises(ValueError, match="d >= 2 and n_heads >= 1"):
            ModelConfig(vocab_size=10, **bad)
    # under 4 buckets the encoder has no exact bucket; a max distance within
    # the decoder's exact range puts buckets below 0 or divides by zero
    for bad in (dict(rpe_buckets=1), dict(rpe_buckets=3), dict(rpe_max_distance=12),
                dict(rpe_max_distance=16), dict(rpe_buckets=4, rpe_max_distance=2)):
        with pytest.raises(ValueError, match="rpe_buckets"):
            ModelConfig(vocab_size=10, **bad)
    ModelConfig(vocab_size=10, rpe_buckets=4, rpe_max_distance=3)  # the smallest valid setting
    for bidirectional in (True, False):
        table = _buckets(40, 4, 3, bidirectional)
        assert table.min() >= 0 and table.max() < 4


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


@pytest.mark.parametrize("bidirectional", [True, False])
def test_bucket_table_matches_per_pair_buckets(bidirectional):
    for n in range(1, 65):
        want = np.array([[dope_rpe_bucket(t, u, 32, 128, bidirectional) for u in range(n)]
                         for t in range(n)])
        got = _buckets(n, 32, 128, bidirectional)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bidirectional", [True, False])
def test_bucket_tables_bounded_and_sliced_in_any_order(bidirectional):
    # a setting no other test uses, so this test sees its table grow
    key = (12, 40, bidirectional)
    sizes = [5, 64, *range(1, 64), 64]
    for n in sizes:
        by_offset = [dope_rpe_bucket(j, 0, *key) for j in range(1 - n, n)]
        pos = np.arange(n)
        want = np.array(by_offset)[np.subtract.outer(pos, pos) + n - 1]
        got = _buckets(n, *key)
        np.testing.assert_array_equal(got, want)
        assert got.shape == (n, n) and not got.flags.writeable
    assert _BUCKET_TABLES[key].shape == (64, 64)  # one table, the largest n asked for


# ------------------------------------------------------------------ encoder


def test_encode_shapes_and_determinism():
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=0)
    ids = [[1, 5, 7, 2, 9]]
    a = model.encode(ids)
    b = model.encode(ids)
    assert a.data.shape == (1, 5, cfg.d)
    assert np.array_equal(a.data, b.data)


def test_encode_rejects_bad_lengths():
    model = Model.fresh(tiny_cfg(), seed=0)
    # a batch of one segment, then the same segment inside a larger batch
    for token_ids in ([[]], [[1] * 65], [[1, 2], []], [[1, 2], [1] * 65]):
        with pytest.raises(ValueError):
            model.encode(token_ids)


def test_encode_rejects_an_empty_batch():
    # a batch with no segments fails on the length check, before padding
    model = Model.fresh(tiny_cfg(), seed=0)
    with pytest.raises(ValueError, match="cannot encode an empty batch"):
        model.encode([])


def test_encoder_uses_relative_biases():
    # a uniform bias shift is softmax-invariant; a single-bucket bump is not
    cfg = tiny_cfg()
    a = Model.fresh(cfg, seed=0)
    b = Model.fresh(cfg, seed=0)
    b.store["enc.rpe.h0"].data[0] += 5.0
    ids = [[1, 2, 3, 4, 5]]
    assert not np.allclose(a.encode(ids).data, b.encode(ids).data)


def test_kwe_probs_rows_sum_to_one():
    model = Model.fresh(tiny_cfg(), seed=0)
    probs = model.kwe_probs(model.encode([[1, 2, 3]]))
    assert probs.data.shape == (1, 3, 3)
    assert np.allclose(probs.data.sum(axis=-1), 1.0)


def test_encode_differentiable_end_to_end():
    model = Model.fresh(tiny_cfg(), seed=0)
    with Tape() as tape:
        probs = model.kwe_probs(model.encode([[1, 2, 3]]))
        loss = ag.weighted_nll(ag.reshape(probs, (3, 3)), [0, 1, 2], np.ones(3))
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


def test_predict_keywords_confidence_has_the_bits_of_np_mean():
    # spans of 12, 3 and 1 tokens: numpy sums eight or more values pairwise
    model = Model.fresh(tiny_cfg(), seed=0)
    labels = [1] + [2] * 11 + [0, 1, 2, 2, 1]
    tag_probs = _probs_for_labels(labels)
    tag_probs[np.arange(len(labels)), labels] = np.random.default_rng(0).uniform(0.4, 1.0, len(labels))
    spans = model.predict_keywords(tag_probs, [f"w{i}" for i in range(len(labels))])
    assert sorted(len(s.tokens) for s in spans) == [1, 3, 12]
    for s in spans:
        rows = range(s.start, s.start + len(s.tokens))
        assert s.confidence == float(np.mean([tag_probs[i, labels[i]] for i in rows]))


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
    with pytest.raises(ValueError):
        model.control_rows([None, None])
    with pytest.raises(ValueError):
        model.control_rows([None] * 6)


def test_control_rows_batch_stacks_segments():
    model = Model.fresh(tiny_cfg(), seed=0)
    segs = [[[3, 4], None, [5], None], [None, [7, 7, 2], None, [1]]]
    rows = model.control_rows(segs[0] + segs[1]).data
    np.testing.assert_array_equal(rows[:4], model.control_rows(segs[0]).data)
    np.testing.assert_array_equal(rows[4:], model.control_rows(segs[1]).data)


# ------------------------------------------------------------------ decoder


def _decode_setup(cfg, seed=0):
    model = Model.fresh(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, cfg.vocab_size, size=(cfg.n_slots, 3))
    control = model.control_rows([None] * cfg.n_slots)
    enc = model.encode([[1, 2, 3, 4, 5]])
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


@pytest.mark.parametrize("lengths", [[5], [5, 3]], ids=["one_segment", "padded_batch"])
def test_cached_decode_matches_full_recompute(lengths):
    # feeding the steps one at a time through a cache gives the rows of the
    # teacher-forced pass over the whole prefix: for one segment, and for a
    # padded batch of two segments of unequal lengths under its mask
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=0)
    R = cfg.n_slots * len(lengths)
    control = model.control_rows([None] * R)
    ids = [list(range(1, n + 1)) for n in lengths]
    enc = model.encode(ids)
    mask = padding_mask(lengths)
    assert (mask is None) == (len(lengths) == 1)
    prev = np.random.default_rng(3).integers(0, cfg.vocab_size, size=(R, 5))
    full = model.decode_probs(prev, control, enc, enc_mask=mask).data.reshape(R, 5, -1)
    cache = DecodeCache(5)
    for t in range(5):
        rows = model.decode_probs(prev[:, t:t + 1], control, enc, cache=cache, enc_mask=mask).data
        assert rows.shape == (R, cfg.vocab_size)
        np.testing.assert_allclose(rows, full[:, t], rtol=0, atol=1e-12)
    assert cache.steps == 5
    head_layout = (R, cfg.n_heads, 5, cfg.d // cfg.n_heads)
    assert len(cache.self_kv) == cfg.n_dec_layers
    assert all(buf.shape == head_layout for kv in cache.self_kv for buf in kv)
    with pytest.raises(ValueError, match="one position per slot row, not 2"):
        model.decode_probs(prev[:, :2], control, enc, cache=DecodeCache(5), enc_mask=mask)


def test_cached_decode_keeps_slots_isolated():
    # two caches stepped along inputs that differ only in slot 1's fed tokens:
    # every other slot's rows stay bit-identical at every step
    cfg = tiny_cfg()
    model, _, control, enc = _decode_setup(cfg)
    prev = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(cfg.n_slots, 6))
    other = prev.copy()
    other[1] = (other[1] + 7) % cfg.vocab_size
    a, b = DecodeCache(prev.shape[1]), DecodeCache(prev.shape[1])
    keep = [n for n in range(cfg.n_slots) if n != 1]
    for t in range(prev.shape[1]):
        ra = model.decode_probs(prev[:, t:t + 1], control, enc, cache=a).data
        rb = model.decode_probs(other[:, t:t + 1], control, enc, cache=b).data
        assert np.array_equal(ra[keep], rb[keep])
        assert not np.array_equal(ra[1], rb[1])


def test_greedy_decode_runs_tape_free_under_a_recording_tape():
    # greedy_decode suspends recording itself: under a tape it records
    # nothing, gives the bits it gives outside any tape, and leaves the tape
    # recording for its caller; each step's argmax is the next step's input
    cfg = tiny_cfg()
    model, _, control, enc = _decode_setup(cfg)
    probs, tokens = model.greedy_decode(control, enc, 1, 4)
    with Tape() as tape:
        p, t = model.greedy_decode(control, enc, 1, 4)
        assert ag.recording()
    assert tape.nodes == []
    assert np.array_equal(p, probs) and np.array_equal(t, tokens)
    assert probs.shape == (4, cfg.n_slots, cfg.vocab_size)
    assert np.array_equal(tokens, probs.argmax(axis=2))
    prev = np.concatenate([np.ones((cfg.n_slots, 1), dtype=np.intp), tokens[:-1].T], axis=1)
    forced = model.decode_probs(prev, control, enc).data.reshape(cfg.n_slots, 4, -1)
    np.testing.assert_allclose(probs, forced.transpose(1, 0, 2), rtol=0, atol=1e-12)


def test_decode_cache_rejected_while_recording():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    with Tape():
        with pytest.raises(RuntimeError):
            model.decode_probs(prev[:, :1], control, enc, cache=DecodeCache(1))
        with ag.no_grad():
            model.decode_probs(prev[:, :1], control, enc, cache=DecodeCache(1))


def test_decode_cache_bound_to_its_encoder_states():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    cache = DecodeCache(2)
    model.decode_probs(prev[:, :1], control, enc, cache=cache)
    with pytest.raises(ValueError):
        model.decode_probs(prev[:, 1:2], control, model.encode([[1, 2, 3]]), cache=cache)


def test_decode_cache_holds_its_capacity(monkeypatch):
    # a cache decodes the positions it was made for and refuses one more;
    # k_step_predict's loop makes one cache of exactly k positions
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    cache = DecodeCache(2)
    for t in range(2):
        model.decode_probs(prev[:, t:t + 1], control, enc, cache=cache)
    with pytest.raises(ValueError, match="all 2 positions of the DecodeCache are decoded"):
        model.decode_probs(prev[:, 2:3], control, enc, cache=cache)
    assert cache.steps == 2

    made = []

    def recorded(capacity):
        made.append(DecodeCache(capacity))
        return made[-1]

    monkeypatch.setattr(model_module, "DecodeCache", recorded)
    k = 3
    k_step_predict(model, enc, control, k, 1)
    assert len(made) == 1
    assert made[0].capacity == made[0].steps == k
    head_layout = (cfg.n_slots, cfg.n_heads, k, cfg.d // cfg.n_heads)
    assert all(buf.shape == head_layout for kv in made[0].self_kv for buf in kv)


def _linear_array(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ag.gemm(x, w) + b


def _greedy_decode_oracle(model, control, enc, bos_id, steps, enc_mask=None, stop_id=None):
    """The greedy loop with the cached step as it was before head-layout
    buffers, built from ``setkp.autograd``'s array functions and an affine
    map: each step concatenates its keys and values onto those of every
    earlier step and runs ``ag.attention_array`` on (R, 1, d) slot rows. It
    stops as ``Model.greedy_decode`` does, after the first step by which
    every row has emitted ``stop_id``."""
    cfg = model.cfg
    p = {n: t.data for n, t in model.store.items()}
    d, H, scale = cfg.d, cfg.n_heads, 1.0 / math.sqrt(cfg.d)
    R = control.shape[0]
    B = R // cfg.n_slots
    rpe = np.stack([p[f"dec.rpe.h{h}"] for h in range(H)])
    cross_kv = [(ag.gemm(enc.data, p[f"dec.L{i}.ck"]), ag.gemm(enc.data, p[f"dec.L{i}.cv"]))
                for i in range(cfg.n_dec_layers)]
    self_kv = [None] * cfg.n_dec_layers

    def ln(x, name):
        return ag.layer_norm_array(x, p[name + ".g"], p[name + ".b"])[0]

    prev = np.full((R, 1), bos_id, dtype=np.intp)
    stopped = np.zeros(R, dtype=bool)
    probs, tokens = [], []
    for t0 in range(steps):
        L = t0 + 1
        x = p["dec.emb"][prev] + _ape_rows(L, d)[t0:] + control.data.reshape(R, 1, d)
        bias = rpe[:, _buckets(L, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=False)[t0:]]
        for i in range(cfg.n_dec_layers):
            pre = f"dec.L{i}."
            h = ln(x, pre + "ln1")
            k, v = ag.gemm(h, p[pre + "wk"]), ag.gemm(h, p[pre + "wv"])
            if t0:
                k = np.concatenate([self_kv[i][0], k], axis=-2)
                v = np.concatenate([self_kv[i][1], v], axis=-2)
            self_kv[i] = (k, v)
            att = ag.attention_array(ag.gemm(h, p[pre + "wq"]), k, v, bias, H, scale)[0]
            x = x + ag.gemm(att, p[pre + "wo"])
            q = ag.gemm(ln(x, pre + "ln2"), p[pre + "cq"]).reshape(B, -1, d)
            catt = ag.attention_array(q, *cross_kv[i], None, H, scale, enc_mask)[0]
            x = x + ag.gemm(catt.reshape(R, 1, d), p[pre + "co"])
            h = _linear_array(ln(x, pre + "ln3"), p[pre + "w1"], p[pre + "b1"])
            x = x + _linear_array(np.maximum(h, 0.0), p[pre + "w2"], p[pre + "b2"])
        x = ln(x, "dec.final").reshape(R, d)
        probs.append(ag.softmax_array(_linear_array(x, p["kg.w"], p["kg.b"])))
        tokens.append(probs[-1].argmax(axis=1))
        prev = tokens[-1][:, None]
        if stop_id is not None:
            stopped |= tokens[-1] == stop_id
            if stopped.all():
                break
    return np.stack(probs), np.stack(tokens)


@pytest.mark.parametrize("d", [64, 20])
@pytest.mark.parametrize("lengths, seed, stop_ids", [
    ([7], 7, None),
    ([7, 4], 7, None),
    ([7, 7], 7, None),  # R rows split into B blocks, with no mask
    # every slot row emits the stop token by step 5 (d = 64) or 6 (d = 20),
    # rows at different steps
    ([7], 11, {64: 25, 20: 40}),
], ids=["one_segment", "padded_batch", "unpadded_batch", "early_stop"])
def test_greedy_decode_has_the_bits_of_the_concatenating_step(d, lengths, seed, stop_ids):
    # the cached step changes which numpy calls run and where keys and
    # values live, not one bit of any step's distributions or tokens
    cfg = ModelConfig(vocab_size=41, d=d, n_heads=4, max_kp_len=8)
    model = Model.fresh(cfg, seed=seed)
    # a fresh norm has gain 1 and bias 0, under which the order of the
    # step's in-place products would not show; nor would a bias added twice
    rng = np.random.default_rng(seed)
    for name, t in model.store.items():
        if name.endswith((".g", ".b", "b1", "b2")):
            t.data = t.data + rng.normal(0.0, 0.1, t.data.shape)
    rng = np.random.default_rng(d)
    segs = [rng.integers(3, cfg.vocab_size, size=n).tolist() for n in lengths]
    enc = model.encode(segs)
    mask = padding_mask(lengths)
    keywords = [seg[:2] if n % 3 == 0 else None for seg in segs for n in range(cfg.n_slots)]
    control = model.control_rows(keywords)
    stop_id = None if stop_ids is None else stop_ids[d]
    probs, tokens = model.greedy_decode(control, enc, 1, cfg.max_kp_len, enc_mask=mask,
                                        stop_id=stop_id)
    want_probs, want_tokens = _greedy_decode_oracle(model, control, enc, 1, cfg.max_kp_len, mask,
                                                    stop_id)
    # a stop token ends the run before the horizon
    assert len(probs) == cfg.max_kp_len if stop_id is None else len(probs) < cfg.max_kp_len
    assert probs.shape[1:] == (cfg.n_slots * len(lengths), cfg.vocab_size)
    assert np.array_equal(probs, want_probs)
    assert np.array_equal(tokens, want_tokens)


def test_decode_grads_flow_to_decoder_params():
    cfg = tiny_cfg()
    model, prev, control, enc = _decode_setup(cfg)
    with Tape() as tape:
        enc_t = model.encode([[1, 2, 3]])
        ctrl = model.control_rows([[3], None, None, None])
        probs = model.decode_probs(prev, ctrl, enc_t)
        loss = loss_kg(probs, prev, np.ones(prev.shape))
        tape.backward(loss)
    for name in ("dec.ctrl", "dec.emb", "kg.w", "enc.emb"):
        g = model.store[name].grad
        assert g is not None and np.isfinite(g).all()


_ENC_LAYER = ["ln1.g", "ln1.b", "wq", "wk", "wv", "wo", "ln2.g", "ln2.b", "w1", "b1", "w2", "b2"]
_DEC_LAYER = ["ln1.g", "ln1.b", "wq", "wk", "wv", "wo", "ln2.g", "ln2.b",
              "cq", "ck", "cv", "co", "ln3.g", "ln3.b", "w1", "b1", "w2", "b2"]


def test_fresh_init_order_and_values_are_pinned():
    """Every seeded run and checkpoint depends on the order in which
    ``Model.fresh`` draws its parameters; this pins names, shapes and values."""
    cfg = ModelConfig(vocab_size=12, d=8, n_heads=2, n_enc_layers=2, n_dec_layers=2,
                      n_slots=4, n_control_keywords=1, ffn_width=12, rpe_buckets=6)
    store = Model.fresh(cfg, seed=7).store
    assert store.names() == [
        "enc.emb", "enc.rpe.h0", "enc.rpe.h1",
        *[f"enc.L{i}.{n}" for i in range(2) for n in _ENC_LAYER],
        "enc.final.g", "enc.final.b", "kwe.w", "kwe.b",
        "dec.emb", "dec.ctrl", "dec.rpe.h0", "dec.rpe.h1",
        *[f"dec.L{i}.{n}" for i in range(2) for n in _DEC_LAYER],
        "dec.final.g", "dec.final.b", "kg.w", "kg.b",
    ]
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode())
        h.update(repr(t.shape).encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    assert h.hexdigest() == "877c23c97c36dd84f20590cf1a7bfbcb23d55f8e6e161556ef8653f39cfcdaef"


def test_param_spec_lists_every_fresh_parameter_in_draw_order():
    cfg = tiny_cfg()
    store = Model.fresh(cfg, seed=0).store
    spec = param_spec(cfg)
    assert [(n, shape) for n, _, shape in spec] == [(n, t.shape) for n, t in store.items()]
    kinds = {n: kind for n, kind, _ in spec}
    assert kinds["enc.emb"] == "embedding" and kinds["kg.w"] == "projection"
    assert all(not store[n].data.any() for n, k in kinds.items() if k == "zeros")
    assert all((store[n].data == 1.0).all() for n, k in kinds.items() if k == "ones")


def test_param_split_covers_store():
    model = Model.fresh(tiny_cfg(), seed=0)
    enc = set(model.encoder_params())
    dec = set(model.decoder_params())
    assert not (enc & dec)
    assert enc | dec == set(model.store.names())


@pytest.mark.parametrize("group", ["encoder", "decoder"])
def test_pruned_backward_matches_full_on_requested_leaves(group):
    cfg = tiny_cfg()
    model, prev, _, _ = _decode_setup(cfg)
    wanted = model.encoder_params() if group == "encoder" else model.decoder_params()
    with Tape() as tape:
        enc_t = model.encode([[1, 2, 3, 4]])
        ctrl = model.control_rows([[3, 5], None, [7], None])
        probs = model.decode_probs(prev, ctrl, enc_t)
        loss = ag.add(loss_kg(probs, prev, np.ones(prev.shape)),
                      ag.weighted_nll(ag.reshape(model.kwe_probs(enc_t), (4, 3)), [0, 1, 2, 0],
                                      np.ones(4)))
        tape.backward(loss)
        full = {n: p.grad.copy() for n, p in wanted.items() if p.grad is not None}
        tape.backward(loss, wrt=wanted.values())
    assert set(full) == {n for n, p in wanted.items() if p.grad is not None}
    for n, g in full.items():
        np.testing.assert_array_equal(wanted[n].grad, g)
    assert all(p.grad is None for n, p in model.store.items() if n not in wanted)


# ------------------------------------------------------------- batch axis

_SEGMENTS = [[1, 5, 7, 2, 9, 4, 4], [3, 8], [6, 2, 2, 11, 13], [9]]
_KEYWORDS = [[[5, 7], None, [2], None], [None, None, None, [8]],
             [[11, 13], [6], None, None], [None] * 4]


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)])
def test_padded_batch_matches_single_segment_calls(perm):
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=3)
    rng = np.random.default_rng(7)
    N, T = cfg.n_slots, 3
    prev = {i: rng.integers(0, cfg.vocab_size, size=(N, T)) for i in range(len(_SEGMENTS))}
    segs = [_SEGMENTS[i] for i in perm]
    mask = padding_mask([len(s) for s in segs])
    with ag.no_grad():
        states = model.encode(segs)
        control = model.control_rows([ids for i in perm for ids in _KEYWORDS[i]])
        probs = model.decode_probs(np.concatenate([prev[i] for i in perm]), control, states,
                                   enc_mask=mask).data.reshape(len(segs), N * T, -1)
        dists = k_step_predict(model, states, control, 3, 1, mask)
        assert states.data.shape == (len(segs), max(map(len, segs)), cfg.d)
        for b, i in enumerate(perm):
            one = model.encode([_SEGMENTS[i]])
            ctrl = model.control_rows(_KEYWORDS[i])
            S = len(_SEGMENTS[i])
            np.testing.assert_allclose(states.data[b, :S], one.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(probs[b], model.decode_probs(prev[i], ctrl, one).data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(dists[:, b * N:(b + 1) * N],
                                       k_step_predict(model, one, ctrl, 3, 1),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("S", [9, 23])  # under and over 16 tokens
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
def test_batched_greedy_decode_gives_each_segment_its_own_bits(S, order):
    # three equal-length segments decoded as one batch: each segment's
    # distributions at every step are bit-identical to its batch-of-one
    # decode on the same states and control rows, wherever it sits
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=4)
    rng = np.random.default_rng(S)
    N = cfg.n_slots
    segs = [rng.integers(1, cfg.vocab_size, size=S).tolist() for _ in range(3)]
    keywords = [[seg[:2], None, seg[3:4], None] for seg in segs]
    with ag.no_grad():
        states = model.encode([segs[i] for i in order])
        control = model.control_rows([ids for i in order for ids in keywords[i]])
    probs, tokens = model.greedy_decode(control, states, 1, cfg.max_kp_len)
    for b in range(len(order)):
        rows = slice(b * N, (b + 1) * N)
        p1, t1 = model.greedy_decode(Tensor(control.data[rows]), Tensor(states.data[b : b + 1]),
                                     1, cfg.max_kp_len)
        assert np.array_equal(probs[:, rows], p1)
        assert np.array_equal(tokens[:, rows], t1)


def test_padding_mask_only_for_padded_batches():
    assert padding_mask([3, 3]) is None
    m = padding_mask([3, 1])
    assert m.shape == (2, 1, 1, 3)
    assert (m[0] == 0).all() and (m[1, ..., :1] == 0).all() and np.isneginf(m[1, ..., 1:]).all()


def test_padded_fills_each_row_past_its_length():
    ids, live = padded([[4, 5, 6], [], [7]], fill=2)
    assert ids.dtype == np.intp and live.dtype == np.float64
    np.testing.assert_array_equal(ids, [[4, 5, 6], [2, 2, 2], [7, 2, 2]])
    np.testing.assert_array_equal(live, [[1, 1, 1], [0, 0, 0], [1, 0, 0]])
    for seqs, shape in (([], (0, 0)), ([[], []], (2, 0))):
        ids, live = padded(seqs)
        assert ids.shape == live.shape == shape
        assert ids.dtype == np.intp and live.dtype == np.float64
    np.testing.assert_array_equal(padded([[1], [2, 3]])[0], [[1, 0], [2, 3]])  # fill defaults to 0


def test_decode_probs_rejects_rows_not_matching_segments():
    cfg = tiny_cfg()
    model = Model.fresh(cfg, seed=0)
    states = model.encode([[1, 2], [3]])
    control = model.control_rows([None] * cfg.n_slots)
    with pytest.raises(ValueError):
        model.decode_probs(np.ones((cfg.n_slots, 2), dtype=np.intp), control, states,
                           enc_mask=padding_mask([2, 1]))
