import logging
import math
from collections import Counter

import numpy as np
import pytest

from setkp import autograd as ag
from setkp.assignment import assign_groups, k_step_predict
from setkp.autograd import Tape, Tensor
from setkp.corpus import NULL, KeyphraseSet, KeywordSpan, Vocabulary
from setkp.model import Model, ModelConfig, padding_mask
from setkp.params import AdamW
from setkp.synth import synth_corpus
from setkp.training import (
    ORIGIN_GT,
    ORIGIN_KW,
    ORIGIN_NULL,
    TrainingDiverged,
    TsmtConfig,
    _train_batch,
    build_examples,
    control_ids_for,
    kwe_class_weights,
    kwp_build_targets,
    loss_encoder_stage3,
    loss_kg,
    loss_kwe,
    teacher_arrays,
    tsmt_train,
)


def small_setup(n_docs=2, **cfg_kw):
    docs = synth_corpus(0, n_docs)
    vocab = Vocabulary.build(docs)
    base = dict(
        vocab_size=len(vocab), d=16, n_heads=2, n_slots=4, n_control_keywords=1, ffn_width=32
    )
    base.update(cfg_kw)
    cfg = ModelConfig(**base)
    return Model.fresh(cfg, seed=0), vocab, docs, cfg


# ------------------------------------------------------------ target packing


def _kps(present, absent):
    return KeyphraseSet(present=present, absent=absent)


def test_kwp_packs_gt_then_keywords_then_nulls():
    _, vocab, _, _ = small_setup()
    kps = _kps([["polymer", "coating"]], [["thermoset", "chemistry"]])
    kws = [KeywordSpan(tokens=["polymer"], start=0, confidence=0.9)]
    tl = kwp_build_targets(kps, kws, n_slots=8, vocab=vocab, use_padding=True)
    origins = [e.origin for e in tl.present]
    assert origins == [ORIGIN_GT, ORIGIN_KW, ORIGIN_NULL, ORIGIN_NULL]
    assert tl.present[1].tokens == ["polymer"]
    assert [e.origin for e in tl.absent] == [ORIGIN_GT, ORIGIN_NULL, ORIGIN_NULL, ORIGIN_NULL]
    assert all(e.tokens == [NULL] for e in tl.absent[1:])


def test_kwp_excludes_single_word_present_keyphrase():
    _, vocab, _, _ = small_setup()
    kps = _kps([["polymer"]], [])
    kws = [
        KeywordSpan(tokens=["polymer"], start=0, confidence=0.9),
        KeywordSpan(tokens=["coating"], start=2, confidence=0.8),
    ]
    tl = kwp_build_targets(kps, kws, n_slots=4, vocab=vocab, use_padding=True)
    # the single-word present keyphrase must not reappear as padding
    assert [e.tokens for e in tl.present] == [["polymer"], ["coating"]]
    assert tl.present[1].origin == ORIGIN_KW


def test_kwp_skips_duplicate_of_packed_entry():
    _, vocab, _, _ = small_setup()
    kps = _kps([["polymer", "coating"]], [])
    kws = [
        KeywordSpan(tokens=["polymer", "coating"], start=0, confidence=0.95),
        KeywordSpan(tokens=["epoxy"], start=4, confidence=0.5),
    ]
    tl = kwp_build_targets(kps, kws, n_slots=4, vocab=vocab, use_padding=True)
    assert [e.tokens for e in tl.present] == [["polymer", "coating"], ["epoxy"]]


def test_kwp_padding_disabled_fills_nulls():
    _, vocab, _, _ = small_setup()
    kps = _kps([["polymer", "coating"]], [])
    kws = [KeywordSpan(tokens=["epoxy"], start=0, confidence=0.5)]
    tl = kwp_build_targets(kps, kws, n_slots=4, vocab=vocab, use_padding=False)
    assert [e.origin for e in tl.present] == [ORIGIN_GT, ORIGIN_NULL]


def test_kwp_truncates_and_warns(caplog):
    _, vocab, _, _ = small_setup()
    kps = _kps([], [[w] for w in ("aa", "bb", "cc")])
    with caplog.at_level(logging.WARNING):
        tl = kwp_build_targets(kps, [], n_slots=4, vocab=vocab, use_padding=True)
    assert len(tl.absent) == 2
    assert any("truncating absent" in r.getMessage() for r in caplog.records)


def test_control_ids_duplicated_across_groups():
    _, vocab, _, _ = small_setup()
    cfg = ModelConfig(vocab_size=len(vocab), d=16, n_heads=2, ffn_width=32)  # N=8, top-3
    spans = [
        KeywordSpan(tokens=["polymer", "coating"], start=0, confidence=0.9),
        KeywordSpan(tokens=["epoxy"], start=5, confidence=0.8),
        KeywordSpan(tokens=["resin"], start=9, confidence=0.7),
        KeywordSpan(tokens=["solvent"], start=12, confidence=0.6),
    ]
    ids = control_ids_for(spans, cfg, vocab)
    assert len(ids) == cfg.n_slots
    half = cfg.n_slots // 2
    assert ids[:half] == ids[half:]  # same guidance for both groups
    assert ids[0] == vocab.encode(["polymer", "coating"])
    assert ids[1] == vocab.encode(["epoxy"])
    assert ids[2] == vocab.encode(["resin"])
    assert ids[3] is None  # fourth keyword exceeds the control budget


def test_control_ids_pads_with_none():
    _, vocab, _, cfg = small_setup()
    ids = control_ids_for([], cfg, vocab)
    assert ids == [None] * cfg.n_slots


# ------------------------------------------------------------------- losses


def test_kwe_class_weights_reciprocal_counts():
    w = kwe_class_weights([[0, 0, 0, 1], [0, 1, 2]])
    assert w == pytest.approx([1 / 4, 1 / 2, 1 / 1])


def test_kwe_class_weights_floor_empty_class():
    w = kwe_class_weights([[0, 0]])
    assert w == pytest.approx([1 / 2, 1.0, 1.0])


def test_loss_kwe_hand_value():
    # two tokens, uniform probs: each contributes w[label] * -log(1/3), mean over S=2
    probs = Tensor(np.full((1, 2, 3), 1 / 3))
    w = np.array([1.0, 2.0, 4.0])
    val = loss_kwe(probs, [[0, 2]], w).item()
    assert val == pytest.approx((1 + 4) * math.log(3) / 2)


def test_batched_losses_are_means_of_per_segment_losses():
    rng = np.random.default_rng(4)
    cw = np.array([0.5, 1.0, 3.0])
    labels = [[0, 1, 2, 0], [2, 1], [0, 0, 1]]
    probs = rng.dirichlet(np.ones(3), size=(3, 4))
    batched = loss_kwe(Tensor(probs), labels, cw).item()
    per_seg = [loss_kwe(Tensor(probs[b : b + 1, : len(seq)]), [seq], cw).item()
               for b, seq in enumerate(labels)]
    assert batched == pytest.approx(np.mean(per_seg), rel=1e-12)

    _, vocab, _, cfg = small_setup()
    tcfg = TsmtConfig()
    # all-null targets (NULL, EOS) next to a two-token phrase (w1, w2, EOS)
    entries = [kwp_build_targets(_kps(p, []), [], cfg.n_slots, vocab).all()
               for p in ([], [["polymer", "coating"]])]
    arrays = [teacher_arrays(e, [0, 1, 2, 3], vocab, tcfg) for e in entries]
    prev, tgt, w = teacher_arrays(entries[0] + entries[1], list(range(8)), vocab, tcfg)
    assert prev.shape == tgt.shape == w.shape == (2 * cfg.n_slots, 3)
    assert (w[: cfg.n_slots, 2] == 0).all() and (tgt[: cfg.n_slots, 2] == vocab.pad_id).all()
    V = len(vocab)
    probs = rng.dirichlet(np.ones(V), size=(2, cfg.n_slots, 3))
    per_seg = []
    for b, (_, seg_tgt, seg_w) in enumerate(arrays):
        seg_probs = probs[b, :, : seg_tgt.shape[1]].reshape(-1, V)
        per_seg.append(loss_kg(Tensor(seg_probs), seg_tgt, seg_w).item())
    batched = loss_kg(Tensor(probs.reshape(-1, V)), tgt, w / 2).item()
    assert batched == pytest.approx(np.mean(per_seg), rel=1e-12)


def test_loss_kg_quarter_log_three():
    # single row with weight 1/4 and probability 1/3 on the target
    probs = Tensor(np.full((1, 3), 1 / 3))
    tgt = np.array([[1]])
    w = np.array([[0.25]])
    assert loss_kg(probs, tgt, w).item() == pytest.approx(math.log(3) / 4)


def test_loss_kg_all_ones_equals_ce_sum():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(5), size=4)
    tgt = np.array([[0, 2], [1, 4]])
    w = np.ones((2, 2))
    expect = -np.log(p[np.arange(4), tgt.reshape(-1)]).sum()
    assert loss_kg(Tensor(p), tgt, w).item() == pytest.approx(expect)


def test_loss_stage3_combination():
    l1 = Tensor(np.array(2.0))
    inner = [Tensor(np.array(1.0)), Tensor(np.array(3.0))]
    out = loss_encoder_stage3(l1, inner, lambda_g=0.5)
    assert out.item() == pytest.approx(2.0 + 0.5 * 2.0)


# ------------------------------------------------------------ teacher arrays


def _entries(vocab):
    kps = _kps([["polymer", "coating"]], [["thermoset", "chemistry"]])
    kws = [KeywordSpan(tokens=["epoxy"], start=0, confidence=0.9)]
    return kwp_build_targets(kps, kws, n_slots=4, vocab=vocab, use_padding=True)


def test_teacher_arrays_layout():
    _, vocab, _, _ = small_setup()
    tcfg = TsmtConfig(epochs=1, e1=1)
    tl = _entries(vocab)
    entries = tl.all()
    order = list(range(4))
    prev, tgt, w = teacher_arrays(entries, order, vocab, tcfg)
    T = max(len(e.ids) for e in entries) + 1
    assert prev.shape == tgt.shape == w.shape == (4, T)
    # slot 0: BOS -> polymer -> coating, targets polymer coating EOS
    pc = vocab.encode(["polymer", "coating"])
    assert prev[0, 0] == vocab.bos_id
    assert list(tgt[0, :3]) == pc + [vocab.eos_id]
    assert list(prev[0, 1:3]) == pc
    # slot 1 (single-token epoxy) ends early: trailing cell is weightless pad
    assert w[1, 2] == 0
    assert tgt[1, 2] == vocab.pad_id


def test_teacher_arrays_weights_by_origin():
    _, vocab, _, _ = small_setup()
    tcfg = TsmtConfig(epochs=1, e1=1, lambda_kw=0.7, lambda_null=0.2)
    tl = _entries(vocab)
    entries = tl.all()
    prev, tgt, w = teacher_arrays(entries, list(range(4)), vocab, tcfg)
    assert w[0, 0] == 1.0  # ground truth
    assert w[1, 0] == pytest.approx(0.7)  # keyword padding
    assert w[2, 0] == 1.0  # absent ground truth
    assert w[3, 0] == pytest.approx(0.2)  # null
    # every in-target row weight matches its slot's origin
    assert w[1, 1] == pytest.approx(0.7)  # EOS row keeps the origin weight


def test_teacher_arrays_batch_pads_each_segment_in_order():
    # three segments whose longest targets (plus EOS) are 3, 5 and 2 tokens:
    # a two-token phrase, a four-token keyword-padding span, nulls only
    _, vocab, _, _ = small_setup()
    tcfg = TsmtConfig(epochs=1, e1=1)
    span = KeywordSpan(tokens=["polymer", "coating", "epoxy", "resin"], start=0, confidence=0.9)
    targets = [kwp_build_targets(_kps([["polymer", "coating"]], []), [], 4, vocab),
               kwp_build_targets(_kps([], [["thermoset"]]), [span], 4, vocab),
               kwp_build_targets(_kps([], []), [], 4, vocab)]
    assert [e.origin for e in targets[1].present] == [ORIGIN_KW, ORIGIN_NULL]
    orders = [[1, 0, 3, 2], [0, 1, 2, 3], [1, 0, 2, 3]]
    entries = [e for tl in targets for e in tl.all()]
    order = [4 * b + j for b, seg_order in enumerate(orders) for j in seg_order]
    prev, tgt, w = teacher_arrays(entries, order, vocab, tcfg)
    assert prev.shape == tgt.shape == w.shape == (12, 5)
    assert prev.dtype == tgt.dtype == np.intp and w.dtype == np.float64
    for b, (tl, seg_order) in enumerate(zip(targets, orders)):
        seg_prev, seg_tgt, seg_w = teacher_arrays(tl.all(), seg_order, vocab, tcfg)
        rows, T = slice(4 * b, 4 * b + 4), seg_prev.shape[1]
        assert T == (3, 5, 2)[b]
        np.testing.assert_array_equal(prev[rows, :T], seg_prev)
        np.testing.assert_array_equal(tgt[rows, :T], seg_tgt)
        np.testing.assert_array_equal(w[rows, :T], seg_w)
        assert (prev[rows, T:] == vocab.pad_id).all() and (tgt[rows, T:] == vocab.pad_id).all()
        assert (w[rows, T:] == 0.0).all()


def test_teacher_arrays_order_permutes_targets():
    _, vocab, _, _ = small_setup()
    tcfg = TsmtConfig(epochs=1, e1=1)
    tl = _entries(vocab)
    entries = tl.all()
    prev, tgt, _ = teacher_arrays(entries, [1, 0, 3, 2], vocab, tcfg)
    assert tgt[0, 0] == vocab.encode(["epoxy"])[0]
    assert tgt[1, 0] == vocab.encode(["polymer"])[0]


# ---------------------------------------------------------------- the loop


def test_tsmt_config_validation():
    with pytest.raises(ValueError):
        TsmtConfig(epochs=5, e1=0)
    with pytest.raises(ValueError):
        TsmtConfig(epochs=5, e1=6)
    with pytest.raises(ValueError):
        TsmtConfig(epochs=5, e1=2, e2=0)
    with pytest.raises(ValueError, match="batch_size"):
        TsmtConfig(batch_size=0)  # no batch would hold a document
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lr must be > 0"):
            TsmtConfig(lr=bad)
    for name in ("weight_decay", "lambda_null", "lambda_kw", "lambda_g"):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                TsmtConfig(**{name: bad})
        TsmtConfig(**{name: 0.0})


def test_stage1_updates_encoder_only():
    model, vocab, docs, cfg = small_setup()
    before_enc = {k: v.data.copy() for k, v in model.encoder_params().items()}
    before_dec = {k: v.data.copy() for k, v in model.decoder_params().items()}
    tcfg = TsmtConfig(epochs=1, e1=1, batch_size=4, probe_docs=0)
    tsmt_train(model, docs, tcfg, vocab)
    changed = sum(
        not np.array_equal(before_enc[k], model.store[k].data) for k in before_enc
    )
    assert changed > 0
    for k in before_dec:
        assert np.array_equal(before_dec[k], model.store[k].data), k


def test_stage23_inner_rounds_freeze_encoder():
    model, vocab, docs, cfg = small_setup()
    tcfg = TsmtConfig(epochs=2, e1=1, e2=2, batch_size=4, probe_docs=0)
    report = tsmt_train(model, docs, tcfg, vocab)
    stages = [r.stage for r in report.rows]
    assert stages == ["stage1", "stage23"]
    assert report.rows[1].loss_kg is not None
    assert report.rows[1].loss_stage3 is not None


def test_tsmt_losses_finite_and_reported():
    model, vocab, docs, _ = small_setup()
    tcfg = TsmtConfig(epochs=3, e1=1, batch_size=4, probe_docs=0)
    report = tsmt_train(model, docs, tcfg, vocab)
    assert len(report.rows) == 3
    for row in report.rows:
        assert np.isfinite(row.loss_kwe)
    assert report.rows[0].loss_kg is None


def test_tsmt_encodes_each_segment_once_per_epoch(monkeypatch):
    model, vocab, docs, _ = small_setup()
    encoded = []
    encode = Model.encode

    def recording(self, token_ids):
        batched = not np.isscalar(token_ids[0])
        encoded.extend(tuple(s) for s in token_ids) if batched else encoded.append(tuple(token_ids))
        return encode(self, token_ids)

    monkeypatch.setattr(Model, "encode", recording)
    tcfg = TsmtConfig(epochs=3, e1=1, batch_size=4, probe_docs=0)
    tsmt_train(model, docs, tcfg, vocab)
    segments = [tuple(ex.ids) for ex in build_examples(docs, vocab)]
    assert Counter(encoded) == Counter(segments * tcfg.epochs)


def test_tsmt_checkpoint_written(tmp_path):
    from setkp.params import load_checkpoint

    model, vocab, docs, cfg = small_setup()
    path = tmp_path / "m.ckpt"
    tcfg = TsmtConfig(epochs=2, e1=1, batch_size=4, probe_docs=0)
    tsmt_train(model, docs, tcfg, vocab, checkpoint_path=path)
    store, meta = load_checkpoint(path)
    assert meta["epoch"] == 2
    assert meta["model_config"]["n_slots"] == cfg.n_slots
    assert meta["vocab"] == vocab.tokens
    assert set(store.names()) == set(model.store.names())


def test_tsmt_probe_fn_recorded():
    model, vocab, docs, _ = small_setup()
    tcfg = TsmtConfig(epochs=2, e1=1, batch_size=4, probe_docs=0)
    report = tsmt_train(model, docs, tcfg, vocab, probe_fn=lambda m: (0.5, 0.25))
    assert all(r.pct_null == 0.5 and r.duplication == 0.25 for r in report.rows)


def test_report_csv_roundtrip(tmp_path):
    model, vocab, docs, _ = small_setup()
    tcfg = TsmtConfig(epochs=2, e1=1, batch_size=4, probe_docs=0)
    report = tsmt_train(model, docs, tcfg, vocab)
    path = tmp_path / "loss.csv"
    report.write_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",")[:3] == ["epoch", "stage", "loss_kwe"]
    assert len(lines) == 3


def test_training_diverged_guard():
    model, vocab, docs, _ = small_setup()
    model.store["kwe.w"].data[:] = np.nan
    tcfg = TsmtConfig(epochs=1, e1=1, batch_size=4, probe_docs=0)
    with pytest.raises(TrainingDiverged):
        tsmt_train(model, docs, tcfg, vocab)


@pytest.mark.parametrize("case, message", [
    ("empty corpus", "corpus has no segments to train on"),
    ("empty segment", "document 'doc-0001' level 1: segment of 0 tokens, "
                      "need 1 to max_encode_len=256"),
    ("oversize segment", "document 'doc-0001' level 1: segment of 400 tokens, "
                         "need 1 to max_encode_len=256"),
])
def test_tsmt_rejects_bad_corpus_before_training(tmp_path, case, message):
    model, vocab, docs, _ = small_setup()
    if case == "empty corpus":
        docs = []
    else:
        seg = docs[1].segments[0]  # title + abstract: max_segment_tokens does not bound it
        seg.tokens = [] if case == "empty segment" else seg.tokens * 20
    ckpt = tmp_path / "m.ckpt"
    tcfg = TsmtConfig(epochs=2, e1=1, batch_size=4, probe_docs=0)
    with pytest.raises(ValueError) as err:
        tsmt_train(model, docs, tcfg, vocab, checkpoint_path=ckpt)
    assert str(err.value) == message
    assert not ckpt.exists()  # no epoch ran


def test_small_overfit_reduces_losses():
    model, vocab, docs, _ = small_setup(n_docs=2)
    tcfg = TsmtConfig(epochs=8, e1=3, batch_size=4, probe_docs=0, seed=0)
    report = tsmt_train(model, docs, tcfg, vocab)
    kwe_first = report.rows[0].loss_kwe
    kwe_last = report.rows[-1].loss_kwe
    assert kwe_last < kwe_first
    kg = [r.loss_kg for r in report.rows if r.loss_kg is not None]
    assert kg[-1] < kg[0]


def test_encoder_step_replays_no_decoder_node(monkeypatch):
    # every node teacher_probs records counts its backward calls by the kind
    # of pass replaying it; the encoder step must neither replay nor hold one
    model, vocab, docs, _ = small_setup()
    enc_ids = {id(p) for p in model.encoder_params().values()}
    phase = [None]
    replays = Counter()
    held = []
    decode, backward = Model.teacher_probs, Tape.backward

    def counted(back):
        def run(g):
            replays[phase[0]] += 1
            return back(g)
        run.from_decoder = True
        return run

    def recording_decode(self, *args, **kwargs):
        tape = ag._active_tape()
        start = len(tape.nodes)
        out = decode(self, *args, **kwargs)
        for i in range(start, len(tape.nodes)):
            o, parents, back = tape.nodes[i]
            tape.nodes[i] = (o, parents, counted(back))
        return out

    def recording_backward(self, loss, wrt=None, **kwargs):
        wrt = list(wrt)
        phase[0] = "encoder" if any(id(t) in enc_ids for t in wrt) else "decoder"
        if phase[0] == "encoder":
            held.append(sum(hasattr(back, "from_decoder") for _, _, back in self.nodes))
        return backward(self, loss, wrt, **kwargs)

    monkeypatch.setattr(Model, "teacher_probs", recording_decode)
    monkeypatch.setattr(Tape, "backward", recording_backward)
    tsmt_train(model, docs, TsmtConfig(epochs=2, e1=1, e2=2, batch_size=4, probe_docs=0), vocab)
    assert replays["decoder"] > 0
    assert replays["encoder"] == 0
    assert held and set(held) == {0}


def test_batch_gradients_match_the_full_tape_formulation(monkeypatch):
    # one joint batch: every decoder step and the encoder step get the
    # gradients that differentiating loss_encoder_stage3 on one tape gives
    docs = synth_corpus(0, 2)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(vocab_size=len(vocab), d=16, n_heads=2, n_slots=4, n_control_keywords=1,
                      ffn_width=32)
    tcfg = TsmtConfig(epochs=2, e1=1, e2=3, batch_size=4, probe_docs=0)
    batch = build_examples(docs, vocab)[:4]
    assert len({len(ex.ids) for ex in batch}) > 1  # a padded batch

    step = AdamW.step
    grads: list[dict[str, np.ndarray]] = []

    def recording_step(self):
        grads.append({n: p.grad.copy() for n, p in self.params.items() if p.grad is not None})
        step(self)

    monkeypatch.setattr(AdamW, "step", recording_step)

    def optimizers(model):
        return (AdamW(model.encoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay),
                AdamW(model.decoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay))

    model = Model.fresh(cfg, seed=1)
    l1, inner, loss = _train_batch(model, batch, True, tcfg, vocab, *optimizers(model))
    got, grads = grads, []

    # the reference: every round stays on one tape, and the encoder step
    # differentiates l1 + lambda_g * mean(inner) through all of them
    model = Model.fresh(cfg, seed=1)
    enc_opt, dec_opt = optimizers(model)
    N, enc_mask = cfg.n_slots, padding_mask([len(ex.ids) for ex in batch])
    with Tape() as tape:
        states = model.encode([ex.ids for ex in batch])
        tag_probs = model.kwe_probs(states)
        targets, control_ids = [], []
        for ex, tags in zip(batch, tag_probs.data):
            spans = model.predict_keywords(tags[: len(ex.ids)], ex.tokens)
            targets.append(kwp_build_targets(ex.kps, spans, N, vocab))
            control_ids += control_ids_for(spans, cfg, vocab)
        control = model.control_rows(control_ids)
        entries = [e for tl in targets for e in tl.all()]
        ref_inner = []
        for _ in range(tcfg.e2):
            dists = k_step_predict(model, states.data, control.data, cfg.assign_steps, vocab.bos_id,
                                   enc_mask)
            order = []
            for b, tl in enumerate(targets):
                order += [b * N + j for j in assign_groups(
                    dists[:, b * N : (b + 1) * N], [e.ids for e in tl.present],
                    [e.ids for e in tl.absent], vocab.null_id)]
            prev, tgt, w = teacher_arrays(entries, order, vocab, tcfg)
            probs = model.teacher_probs(prev, control, states, enc_mask=enc_mask)
            lg = loss_kg(probs, tgt, w / len(batch))
            tape.backward(lg)
            dec_opt.step()
            model.store.zero_grads()
            ref_inner.append(lg)
        labels = [ex.labels for ex in batch]
        ref_l1 = loss_kwe(tag_probs, labels, kwe_class_weights(labels))
        ref_loss = loss_encoder_stage3(ref_l1, ref_inner, tcfg.lambda_g)
        tape.backward(ref_loss)
    enc_opt.step()

    # the reported losses are the same floats; the gradients agree to round-off
    assert (l1, inner, loss) == (ref_l1.item(), [t.item() for t in ref_inner], ref_loss.item())
    assert len(got) == len(grads) == tcfg.e2 + 1
    for mine, ref in zip(got, grads):
        assert mine.keys() == ref.keys()
        for name in ref:
            np.testing.assert_allclose(mine[name], ref[name], rtol=0, atol=1e-12, err_msg=name)
    assert "enc.emb" in got[-1] and "kwe.w" in got[-1]


def test_joint_batch_tape_has_one_node_per_sublayer(monkeypatch):
    # one joint batch on a 1-encoder-layer, 2-decoder-layer model: each
    # pre-LN sublayer is one node, and the only norm nodes are the two
    # stacks' final norms
    model, vocab, docs, _ = small_setup(n_enc_layers=1, n_dec_layers=2)
    entries = []
    backward = Tape.backward

    def recording(self, loss, *args, **kwargs):
        entries.append(Counter(back.__qualname__.split(".")[0] for _, _, back in self.nodes))
        return backward(self, loss, *args, **kwargs)

    monkeypatch.setattr(Tape, "backward", recording)
    tcfg = TsmtConfig(epochs=2, e1=1, e2=2, batch_size=4, probe_docs=0)
    batch = build_examples(docs, vocab)[:4]
    _train_batch(model, batch, True, tcfg, vocab, AdamW(model.encoder_params()),
                 AdamW(model.decoder_params()))
    # encoder: position bias, embedding, 1 x (self_attention, ffn), final norm;
    # tag head; control rows: gather, gather_sum, add
    shared = {"gather_heads": 1, "gather": 2, "self_attention": 1, "ffn": 1, "layer_norm": 1,
              "softmax_head": 1, "gather_sum": 1, "add": 1}
    # decoder: slot inputs, position bias, 2 x (self_attention,
    # cross_attention with its key and value products, ffn), final norm, head, loss
    decoder = {"gather": 1, "add": 2, "reshape": 2, "gather_heads": 1,
               "self_attention": 2, "cross_attention": 2, "ffn": 2, "layer_norm": 1,
               "softmax_head": 1, "weighted_nll": 1}
    round_ = Counter(shared) + Counter(decoder)
    encoder_step = Counter(shared) + Counter({"reshape": 1, "weighted_nll": 1, "scale": 1})
    assert entries == [round_, round_, encoder_step]
    assert sum(round_.values()) == 24
