"""Ten release checks, one verdict line each (run with ``pytest -s`` to see
them).  The order matters only for cost: check 03 trains the default model
on the bundled synthetic corpus once, and checks 06 and 10 reuse it.
"""

from __future__ import annotations

import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from setkp import analysis, inference, metrics
from setkp.assignment import assign_groups, brute_force, hungarian, k_step_predict
from setkp.autograd import Tape, no_grad
from setkp.cli import _eval_record, prediction_rows
from setkp.corpus import SPECIALS, KeyphraseSet, Vocabulary, derive_keywords, bio_labels
from setkp.model import Model, ModelConfig
from setkp.synth import synth_corpus
from setkp.training import (
    AdamW,
    TsmtConfig,
    _mean_losses,
    build_examples,
    control_ids_for,
    kwe_class_weights,
    kwp_build_targets,
    loss_encoder_stage3,
    loss_kg,
    loss_kwe,
    predicted_keywords,
    teacher_arrays,
    tsmt_train,
)

# criterion 09 runs the pipeline through the script's one copy of its argv
_spec = importlib.util.spec_from_file_location(
    "pipeline_hashes", Path(__file__).resolve().parents[1] / "scripts" / "pipeline_hashes.py")
pipeline_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pipeline_hashes)

ENC_PREFIXES = ("enc.", "kwe.")
DEC_PREFIXES = ("dec.", "kg.")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _snapshot(model: Model, prefixes: tuple[str, ...]) -> dict[str, np.ndarray]:
    return {n: model.store[n].data.copy() for n in model.store.names() if n.startswith(prefixes)}


def _unchanged(model: Model, snap: dict[str, np.ndarray]) -> bool:
    return all(np.array_equal(model.store[n].data, a) for n, a in snap.items())


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def trained64():
    """Default-configuration training run on the 64-document corpus."""
    docs = synth_corpus(0, 64)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(vocab_size=len(vocab))
    model = Model.fresh(cfg, seed=0)
    t0 = time.perf_counter()
    tsmt_train(model, docs, TsmtConfig(), vocab)
    seconds = time.perf_counter() - t0
    return {"model": model, "docs": docs, "vocab": vocab, "seconds": seconds}


# ------------------------------------------------------------------ criteria


def test_01_assignment_matches_exhaustive_search():
    t0 = time.perf_counter()
    checked = mismatches = 0
    for n in range(2, 7):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            cost = rng.uniform(-5.0, 5.0, size=(n, n))
            _, fast = hungarian(cost)
            _, slow = brute_force(cost)
            checked += 1
            mismatches += fast != slow
    dt = time.perf_counter() - t0
    _verdict(
        1,
        mismatches == 0 and dt < 10.0,
        f"{checked} matrices, {mismatches} exact total-cost mismatches, {dt:.2f}s",
    )


def _fd_relative_errors(model, loss_fn, names, seed, want=60, h=1e-5):
    """Tape gradient vs central differences over sampled coordinates."""
    with Tape() as tape:
        tape.backward(loss_fn())
    store = model.store
    grads = {n: store[n].grad.copy() for n in names if store[n].grad is not None}
    store.zero_grads()

    flat = [(n, i) for n in sorted(grads) for i in range(store[n].data.size)]
    order = np.random.default_rng(seed).permutation(len(flat))
    rels = []
    for j in order:
        if len(rels) >= want:
            break
        name, idx = flat[j]
        g = float(grads[name].flat[idx])
        if abs(g) < 1e-5:  # too close to roundoff for a meaningful quotient
            continue
        p = store[name].data
        old = p.flat[idx]
        p.flat[idx] = old + h
        with no_grad():
            hi = loss_fn().item()
        p.flat[idx] = old - h
        with no_grad():
            lo = loss_fn().item()
        p.flat[idx] = old
        fd = (hi - lo) / (2.0 * h)
        rels.append(abs(g - fd) / max(abs(g), abs(fd)))
    return rels


def test_02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    vocab = Vocabulary(list(SPECIALS) + [f"w{i:02d}" for i in range(43)])
    assert len(vocab) == 50
    cfg = ModelConfig(
        vocab_size=50, d=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
        n_slots=4, n_control_keywords=1, ffn_width=32, max_kp_len=6,
    )
    model = Model.fresh(cfg, seed=11)

    tokens = [f"w{i:02d}" for i in (3, 4, 7, 12, 3, 4, 20, 21, 22, 30, 31, 7)]
    ids = vocab.encode(tokens)
    kps = KeyphraseSet(present=[["w03", "w04"]], absent=[["w08", "w09"]])
    spans = derive_keywords(tokens, kps.present)
    labels = bio_labels(tokens, spans)
    weights = kwe_class_weights([labels])

    def extraction_loss():
        return loss_kwe(model.kwe_probs(model.encode([ids])), [labels], weights)

    tl = kwp_build_targets(kps, spans, cfg.n_slots, vocab, True)
    prev, tgt, w = teacher_arrays(tl.all(), list(range(cfg.n_slots)), vocab, TsmtConfig())
    cids = control_ids_for(spans, cfg, vocab)

    def generation_loss():
        states = model.encode([ids])
        return loss_kg(model.decode_probs(prev, model.control_rows(cids), states), tgt, w)

    enc_names = [n for n in model.store.names() if n.startswith(ENC_PREFIXES)]
    all_names = model.store.names()
    rel_w = _fd_relative_errors(model, extraction_loss, enc_names, seed=1)
    rel_g = _fd_relative_errors(model, generation_loss, all_names, seed=2)
    dt = time.perf_counter() - t0

    enough = len(rel_w) >= 50 and len(rel_g) >= 50
    worst = max(rel_w + rel_g)
    _verdict(
        2,
        enough and worst <= 1e-4 and dt < 120.0,
        f"{len(rel_w)}+{len(rel_g)} coordinates, worst relative error {worst:.2e}, {dt:.1f}s",
    )


def test_03_default_training_overfits_synthetic_corpus(trained64):
    model, docs, vocab = trained64["model"], trained64["docs"], trained64["vocab"]
    assert TsmtConfig().epochs <= 300
    assert len(vocab) <= 300

    t0 = time.perf_counter()
    records = [_eval_record(d, row) for d, row in zip(docs, prediction_rows(model, vocab, docs))]
    _, macro = metrics.evaluate(records)
    dt = trained64["seconds"] + (time.perf_counter() - t0)

    pres, absent = macro["present_f1@M"], macro["absent_f1@M"]
    _verdict(
        3,
        pres >= 0.80 and absent >= 0.50 and dt < 1800.0,
        f"train present F1@M={pres:.3f} (>=0.80), absent F1@M={absent:.3f} (>=0.50), {dt:.0f}s",
    )


def test_04_padding_and_control_ablations():
    kwp_wins = kcc_wins = 0
    lines = []
    for s in range(5):
        docs = synth_corpus(1000 + s, 16)
        train = docs[:8]
        held = [seg.tokens for d in docs[8:] for seg in d.segments]
        vocab = Vocabulary.build(docs)
        mc = ModelConfig(vocab_size=len(vocab))
        mc_noctl = ModelConfig(vocab_size=len(vocab), use_keyword_control=False)
        budget = dict(epochs=16, e1=8, probe_docs=0, seed=s)

        m_on = Model.fresh(mc, seed=s)
        tsmt_train(m_on, train, TsmtConfig(**budget), vocab)
        null_on, dup_on = inference.slot_ratios(m_on, vocab, held)

        m_nopad = Model.fresh(mc, seed=s)
        tsmt_train(m_nopad, train, TsmtConfig(**budget, use_keyword_padding=False), vocab)
        null_off, _ = inference.slot_ratios(m_nopad, vocab, held)

        m_noctl = Model.fresh(mc_noctl, seed=s)
        tsmt_train(m_noctl, train, TsmtConfig(**budget), vocab)
        _, dup_off = inference.slot_ratios(m_noctl, vocab, held)

        kwp_wins += null_on <= null_off
        kcc_wins += dup_on <= dup_off
        lines.append(
            f"seed {s}: null {null_on:.3f}/{null_off:.3f} dup {dup_on:.3f}/{dup_off:.3f}"
        )
    print("\n" + "\n".join(lines))
    _verdict(
        4,
        kwp_wins >= 4 and kcc_wins >= 4,
        f"held-out null ratio padded<=plain on {kwp_wins}/5 seeds, "
        f"duplication controlled<=plain on {kcc_wins}/5 seeds",
    )


def test_05_metric_hand_values():
    f1 = metrics.f1_at_5([["alpha"], ["beta"]], [["alpha"], ["gamma"]])[2]
    ok_f1 = abs(f1 - 2.0 / 7.0) < 1e-9

    ndcg = metrics.ndcg_at_k([["wrong"], ["alpha"]], [["alpha"]], None)
    ok_ndcg = abs(ndcg - 1.0 / math.log2(3.0)) < 1e-9

    stems = [metrics.porter_stem(w) for w in ("caresses", "ponies", "relational")]
    ok_porter = stems == ["caress", "poni", "relat"]

    _verdict(
        5,
        ok_f1 and ok_ndcg and ok_porter,
        f"F1@5={f1:.6f} (2/7), NDCG={ndcg:.6f} (1/log2 3), stems={stems}",
    )


def test_06_prompt_template_and_level_one_seeding(trained64):
    rendered = inference.build_prompt(["graph"], "a b")
    want = "keyphrases from higher-level: graph [sep] find keyphrases from: a b"
    ok_text = rendered == want

    model, docs, vocab = trained64["model"], trained64["docs"], trained64["vocab"]
    # pick a document whose level-1 extraction is non-empty so the seeding
    # equality is checked on real spans, not vacuously on two empty sets
    doc = portrait = rec1 = None
    for cand in docs[:16]:
        p = inference.document_portrait(model, vocab, cand)
        if p.levels[0].keyword_spans:
            doc, portrait, rec1 = cand, p, p.levels[0]
            break
    assert doc is not None, "no document with extracted level-1 keywords"
    span_texts = {" ".join(t) for t in rec1.keyword_spans}
    ok_seed = (
        set(rec1.prompt_phrases) == span_texts
        and rec1.prompt_text
        == inference.build_prompt(rec1.prompt_phrases, " ".join(doc.segments[0].tokens))
    )
    # deeper levels prompt with what the previous level kept
    rec2 = portrait.levels[1]
    ok_chain = rec2.prompt_phrases == [e.text for e in rec1.kept]
    _verdict(
        6,
        ok_text and ok_seed and ok_chain,
        f"rendered={rendered!r}; {doc.doc_id} level-1 prompt phrases == its "
        f"{len(span_texts)} extracted spans",
    )


def test_07_stage_freezing_contracts():
    docs = synth_corpus(21, 4)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(
        vocab_size=len(vocab), d=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        n_slots=4, n_control_keywords=1, ffn_width=32,
    )

    # stage 1 never moves the decoder
    model = Model.fresh(cfg, seed=2)
    dec0 = _snapshot(model, DEC_PREFIXES)
    enc0 = _snapshot(model, ENC_PREFIXES)
    tsmt_train(model, docs, TsmtConfig(epochs=2, e1=2, probe_docs=0), vocab)
    stage1_ok = _unchanged(model, dec0) and not _unchanged(model, enc0)

    # one joint epoch, replayed op for op: the inner decoder rounds never
    # move the encoder, the closing encoder step never moves the decoder
    model = Model.fresh(cfg, seed=2)
    tcfg = TsmtConfig(epochs=1, e1=1, probe_docs=0)
    enc_opt = AdamW(model.encoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    dec_opt = AdamW(model.decoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    batch = build_examples(docs, vocab)[:4]
    weights = kwe_class_weights([ex.labels for ex in batch])
    targets, controls_ids = [], []
    for ex in batch:
        spans = predicted_keywords(model, ex)
        targets.append(kwp_build_targets(ex.kps, spans, cfg.n_slots, vocab, True))
        controls_ids.append(control_ids_for(spans, cfg, vocab))

    enc_pre = _snapshot(model, ENC_PREFIXES)
    with Tape() as tape:
        enc_states = [model.encode([ex.ids]) for ex in batch]
        controls = [model.control_rows(cids) for cids in controls_ids]
        inner = []
        for _ in range(tcfg.e2):
            per_seg = []
            for ex, states, control, tl in zip(batch, enc_states, controls, targets):
                dists = k_step_predict(model, states, control, cfg.assign_steps, vocab.bos_id)
                order = assign_groups(
                    dists, [e.ids for e in tl.present], [e.ids for e in tl.absent], vocab.null_id
                )
                prev, tgt, w = teacher_arrays(tl.all(), order, vocab, tcfg)
                per_seg.append(loss_kg(model.decode_probs(prev, control, states), tgt, w))
            lg = _mean_losses(per_seg)
            tape.backward(lg)
            dec_opt.step()
            model.store.zero_grads()
            inner.append(lg)
        inner_ok = _unchanged(model, enc_pre)
        dec_mid = _snapshot(model, DEC_PREFIXES)

        per_kwe = [
            loss_kwe(model.kwe_probs(states), [ex.labels], weights)
            for ex, states in zip(batch, enc_states)
        ]
        l2 = loss_encoder_stage3(_mean_losses(per_kwe), inner, tcfg.lambda_g)
        tape.backward(l2)
    enc_opt.step()
    stage3_ok = _unchanged(model, dec_mid) and not _unchanged(model, enc_pre)

    _verdict(
        7,
        stage1_ok and inner_ok and stage3_ok,
        f"stage1 decoder frozen={stage1_ok}, inner rounds encoder frozen={inner_ok}, "
        f"encoder step decoder frozen={stage3_ok} (all bit-exact)",
    )


def test_08_slot_control_isolation():
    docs = synth_corpus(33, 2)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(
        vocab_size=len(vocab), d=16, n_heads=2, n_enc_layers=1, n_dec_layers=1,
        n_slots=4, n_control_keywords=1, ffn_width=32,
    )
    model = Model.fresh(cfg, seed=5)
    ids = vocab.encode(docs[0].segments[0].tokens)

    word_a, word_b = vocab.tokens[-1], vocab.tokens[-2]
    base = [None] * cfg.n_slots
    base[0] = vocab.encode([word_a])
    pert = list(base)
    pert[0] = vocab.encode([word_b])

    T = 3
    prev = np.full((cfg.n_slots, T), vocab.pad_id, dtype=np.intp)
    prev[:, 0] = vocab.bos_id
    prev[:, 1] = ids[0]
    prev[:, 2] = ids[1]
    with no_grad():
        states = model.encode([ids])
        pa = model.decode_probs(prev, model.control_rows(base), states).data
        pb = model.decode_probs(prev, model.control_rows(pert), states).data
    pa = pa.reshape(cfg.n_slots, T, -1)
    pb = pb.reshape(cfg.n_slots, T, -1)

    others_identical = np.array_equal(pa[1:], pb[1:])
    target_moved = not np.array_equal(pa[0], pb[0])
    _verdict(
        8,
        others_identical and target_moved,
        f"perturbed slot 0 only: slots 1..{cfg.n_slots - 1} bit-identical={others_identical}, "
        f"slot 0 changed={target_moved}",
    )


_PIPELINE_CFG = """
seed = 3
n_docs = 6
d = 16
n_heads = 2
n_enc_layers = 1
n_dec_layers = 1
ffn_width = 32
n_slots = 4
n_control_keywords = 1
max_kp_len = 6
epochs = 3
e1 = 2
batch_size = 4
probe_docs = 2
"""


def test_09_cli_pipeline_byte_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = pipeline_hashes.run_pipeline(a, _PIPELINE_CFG)
    second = pipeline_hashes.run_pipeline(b, _PIPELINE_CFG)
    same = [k for k in first if first[k] == second[k]]
    _verdict(
        9,
        len(same) == len(first),
        f"{len(same)}/{len(first)} pipeline artifacts byte-identical across two runs",
    )


def test_10_portrait_classification_beats_baseline(trained64):
    model, docs, vocab = trained64["model"], trained64["docs"], trained64["vocab"]
    t0 = time.perf_counter()
    portraits = {}
    for d in docs:
        pads = inference.padding_keyword_spans(d) or None
        p = inference.document_portrait(model, vocab, d, padding_keywords=pads)
        portraits[d.doc_id] = p

    wins = 0
    lines = []
    for s in range(5):
        res = {
            r.mode: r
            for r in analysis.run_experiment(
                docs, portraits, ["original", "pure", "augmented"], None, seed=s
            )
        }
        pure_ok = res["pure"].accuracy > res["pure"].majority_accuracy
        aug_ok = res["augmented"].accuracy >= res["original"].accuracy
        wins += pure_ok and aug_ok
        lines.append(
            f"seed {s}: pure {res['pure'].accuracy:.3f} vs majority "
            f"{res['pure'].majority_accuracy:.3f}, augmented {res['augmented'].accuracy:.3f} "
            f"vs original {res['original'].accuracy:.3f}"
        )
    dt = time.perf_counter() - t0
    print("\n" + "\n".join(lines))
    _verdict(
        10,
        wins >= 4 and dt < 300.0,
        f"pure>majority and augmented>=original on {wins}/5 split seeds, {dt:.0f}s",
    )
