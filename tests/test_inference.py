import dataclasses

import numpy as np
import pytest

from setkp import inference
from setkp.assignment import k_step_predict
from setkp.autograd import no_grad
from setkp.corpus import (
    MultiLevelDocument,
    Vocabulary,
    build_segments,
    read_jsonl,
    write_jsonl,
)
from setkp.inference import (
    PROMPT_INFIX,
    PROMPT_PREFIX,
    Portrait,
    PortraitEntry,
    SlotPrediction,
    build_prompt,
    document_portrait,
    encode_and_tag,
    extract_keywords,
    filter_predictions,
    generate_segments,
    generate_slots,
    load_portraits,
    padding_keyword_spans,
    portrait_from_dict,
    portrait_to_dict,
    portraits,
    prompt_tokens,
    save_portraits,
)
from setkp.model import DecodeCache, Model, ModelConfig
from setkp.synth import synth_corpus
from setkp.training import control_ids_for


def setup_model(n_docs=2):
    docs = synth_corpus(0, n_docs)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(
        vocab_size=len(vocab), d=16, n_heads=2, n_slots=4, n_control_keywords=1, ffn_width=32
    )
    return Model.fresh(cfg, seed=0), vocab, docs


# ------------------------------------------------------------------- prompts


def test_prompt_text_exact():
    got = build_prompt(["graph"], "a b")
    assert got == "keyphrases from higher-level: graph [sep] find keyphrases from: a b"


def test_prompt_joins_phrases_with_comma_space():
    got = build_prompt(["graph net", "x y"], "body")
    assert got == PROMPT_PREFIX + "graph net, x y" + PROMPT_INFIX + "body"


def test_prompt_tokens_no_truncation():
    toks, text = prompt_tokens(["graph"], ["a", "b"], max_len=64)
    assert text == build_prompt(["graph"], "a b")
    assert toks == ["keyphrases", "from", "higher", "level", "graph",
                    "[sep]", "find", "keyphrases", "from", "a", "b"]


def test_prompt_tokens_truncates_body_never_prefix():
    body = ["w"] * 50
    toks, text = prompt_tokens(["graph"], body, max_len=12)
    head = ["keyphrases", "from", "higher", "level", "graph", "[sep]", "find", "keyphrases", "from"]
    assert toks == head + ["w", "w", "w"]
    assert text == build_prompt(["graph"], "w w w")


def test_prompt_tokens_zero_body_room():
    toks, _ = prompt_tokens(["graph"], ["w"] * 50, max_len=5)
    # prefix alone exceeds the cap; body is dropped entirely, prefix kept
    assert toks == ["keyphrases", "from", "higher", "level", "graph", "[sep]", "find", "keyphrases", "from"]


# ---------------------------------------------------------------- slot decode


def test_generate_slots_structure():
    model, vocab, docs = setup_model()
    ids = vocab.encode(docs[0].segments[0].tokens)
    enc = model.encode([ids])
    control = model.control_rows([None] * model.cfg.n_slots)
    slots = generate_slots(model, vocab, enc, control)
    assert len(slots) == model.cfg.n_slots
    assert [s.slot for s in slots] == list(range(model.cfg.n_slots))
    assert [s.group for s in slots] == ["present", "present", "absent", "absent"]
    for s in slots:
        assert len(s.tokens) <= model.cfg.max_kp_len
        assert 0.0 <= s.confidence <= 1.0


def test_generate_slots_max_len_bound():
    model, vocab, docs = setup_model()
    ids = vocab.encode(docs[0].segments[0].tokens)
    enc = model.encode([ids])
    control = model.control_rows([None] * model.cfg.n_slots)
    model = Model(dataclasses.replace(model.cfg, max_kp_len=2), model.store)
    slots = generate_slots(model, vocab, enc, control)
    assert all(len(s.tokens) <= 2 for s in slots)


def test_generate_slots_deterministic():
    model, vocab, docs = setup_model()
    ids = vocab.encode(docs[0].segments[0].tokens)
    enc = model.encode([ids])
    control = model.control_rows([None] * model.cfg.n_slots)
    a = generate_slots(model, vocab, enc, control)
    b = generate_slots(model, vocab, enc, control)
    assert [(s.tokens, s.is_null, s.confidence) for s in a] == [
        (s.tokens, s.is_null, s.confidence) for s in b
    ]


def _greedy_full_recompute(model, vocab, enc, control, m):
    """Reference greedy decode: re-decodes every slot's whole prefix at each
    step, without a cache. Each step's distributions are also checked
    against a cache stepped along the same path."""
    n = model.cfg.n_slots
    prev = np.full((n, 1), vocab.bos_id, dtype=np.intp)
    cache = DecodeCache(m)
    done = np.zeros(n, dtype=bool)
    emitted = [[] for _ in range(n)]
    probs = [[] for _ in range(n)]
    for t in range(m):
        step = model.decode_probs(prev, control, enc).data.reshape(n, t + 1, -1)[:, t]
        cached = model.decode_probs(prev[:, -1:], control, enc, cache=cache).data
        np.testing.assert_allclose(cached, step, rtol=0, atol=1e-12)
        choice = step.argmax(axis=1)
        for i in range(n):
            if done[i]:
                choice[i] = vocab.eos_id
            elif choice[i] == vocab.eos_id:
                done[i] = True
            else:
                emitted[i].append(int(choice[i]))
                probs[i].append(float(step[i, choice[i]]))
        if done.all():
            break
        prev = np.concatenate([prev, choice[:, None]], axis=1)
    return emitted, probs


@pytest.mark.parametrize("bias_out,max_len", [(True, None), (True, 3), (False, None)])
def test_generate_slots_matches_full_recompute(bias_out, max_len):
    model, vocab, docs = setup_model()
    if bias_out:  # no slot may stop early: every step of the horizon runs
        model.store["kg.b"].data[[vocab.eos_id, vocab.null_id]] = -100.0
    if max_len is not None:
        model = Model(dataclasses.replace(model.cfg, max_kp_len=max_len), model.store)
    m = model.cfg.max_kp_len
    for seg in docs[0].segments[:3]:
        enc = model.encode([vocab.encode(seg.tokens)])
        control = model.control_rows([None, [5], None, [7]])
        slots = generate_slots(model, vocab, enc, control)
        emitted, probs = _greedy_full_recompute(model, vocab, enc, control, m)
        for s, ids, ps in zip(slots, emitted, probs):
            assert s.tokens == [vocab.tokens[t] for t in ids if t != vocab.null_id]
            assert s.confidence == pytest.approx(float(np.mean(ps)) if ps else 0.0,
                                                 rel=0, abs=1e-12)
            if bias_out:
                assert len(ids) == m


def test_decode_stops_once_every_slot_emits_eos_and_assignment_never_stops(monkeypatch):
    # generate_slots decodes until every slot has emitted EOS, at most
    # max_kp_len steps; k_step_predict always decodes all k steps
    model, vocab, docs = setup_model()
    enc = model.encode([vocab.encode(docs[0].segments[0].tokens)])
    control = model.control_rows([None] * model.cfg.n_slots)
    calls = []
    decode_probs = Model.decode_probs

    def counted(self, *args, **kwargs):
        calls.append(1)
        return decode_probs(self, *args, **kwargs)

    monkeypatch.setattr(Model, "decode_probs", counted)
    bias = model.store["kg.b"].data
    bias[vocab.eos_id] = 100.0
    slots = generate_slots(model, vocab, enc, control)
    assert len(calls) == 1
    assert all(s.tokens == [] and not s.is_null and s.confidence == 0.0 for s in slots)
    calls.clear()
    dists = k_step_predict(model, enc, control, 3, vocab.bos_id)
    assert len(calls) == 3 and dists.shape == (3, model.cfg.n_slots, model.cfg.vocab_size)
    assert (dists.argmax(axis=2) == vocab.eos_id).all()
    bias[[vocab.eos_id, vocab.null_id]] = -100.0
    calls.clear()
    slots = generate_slots(model, vocab, enc, control)
    assert len(calls) == model.cfg.max_kp_len
    assert all(len(s.tokens) == model.cfg.max_kp_len for s in slots)


def test_generate_segments_decodes_on_the_tagged_spans():
    # a segment's slots are those decoded on its own states under the
    # control rows of the keyword spans tagged on them
    model, vocab, docs = setup_model()
    toks = docs[0].segments[0].tokens
    (slots,) = generate_segments(model, vocab, [toks])
    spans = extract_keywords(model, vocab, toks)
    assert spans
    with no_grad():
        enc = model.encode([vocab.encode(toks)])
        control = model.control_rows(control_ids_for(spans, model.cfg, vocab))
    want = generate_slots(model, vocab, enc, control)
    assert len(slots) == model.cfg.n_slots
    assert [(s.tokens, s.is_null, s.confidence) for s in slots] == [
        (s.tokens, s.is_null, s.confidence) for s in want]


# ------------------------------------------------------------ batched encode


def _mixed_segments(docs):
    """Every segment of ``docs`` plus prefixes that share lengths with them,
    so that the segments form equal-length groups of several sizes, one of
    them of one-token segments."""
    segs = [seg.tokens for d in docs for seg in d.segments]
    return segs + [t[:5] for t in segs[:4]] + [t[:19] for t in segs[4:7]] + [t[:1] for t in segs[:3]]


def _single(model, vocab, tokens):
    """Reference: one segment's own batch-of-one encode and its tag decode."""
    toks = tokens[: model.cfg.max_encode_len]
    with no_grad():
        states = model.encode([vocab.encode(toks)])
        tags = model.kwe_probs(states).data[0]
    return states.data, model.predict_keywords(tags, toks)


def _batched(model, vocab, segments):
    out = [None] * len(segments)
    for i, states, spans in encode_and_tag(model, vocab, segments):
        out[i] = states.data, spans
    return out


@pytest.mark.parametrize("order", ["given", "reversed"])
def test_encode_and_tag_matches_single_encodes(order):
    model, vocab, docs = setup_model(4)
    segments = _mixed_segments(docs)
    if order == "reversed":
        segments = segments[::-1]
    lengths = [len(t) for t in segments]
    assert max(lengths.count(n) for n in lengths) >= 3 and len(set(lengths)) >= 5
    for tokens, (states, spans) in zip(segments, _batched(model, vocab, segments)):
        want_states, want_spans = _single(model, vocab, tokens)
        assert np.array_equal(states, want_states)
        assert spans == want_spans
    slots = [[(s.tokens, s.is_null, s.confidence) for s in out]
             for out in generate_segments(model, vocab, segments)]
    assert slots == [[(s.tokens, s.is_null, s.confidence) for s in generate_segments(
        model, vocab, [tokens])[0]] for tokens in segments]


def test_encode_and_tag_splits_groups_over_the_row_budget(monkeypatch):
    model, vocab, docs = setup_model()
    segments = [docs[0].segments[0].tokens[:6]] * 5 + [docs[1].segments[0].tokens[:6]] * 2
    whole = _batched(model, vocab, segments)
    calls = []
    encode = Model.encode

    def counted(self, token_ids):
        calls.append(len(token_ids))
        return encode(self, token_ids)

    monkeypatch.setattr(Model, "encode", counted)
    monkeypatch.setattr(inference, "ENCODE_ROWS", 13)  # two 6-token segments per call
    split = _batched(model, vocab, segments)
    assert calls == [2, 2, 2, 1]
    for (a_states, a_spans), (b_states, b_spans) in zip(whole, split):
        assert np.array_equal(a_states, b_states)
        assert a_spans == b_spans


# ------------------------------------------------------------------ filtering


def _slot(tokens, conf, is_null=False, slot=0, group="present"):
    return SlotPrediction(tokens=tokens, is_null=is_null, group=group,
                          confidence=conf, slot=slot)


def test_filter_drops_null_and_empty():
    kept = filter_predictions([
        _slot(["alpha"], 0.9, slot=0),
        _slot([], 0.5, is_null=True, slot=1),
        _slot([], 0.0, slot=2),
    ])
    assert [s.tokens for s in kept] == [["alpha"]]


def test_filter_bans_padding_keywords_exact():
    kept = filter_predictions(
        [_slot(["neural"], 0.9, slot=0), _slot(["neural", "network"], 0.8, slot=1)],
        padding_keywords=[["neural"]],
    )
    assert [s.tokens for s in kept] == [["neural", "network"]]
    # stem-equal but not token-identical to a padding span survives
    kept = filter_predictions(
        [_slot(["polymer"], 0.9, slot=0), _slot(["polymers"], 0.8, slot=1),
         _slot(["coating"], 0.7, slot=2)],
        padding_keywords=[["polymer"]],
    )
    assert [s.tokens for s in kept] == [["polymers"], ["coating"]]


def test_filter_stem_dedup_keeps_highest_confidence():
    kept = filter_predictions([
        _slot(["coating"], 0.6, slot=0),
        _slot(["coatings"], 0.9, slot=1),  # same stem, higher confidence
        _slot(["monomer"], 0.7, slot=2),
    ])
    assert [s.tokens for s in kept] == [["coatings"], ["monomer"]]


def test_filter_orders_by_confidence_then_slot():
    kept = filter_predictions([
        _slot(["b"], 0.5, slot=3),
        _slot(["a"], 0.5, slot=1),
        _slot(["c"], 0.9, slot=2),
    ])
    assert [s.tokens for s in kept] == [["c"], ["a"], ["b"]]


def _manual_doc():
    doc = MultiLevelDocument(
        doc_id="m-1",
        title="neural study",
        abstract="the neural approach works.",
        claims="claim 1 a neural method.",
        present_keyphrases=["neural network"],
        absent_keyphrases=["deep learning"],
        label="x",
    )
    build_segments(doc, 32)
    return doc


def test_padding_pool_keeps_shared_subruns_only():
    # "neural" occurs alone while the full phrase never does, so the pool is
    # exactly that sub-run; the full keyphrase itself is never banned
    doc = _manual_doc()
    assert padding_keyword_spans(doc) == [["neural"]]


def test_padding_pool_empty_when_phrases_verbatim():
    docs = synth_corpus(0, 4)
    for doc in docs:
        assert padding_keyword_spans(doc) == []


# ------------------------------------------------------------------ portraits


def test_portrait_levels_and_prompt_chaining():
    model, vocab, docs = setup_model()
    doc = docs[0]
    p = document_portrait(model, vocab, doc)
    assert p.doc_id == doc.doc_id
    assert [r.level for r in p.levels] == [s.level for s in doc.segments]
    r0 = p.levels[0]
    # level 1 seeds its prompt from its own extracted keywords
    assert {tuple(ph.split()) for ph in r0.prompt_phrases} == {
        tuple(s) for s in r0.keyword_spans
    }
    assert r0.prompt_text == build_prompt(r0.prompt_phrases, " ".join(doc.segments[0].tokens))
    # each deeper level is prompted with what the previous level kept
    for prev, cur in zip(p.levels, p.levels[1:]):
        assert cur.prompt_phrases == [e.text for e in prev.kept]


def test_portrait_dedups_across_levels_by_stem():
    model, vocab, docs = setup_model()
    from setkp.metrics import stem_tokens

    p = document_portrait(model, vocab, docs[0])
    stems = [tuple(stem_tokens(e.tokens)) for e in p.entries]
    assert len(stems) == len(set(stems))


def test_portrait_deterministic():
    model, vocab, docs = setup_model()
    a = portrait_to_dict(document_portrait(model, vocab, docs[0]))
    b = portrait_to_dict(document_portrait(model, vocab, docs[0]))
    assert a == b


def test_portrait_max_levels():
    model, vocab, docs = setup_model()
    p = document_portrait(model, vocab, docs[0], max_levels=1)
    assert len(p.levels) == 1


def test_portrait_empty_doc_rejected():
    model, vocab, _ = setup_model()
    doc = MultiLevelDocument(
        doc_id="e", title="", abstract="", claims="",
        present_keyphrases=[], absent_keyphrases=[], label="x",
    )
    with pytest.raises(ValueError):
        document_portrait(model, vocab, doc)


@pytest.mark.parametrize("max_levels", [None, 1])
def test_portraits_match_per_document_portraits(max_levels):
    model, vocab, docs = setup_model(6)
    docs = [*docs, _manual_doc()]
    assert {len(d.segments) for d in docs} >= {2, 3}
    pads = [padding_keyword_spans(d) or None for d in docs]
    assert any(pads)
    got = portraits(model, vocab, docs, max_levels=max_levels, padding_keywords=pads)
    want = [document_portrait(model, vocab, d, max_levels=max_levels, padding_keywords=p)
            for d, p in zip(docs, pads)]
    assert [portrait_to_dict(p) for p in got] == [portrait_to_dict(p) for p in want]
    assert [len(p.levels) for p in got] == [len(d.segments[:max_levels]) for d in docs]


def test_portraits_reject_an_empty_document_by_id():
    model, vocab, docs = setup_model()
    empty = MultiLevelDocument(
        doc_id="e", title="", abstract="", claims="",
        present_keyphrases=[], absent_keyphrases=[], label="x",
    )
    with pytest.raises(ValueError, match="^document e has no segments$"):
        portraits(model, vocab, [docs[0], empty])
    with pytest.raises(ValueError, match="^document e has no segments$"):
        document_portrait(model, vocab, empty)


def test_tokens_for_levels_separator_and_restriction():
    p = Portrait(
        doc_id="d",
        entries=[
            PortraitEntry(tokens=["a", "b"], level=1, group="present", confidence=0.9),
            PortraitEntry(tokens=["c"], level=2, group="absent", confidence=0.5),
        ],
    )
    assert p.tokens_for_levels() == ["a", "b", ";", "c"]
    assert p.tokens_for_levels({2}) == ["c"]
    assert p.tokens_for_levels({3}) == []


# -------------------------------------------------------------- serialization


def test_portrait_jsonl_roundtrip(tmp_path):
    model, vocab, docs = setup_model()
    ps = [document_portrait(model, vocab, d) for d in docs]
    path = tmp_path / "p.jsonl"
    save_portraits(path, ps)
    back = load_portraits(path)
    assert len(back) == len(ps)
    for orig, got in zip(ps, back):
        assert got.doc_id == orig.doc_id
        assert [e.text for e in got.entries] == [e.text for e in orig.entries]
        assert [e.level for e in got.entries] == [e.level for e in orig.entries]
        assert [e.group for e in got.entries] == [e.group for e in orig.entries]
        assert [r.prompt_text for r in got.levels] == [r.prompt_text for r in orig.levels]


def test_portrait_levels_keep_their_entries_through_save_and_load(tmp_path):
    from setkp.inference import LevelRecord

    e1 = PortraitEntry(tokens=["polymer", "coating"], level=1, group="present", confidence=0.9)
    e2 = PortraitEntry(tokens=["epoxy"], level=2, group="present", confidence=0.8)
    e3 = PortraitEntry(tokens=["thermoset"], level=2, group="absent", confidence=0.7)
    p = Portrait(doc_id="d", entries=[e1, e2, e3], levels=[
        LevelRecord(level=1, prompt_text="p1", prompt_phrases=["a"], keyword_spans=[["a"]], kept=[e1]),
        LevelRecord(level=2, prompt_text="p2", prompt_phrases=["polymer coating"],
                    keyword_spans=[], kept=[e3, e2]),
        LevelRecord(level=3, prompt_text="p3", prompt_phrases=[], keyword_spans=[], kept=[]),
    ])
    path = tmp_path / "p.jsonl"
    save_portraits(path, [p])
    (back,) = load_portraits(path)
    assert [[e.text for e in r.kept] for r in back.levels] == [
        ["polymer coating"], ["thermoset", "epoxy"], []
    ]
    assert all(any(k is e for e in back.entries) for r in back.levels for k in r.kept)
    again = tmp_path / "again.jsonl"
    save_portraits(again, [back])
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("load", [load_portraits])
def test_bad_jsonl_line_names_file_and_line(tmp_path, load):
    path = tmp_path / "out.jsonl"
    path.write_text('{"id": "a", "keyphrases": []}\n\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"out\.jsonl:3: malformed JSON"):
        load(path)


def test_portrait_confidence_rounded_in_json():
    p = Portrait(
        doc_id="d",
        entries=[PortraitEntry(tokens=["a"], level=1, group="present", confidence=0.123456789)],
    )
    d = portrait_to_dict(p)
    assert d["keyphrases"][0]["confidence"] == 0.123457
    assert portrait_from_dict(d).entries[0].confidence == pytest.approx(0.123457)


def test_predictions_jsonl_roundtrip(tmp_path):
    rows = [{"id": "a", "kept": ["x y"]}, {"id": "b", "kept": []}]
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, rows)
    assert [rec for _, rec in read_jsonl(path)] == rows


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_jsonl_rejects_non_finite_numbers(tmp_path, value):
    # JSON has no NaN or infinity; no command writes a record it cannot read back
    with pytest.raises(ValueError):
        write_jsonl(tmp_path / "preds.jsonl", [{"id": "a", "confidence": value}])


@pytest.mark.parametrize("bad", [{"b": float("nan")}, {"b": object()}], ids=["nan", "object"])
def test_write_jsonl_encodes_every_record_before_writing(tmp_path, bad):
    # a record that cannot be encoded names the file and its record number,
    # and the file keeps the bytes it had: no truncated output is left
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b'{"old": 1}\n')
    with pytest.raises(ValueError, match=rf"preds\.jsonl: record 2: "):
        write_jsonl(path, [{"a": 1}, bad, {"c": 3}])
    assert path.read_bytes() == b'{"old": 1}\n'
    missing = tmp_path / "new.jsonl"
    with pytest.raises(ValueError, match="record 1"):
        write_jsonl(missing, iter([bad]))
    assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]


def test_non_ascii_text_is_written_as_utf8_and_read_back_equal(tmp_path):
    from setkp.inference import LevelRecord

    row = {"id": "d", "segments": [{"level": 1, "kept": [
        {"text": "größe maß", "group": "present", "confidence": 0.5}]}]}
    entry = PortraitEntry(tokens=["größe", "maß"], level=1, group="present", confidence=0.5)
    p = Portrait(doc_id="d", entries=[entry], levels=[
        LevelRecord(level=1, prompt_text="straße", prompt_phrases=["größe maß"],
                    keyword_spans=[["größe"]], kept=[entry]),
    ])
    for name, rec in (("preds", row), ("portraits", portrait_to_dict(p))):
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(path, [rec])
        raw = path.read_bytes()
        assert "größe".encode("utf-8") in raw and b"\\u" not in raw
    assert [rec for _, rec in read_jsonl(tmp_path / "preds.jsonl")] == [row]
    assert load_portraits(tmp_path / "portraits.jsonl") == [p]


def test_extract_keywords_truncates_to_encode_limit():
    model, vocab, _ = setup_model()
    toks = ["the"] * (model.cfg.max_encode_len + 40)
    spans = extract_keywords(model, vocab, toks)
    assert all(s.start + len(s.tokens) <= model.cfg.max_encode_len for s in spans)
