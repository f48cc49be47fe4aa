import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp import corpus
from setkp.corpus import (
    DIGIT_TOKEN,
    SPECIALS,
    KeywordSpan,
    MultiLevelDocument,
    Vocabulary,
    bio_labels,
    build_segments,
    derive_keywords,
    load_jsonl,
    save_jsonl,
    spans_from_bio,
    split_claims,
    tokenize,
)
from setkp.synth import synth_corpus

# ------------------------------------------------------------------ tokenizer


@pytest.mark.parametrize(
    "text,expect",
    [
        ("Graph Neural Networks", ["graph", "neural", "networks"]),
        ("a 2-step method", ["a", DIGIT_TOKEN, "step", "method"]),
        ("claim 17: wherein", ["claim", DIGIT_TOKEN, "wherein"]),
        ("foo-bar, baz.", ["foo", "bar", "baz"]),
        ("temp is 3.5 deg", ["temp", "is", DIGIT_TOKEN, DIGIT_TOKEN, "deg"]),
        ("[sep] and [null] pass", ["[sep]", "and", "[null]", "pass"]),
        ("hello [unk] 42", ["hello", "[unk]", DIGIT_TOKEN]),
        ("", []),
        ("   \t\n ", []),
        ("don't stop", ["don", "t", "stop"]),
    ],
)
def test_tokenize_cases(text, expect):
    assert tokenize(text) == expect


def test_tokenize_keeps_special_surface_forms():
    for sp in SPECIALS:
        assert tokenize(f"x {sp} y") == ["x", sp, "y"]


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_tokenize_idempotent_on_own_output(text):
    toks = tokenize(text)
    assert tokenize(" ".join(toks)) == toks


# ------------------------------------------------------------ keyword spans


def _oracle_keyword_runs(segment, keyphrases):
    """All sub-runs of keyphrases contained in segment, then keep maximal."""
    runs = set()
    for kp in keyphrases:
        for i in range(len(kp)):
            for j in range(i + 1, len(kp) + 1):
                run = tuple(kp[i:j])
                s = " ".join(segment)
                if any(segment[a:a + len(run)] == list(run)
                       for a in range(len(segment) - len(run) + 1)):
                    runs.add(run)
    return {
        r for r in runs
        if not any(r != o and len(r) < len(o)
                   and any(o[a:a + len(r)] == r for a in range(len(o) - len(r) + 1))
                   for o in runs)
    }


def test_derive_keywords_simple():
    seg = "the graph model uses a graph".split()
    spans = derive_keywords(seg, [["graph", "model"]])
    assert [(s.tokens, s.start) for s in spans] == [(["graph", "model"], 1)]


def test_derive_keywords_fragments():
    seg = "a graph here and a model there".split()
    spans = derive_keywords(seg, [["graph", "model"]])
    assert [s.tokens for s in spans] == [["graph"], ["model"]]


def test_derive_keywords_maximal_wins():
    # 'graph model' present and 'graph' alone elsewhere: the longer span
    # subsumes the shorter as a distinct sequence only if identical tokens
    seg = "graph model and graph again".split()
    spans = derive_keywords(seg, [["graph", "model"]])
    assert [s.tokens for s in spans] == [["graph", "model"]]


def test_derive_keywords_multiple_phrases_orderd_by_start():
    seg = "deep learning for graph model".split()
    spans = derive_keywords(seg, [["graph", "model"], ["deep", "learning"]])
    assert [s.tokens for s in spans] == [["deep", "learning"], ["graph", "model"]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derive_keywords_matches_oracle(data):
    words = ["a", "b", "c", "d", "e"]
    seg = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    kps = data.draw(
        st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=3),
                 min_size=1, max_size=3)
    )
    got = {tuple(s.tokens) for s in derive_keywords(seg, kps)}
    assert got == _oracle_keyword_runs(seg, kps)


# ------------------------------------------------------------------ BIO


def test_bio_labels_single_span():
    seg = "the graph model here".split()
    spans = [KeywordSpan(tokens=["graph", "model"], start=1)]
    assert bio_labels(seg, spans) == [0, 1, 2, 0]


def test_bio_labels_every_occurrence():
    seg = "graph then graph again".split()
    spans = [KeywordSpan(tokens=["graph"], start=0)]
    assert bio_labels(seg, spans) == [1, 0, 1, 0]


def test_bio_overlap_longer_wins():
    seg = "deep graph model".split()
    spans = [
        KeywordSpan(tokens=["graph", "model"], start=1),
        KeywordSpan(tokens=["deep", "graph"], start=0),
    ]
    # both 2-long; earlier start labels first, the overlap blocks the other
    assert bio_labels(seg, spans) == [1, 2, 0]


def test_bio_roundtrip_recovers_spans():
    seg = "x graph model y deep z".split()
    spans = [
        KeywordSpan(tokens=["graph", "model"], start=1),
        KeywordSpan(tokens=["deep"], start=4),
    ]
    labels = bio_labels(seg, spans)
    got = spans_from_bio(seg, labels)
    assert got == [(1, 3), (4, 5)]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bio_labels_roundtrip_property(data):
    words = ["a", "b", "c", "d"]
    seg = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=10))
    kps = data.draw(
        st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=2),
                 min_size=1, max_size=2)
    )
    spans = derive_keywords(seg, kps)
    labels = bio_labels(seg, spans)
    recovered = spans_from_bio(seg, labels)
    # recovered spans are non-overlapping, in order, and each recovered token
    # run equals some labeled occurrence
    last_end = 0
    span_set = {tuple(s.tokens) for s in spans}
    for a, b in recovered:
        assert a >= last_end
        last_end = b
        assert tuple(seg[a:b]) in span_set


def test_spans_from_bio_orphan_i_ignored():
    assert spans_from_bio(["a", "b"], [0, 2]) == []


# -------------------------------------------------------------- segmentation


def test_split_claims_one_sentence_per_budget():
    claims = "claim 1 aaa bbb ccc. claim 2 ddd eee fff."
    segs = split_claims(claims, 32)
    assert len(segs) == 1  # both fit one segment
    assert segs[0] == tokenize("claim 1 aaa bbb ccc claim 2 ddd eee fff")


def test_split_claims_packs_greedily():
    s1 = "w " * 20
    s2 = "v " * 20
    segs = split_claims(f"{s1}. {s2}.", 32)
    assert [len(s) for s in segs] == [20, 20]


def test_split_claims_hard_splits_long_sentence():
    segs = split_claims("w " * 80 + ".", 32)
    assert [len(s) for s in segs] == [32, 32, 16]


def test_split_claims_budget_floor():
    with pytest.raises(ValueError):
        split_claims("x.", 16)


def test_split_claims_semicolon_boundary():
    segs = split_claims("a b c; d e f.", 32)
    assert segs == [["a", "b", "c", "d", "e", "f"]]


def test_build_segments_levels():
    doc = MultiLevelDocument(
        doc_id="d1", title="graph method", abstract="uses a graph model.",
        claims=" ".join(["claim 1 " + "w " * 30 + ".", "claim 2 " + "v " * 30 + "."]),
        present_keyphrases=["graph model"], absent_keyphrases=[],
    )
    build_segments(doc, 32)
    assert [s.level for s in doc.segments] == [1, 2, 3]
    assert doc.segments[0].tokens[:2] == ["graph", "method"]


def test_segment_keyphrases_split_and_priority():
    doc = MultiLevelDocument(
        doc_id="d1", title="graph model method", abstract="with deep learning.",
        claims="claim 1 about other things entirely.",
        present_keyphrases=["graph model", "deep learning"],
        absent_keyphrases=["neural retrieval"],
    )
    build_segments(doc, 32)
    kps1 = doc.segment_keyphrases(1)
    assert kps1.present == [["graph", "model"], ["deep", "learning"]]
    assert kps1.absent == [["neural", "retrieval"]]
    kps2 = doc.segment_keyphrases(2)
    assert kps2.present == []
    # document-level absents come before borrowed present phrases
    assert kps2.absent[0] == ["neural", "retrieval"]
    assert ["graph", "model"] in kps2.absent


# ------------------------------------------------------------------- JSONL


def test_jsonl_roundtrip(tmp_path):
    docs = synth_corpus(11, 6)
    path = tmp_path / "corpus.jsonl"
    save_jsonl(path, docs)
    loaded = load_jsonl(path, max_segment_tokens=32)
    assert len(loaded) == len(docs)
    for a, b in zip(docs, loaded):
        assert a.doc_id == b.doc_id
        assert a.title == b.title
        assert a.present_keyphrases == b.present_keyphrases
        assert a.absent_keyphrases == b.absent_keyphrases
        assert a.label == b.label
        assert [s.tokens for s in a.segments] == [s.tokens for s in b.segments]


def test_jsonl_claims_list_accepted(tmp_path):
    path = tmp_path / "c.jsonl"
    row = {
        "id": "x", "title": "t", "abstract": "a.",
        "claims": ["claim 1 aa.", "claim 2 bb."],
        "present_keyphrases": [], "absent_keyphrases": [],
    }
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    docs = load_jsonl(path, 32)
    assert docs[0].claims == "claim 1 aa.; claim 2 bb."
    # both 3-token claims pack into one 32-token claim segment
    assert len(docs[0].segments) == 2


def test_jsonl_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: missing fields"):
        load_jsonl(path, 32)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed JSON"):
        load_jsonl(path, 32)


@pytest.mark.parametrize("field, value, message", [
    ("present_keyphrases", "lithium battery", "present_keyphrases must be a list of strings"),
    ("absent_keyphrases", ["ok", 3], "absent_keyphrases must be a list of strings"),
    ("title", ["a title"], "title must be a string"),
    ("abstract", None, "abstract must be a string"),
    ("claims", 7, "claims must be a string or a list of strings"),
    ("claims", ["claim one", {"x": 1}], "claims must be a string or a list of strings"),
])
def test_jsonl_field_types_checked(tmp_path, field, value, message):
    rec = {"id": "a", "title": "t", "abstract": "an abstract.", "claims": "a claim.",
           "present_keyphrases": ["claim"], "absent_keyphrases": []}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, field: value}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {message}"):
        load_jsonl(path, 32)


def test_jsonl_unicode_roundtrip(tmp_path):
    doc = MultiLevelDocument(
        doc_id="u", title="Vorrichtung für etwas", abstract="über ein system.",
        claims="claim 1 besteht aus etwas längerem und weiterem material hier.",
        present_keyphrases=["vorrichtung für"], absent_keyphrases=[],
    )
    path = tmp_path / "u.jsonl"
    save_jsonl(path, [doc])
    loaded = load_jsonl(path, 32)
    assert loaded[0].title == doc.title
    assert "für" in loaded[0].segments[0].tokens


# -------------------------------------------------------------- vocabulary


def test_vocab_specials_first_and_fixed():
    docs = synth_corpus(0, 4)
    v = Vocabulary.build(docs)
    assert tuple(v.tokens[: len(SPECIALS)]) == SPECIALS
    assert v.pad_id == 0


def test_vocab_encode_decode_with_unk():
    docs = synth_corpus(0, 4)
    v = Vocabulary.build(docs)
    ids = v.encode(["polymer", "zzznotaword"])
    assert ids[1] == v.unk_id
    assert v.tokens[ids[0]] == "polymer"


def test_vocab_frequency_order_ties_alphabetical():
    doc = MultiLevelDocument(
        doc_id="d", title="bb aa", abstract="bb cc.",
        claims="claim 1 " + " ".join(["filler"] * 30) + ".",
        present_keyphrases=[], absent_keyphrases=[],
    )
    build_segments(doc, 32)
    v = Vocabulary.build([doc])
    words = v.tokens[len(SPECIALS):]
    assert words.index("bb") < words.index("aa")  # bb freq 2 beats aa freq 1
    assert words.index("aa") < words.index("cc") or v.index["aa"] < v.index["cc"]


def test_vocab_includes_keyphrase_and_prompt_words():
    doc = MultiLevelDocument(
        doc_id="d", title="t", abstract="a.",
        claims="claim 1 " + " ".join(["w"] * 30) + ".",
        present_keyphrases=["unseen phrase"], absent_keyphrases=["hidden term"],
    )
    build_segments(doc, 32)
    v = Vocabulary.build([doc])
    for w in ("unseen", "phrase", "hidden", "term", "keyphrases", "higher", "level", "find", "from"):
        assert w in v.index, w


def test_vocab_missing_special_rejected():
    with pytest.raises(ValueError):
        Vocabulary(["just", "words"])


# ------------------------------------------------------------ted synthesis


def test_synth_deterministic():
    a = synth_corpus(21, 12)
    b = synth_corpus(21, 12)
    assert [d.doc_id for d in a] == [d.doc_id for d in b]
    assert [d.claims for d in a] == [d.claims for d in b]
    assert [d.present_keyphrases for d in a] == [d.present_keyphrases for d in b]


def test_synth_seeds_differ():
    a = synth_corpus(0, 8)
    b = synth_corpus(1, 8)
    assert [d.claims for d in a] != [d.claims for d in b]


def test_synth_planting_contracts():
    for doc in synth_corpus(5, 16):
        toks = doc.all_tokens()
        for kp in doc.present_keyphrases:
            assert corpus._contains_run(toks, tokenize(kp))
        for kp in doc.absent_keyphrases:
            assert not corpus._contains_run(toks, tokenize(kp))
        assert doc.label is not None


def test_synth_vocab_budget():
    from setkp.synth import distinct_word_count

    docs = synth_corpus(0, 64)
    assert distinct_word_count(docs) <= 300
