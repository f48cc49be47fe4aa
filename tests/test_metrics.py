import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp import metrics
from setkp.corpus import contains_run
from setkp.metrics import (
    EvalRecord,
    duplication_ratio,
    evaluate,
    f1_at_5,
    format_eval_table,
    ndcg_at_k,
    null_ratio,
    porter_stem,
    score_record,
    stem_tokens,
    write_eval_csv,
)

# ------------------------------------------------------------------- stemming

# hand-checked against the 1980 algorithm, grouped by the step that fires
PORTER_VECTORS = [
    # step 1a
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # step 1b (+ cleanup)
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"),
    ("sky", "sky"),
    # step 2
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologou", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expect", PORTER_VECTORS)
def test_porter_vectors(word, expect):
    assert porter_stem(word) == expect


def test_porter_short_words_untouched():
    for w in ("a", "is", "by", "it"):
        assert porter_stem(w) == w


def test_porter_non_alpha_passthrough():
    assert porter_stem("[digit]") == "[digit]"
    assert porter_stem("[null]") == "[null]"
    assert porter_stem("naïve") == "naïve"


def test_stem_tokens_tuple():
    assert stem_tokens(["polymer", "coatings"]) == ("polym", "coat")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_porter_never_grows_or_crashes(word):
    out = porter_stem(word)
    assert len(out) <= len(word)
    assert out == out.lower()


def test_porter_stem_thread_safe():
    # 4 threads stem the same words through the uncached function with a
    # tight switch interval; every result must equal the serial stems
    rng = random.Random(0)
    suffixes = ["", "s", "ing", "ed", "ational", "ness", "ement", "izer", "ies", "ly"]
    words = ["".join(rng.choice("abcdefghiklmnoprstuvyz") for _ in range(rng.randint(2, 9)))
             + rng.choice(suffixes) for _ in range(2000)]
    stem = porter_stem.__wrapped__
    expect = [stem(w) for w in words]
    results: dict[int, list[str]] = {}
    errors: list[BaseException] = []

    def work(i):
        try:
            results[i] = [stem(w) for w in words]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(results[i] == expect for i in range(4))


# ------------------------------------------------------ reference scorers
# One scorer per metric, each rebuilding its own stem-deduplicated match
# list, and F1@5 padded to five with sentinels: the per-metric form that
# ``score_record`` replaced, kept as the reference it must equal bit for bit.


def ref_dedup_by_stem(phrases):
    seen, out = set(), []
    for p in phrases:
        key = stem_tokens(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _ref_match_sets(preds, targets):
    pset = [stem_tokens(p) for p in ref_dedup_by_stem(preds)]
    tset = {stem_tokens(t) for t in targets}
    return pset, tset


def ref_f1_at_m(preds, targets):
    pset, tset = _ref_match_sets(preds, targets)
    matches = sum(1 for p in pset if p in tset)
    prec = matches / len(pset) if pset else 0.0
    rec = matches / len(tset) if tset else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f1


def ref_f1_at_5(preds, targets):
    pset, tset = _ref_match_sets(preds, targets)
    top = pset[:5]
    i = 0
    while len(top) < 5:
        top.append((f"__pad{i}__",))
        i += 1
    matches = sum(1 for p in top if p in tset)
    prec = matches / 5.0
    rec = matches / len(tset) if tset else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f1


def ref_map_at_k(preds, targets, k):
    pset, tset = _ref_match_sets(preds, targets)
    if k is None:
        k = len(pset)
    ranked = pset[:k]
    if not tset or k == 0:
        return 0.0
    hits = 0
    ap = 0.0
    for r, p in enumerate(ranked, start=1):
        if p in tset:
            hits += 1
            ap += hits / r
    denom = min(len(tset), k)
    return ap / denom if denom else 0.0


def ref_ndcg_at_k(preds, targets, k):
    pset, tset = _ref_match_sets(preds, targets)
    if k is None:
        k = len(pset)
    if not tset or k == 0:
        return 0.0
    dcg = sum(1.0 / math.log2(r + 1) for r, p in enumerate(pset[:k], start=1) if p in tset)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(tset), k) + 1))
    return dcg / ideal if ideal else 0.0


def ref_split_by_source(preds, source):
    stems = stem_tokens(source)
    present, absent = [], []
    for p in preds:
        (present if contains_run(stems, stem_tokens(p)) else absent).append(p)
    return present, absent


def ref_score_record(rec):
    pred_present, pred_absent = ref_split_by_source(rec.predictions, rec.source_tokens)
    out = {}
    for bucket, preds, targets in (
        ("present", pred_present, rec.present_targets),
        ("absent", pred_absent, rec.absent_targets),
    ):
        out[f"{bucket}_f1@5"] = ref_f1_at_5(preds, targets)[2]
        out[f"{bucket}_f1@M"] = ref_f1_at_m(preds, targets)[2]
        out[f"{bucket}_map@5"] = ref_map_at_k(preds, targets, 5)
        out[f"{bucket}_map@M"] = ref_map_at_k(preds, targets, None)
        out[f"{bucket}_ndcg@5"] = ref_ndcg_at_k(preds, targets, 5)
        out[f"{bucket}_ndcg@M"] = ref_ndcg_at_k(preds, targets, None)
    out["duplication"] = duplication_ratio(rec.slot_outputs)
    out["null_ratio"] = null_ratio(rec.slot_outputs)
    return out


def _absent_scores(preds, targets):
    """The six bucket scores of ``preds`` against ``targets`` through
    ``score_record``: with an empty source every prediction is absent."""
    out = score_record(EvalRecord("d", preds, [], targets, []))
    return {k.removeprefix("absent_"): v for k, v in out.items() if k.startswith("absent_")}


# words with stem collisions (cat/cats, run/running, coat/coating/coatings)
_WORDS = ["cat", "cats", "dog", "run", "running", "coat", "coating", "coatings", "resin"]
_phrases = st.lists(st.lists(st.sampled_from(_WORDS), max_size=3), max_size=9)


@given(
    _phrases,
    _phrases,
    _phrases,
    st.lists(st.sampled_from(_WORDS), max_size=12),
    st.lists(st.tuples(st.lists(st.sampled_from(_WORDS), max_size=2), st.booleans()), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_score_record_equals_the_per_metric_reference(preds, present, absent, source, slots):
    rec = EvalRecord("d", preds, present, absent, source, slots)
    got = [(k, repr(v)) for k, v in score_record(rec).items()]
    assert got == [(k, repr(v)) for k, v in ref_score_record(rec).items()]
    assert repr(f1_at_5(preds, absent)) == repr(ref_f1_at_5(preds, absent))
    for k in (1, 5, None):
        assert repr(ndcg_at_k(preds, absent, k)) == repr(ref_ndcg_at_k(preds, absent, k))


def test_score_record_stems_each_phrase_once(monkeypatch):
    # one stem_tokens call per prediction, per target, for the source and
    # per non-null slot output (duplication_ratio), whatever the buckets
    calls = []

    def counting(tokens):
        calls.append(tuple(tokens))
        return stem_tokens(tokens)

    monkeypatch.setattr(metrics, "stem_tokens", counting)
    rec = EvalRecord(
        doc_id="d",
        predictions=[["polymer", "coating"], ["coatings"], ["polymer", "coatings"], ["epoxy"],
                     ["resin"], ["junk"], ["coating"]],
        present_targets=[["polymer", "coating"], ["layer"]],
        absent_targets=[["epoxy", "resin"], ["epoxy"]],
        source_tokens="a polymer coating layer".split(),
        slot_outputs=[(["epoxy"], False), ([], False), (["[null]"], True)],
    )
    score_record(rec)
    expect = ([rec.source_tokens] + rec.predictions + rec.present_targets + rec.absent_targets
              + [toks for toks, is_null in rec.slot_outputs if not is_null])
    assert sorted(calls) == sorted(map(tuple, expect))


def test_dedup_by_stem_keeps_first():
    # coating/coatings/coating collapse to the first: resin ranks second
    phrases = [["coating"], ["coatings"], ["resin"], ["coating"]]
    scores = _absent_scores(phrases, [["resin"]])
    assert scores["map@M"] == pytest.approx(1 / 2)  # keep-last ranks resin first
    assert scores["f1@M"] == pytest.approx(2 / 3)  # precision 1/2 over two distinct


@given(
    st.lists(
        st.lists(st.sampled_from(["cat", "cats", "dog", "run", "running"]), min_size=1, max_size=3),
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_dedup_by_stem_no_stem_dupes(phrases):
    # stem duplicates of earlier predictions never change a score
    targets = [["cat"], ["dog", "run"], ["running"]]
    scores = _absent_scores(phrases, targets)
    assert _absent_scores(ref_dedup_by_stem(phrases), targets) == scores
    assert _absent_scores(phrases + phrases[::-1], targets) == scores


# ----------------------------------------------------------------- set scores


def test_f1_at_5_two_sevenths():
    # 1 match, 2 targets: precision 1/5 over five, recall 1/2
    preds = [["polymer", "coating"], ["junk"]]
    targets = [["polymer", "coating"], ["epoxy", "resin"]]
    prec, rec, f1 = f1_at_5(preds, targets)
    assert prec == pytest.approx(1 / 5)
    assert rec == pytest.approx(1 / 2)
    assert f1 == pytest.approx(2 / 7)
    assert _absent_scores(preds, targets)["f1@5"] == f1


def test_f1_at_5_truncates_to_five():
    preds = [["w%d" % i] for i in range(8)] + [["hit"]]
    _, rec, _ = f1_at_5(preds, [["hit"]])
    assert rec == 0.0  # the match sits past rank 5
    assert _absent_scores(preds, [["hit"]])["f1@5"] == 0.0


def test_f1_at_5_matches_by_stem():
    prec, rec, f1 = f1_at_5([["coatings"]], [["coating"]])
    assert (prec, rec) == (pytest.approx(1 / 5), pytest.approx(1.0))


def test_f1_at_m_four_sevenths():
    preds = [["a"], ["b"], ["c"]]
    targets = [["a"], ["b"], ["x"], ["y"]]
    prec, rec, f1 = ref_f1_at_m(preds, targets)
    assert prec == pytest.approx(2 / 3)
    assert rec == pytest.approx(1 / 2)
    assert f1 == pytest.approx(4 / 7)
    assert _absent_scores(preds, targets)["f1@M"] == f1


def test_f1_at_m_dedups_before_scoring():
    # "coating" and "coatings" collapse: one prediction, one match
    assert _absent_scores([["coating"], ["coatings"]], [["coating"]])["f1@M"] == 1.0


def test_f1_empty_cases():
    assert _absent_scores([], [["a"]])["f1@M"] == 0.0
    assert _absent_scores([["a"]], [])["f1@M"] == 0.0
    assert f1_at_5([], []) == (0.0, 0.0, 0.0)


def test_map_five_sixths():
    preds = [["a"], ["miss"], ["b"]]
    targets = [["a"], ["b"]]
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert _absent_scores(preds, targets)["map@M"] == pytest.approx(5 / 6)


def test_map_at_5_denominator_is_min():
    # 6 targets but cutoff 5: a perfect top-5 scores 1.0
    targets = [[c] for c in "abcdef"]
    preds = [[c] for c in "abcde"]
    assert _absent_scores(preds, targets)["map@5"] == pytest.approx(1.0)


def test_ndcg_one_over_log2_three():
    # single target found at rank 2: dcg 1/log2(3), ideal 1
    preds = [["miss"], ["hit"]]
    assert ndcg_at_k(preds, [["hit"]], None) == pytest.approx(1 / math.log2(3))
    assert _absent_scores(preds, [["hit"]])["ndcg@M"] == pytest.approx(1 / math.log2(3))


def test_ndcg_perfect_ranking_is_one():
    preds = [["a"], ["b"], ["c"]]
    assert ndcg_at_k(preds, preds, None) == pytest.approx(1.0)


def test_ndcg_empty_targets_zero():
    assert ndcg_at_k([["a"]], [], None) == 0.0


@given(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_rank_scores_bounded(pred_chars, target_chars):
    preds = [[c] for c in pred_chars]
    targets = [[c] for c in target_chars]
    assert all(0.0 <= v <= 1.0 for v in _absent_scores(preds, targets).values())
    for k in (5, None):
        assert 0.0 <= ndcg_at_k(preds, targets, k) <= 1.0
    assert all(0.0 <= v <= 1.0 for v in f1_at_5(preds, targets))


# ---------------------------------------------------------------- slot ratios


def test_duplication_ratio_one_third():
    slots = [(["a"], False), (["a"], False), (["b"], False), (["x"], True)]
    assert duplication_ratio(slots) == pytest.approx(1 / 3)


def test_duplication_counts_stem_collisions():
    slots = [(["coating"], False), (["coatings"], False)]
    assert duplication_ratio(slots) == pytest.approx(1 / 2)


def test_duplication_all_null_is_zero():
    assert duplication_ratio([(["x"], True)]) == 0.0
    assert duplication_ratio([]) == 0.0


def test_null_ratio_quarter():
    slots = [(["a"], False)] * 6 + [(["n"], True)] * 2
    assert null_ratio(slots) == pytest.approx(1 / 4)
    assert null_ratio([]) == 0.0


# ------------------------------------------------------------ source bucketing


def test_split_by_source_stemmed_contiguous_only():
    source = "the polymer coating cures fast".split()
    preds = [["polymer", "coatings"], ["polymer", "cures"], []]
    out = score_record(EvalRecord("d", preds, [["polymer", "coating"]], [["polymer", "cures"]], source))
    # present holds "polymer coatings" alone (stems match): precision 1
    assert out["present_f1@M"] == 1.0
    # "polymer cures" is not adjacent and an empty phrase is never present:
    # absent holds both, precision 1/2
    assert out["absent_f1@M"] == pytest.approx(2 / 3)


def test_split_by_source_partition():
    source = "a polymer coating layer".split()
    preds = [["polymer", "coating"], ["epoxy", "resin"], ["layer"]]
    out = score_record(EvalRecord("d", preds, [["layer"]], [["epoxy", "resin"]], source))
    # present ranks polymer coating, layer; absent holds epoxy resin alone
    assert out["present_map@M"] == pytest.approx(1 / 2)
    assert out["absent_map@M"] == 1.0


@given(
    st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc"]), min_size=1, max_size=2), max_size=6
    )
)
@settings(max_examples=50, deadline=None)
def test_split_by_source_preserves_all(preds):
    # with every prediction a target of both buckets, each bucket's recall
    # counts the distinct predictions it holds: those inside the source for
    # present, all the others for absent (these words are their own stems)
    in_source = {("aa",), ("bb",), ("aa", "bb")}
    distinct = {tuple(p) for p in preds}
    out = score_record(EvalRecord("d", preds, preds, preds, ["aa", "bb"]))
    recall = {b: out[f"{b}_f1@M"] / (2 - out[f"{b}_f1@M"]) for b in ("present", "absent")}
    assert recall["present"] * len(distinct) == pytest.approx(len(distinct & in_source))
    assert recall["absent"] * len(distinct) == pytest.approx(len(distinct - in_source))


# -------------------------------------------------------------------- reports


def _record():
    return EvalRecord(
        doc_id="d0",
        predictions=[["polymer", "coating"], ["epoxy", "resin"], ["junk"]],
        present_targets=[["polymer", "coating"]],
        absent_targets=[["epoxy", "resin"]],
        source_tokens="a polymer coating layer".split(),
        slot_outputs=[
            (["polymer", "coating"], False),
            (["epoxy", "resin"], False),
            (["junk"], False),
            (["[null]"], True),
        ],
    )


def test_score_record_hand_values():
    out = score_record(_record())
    # present bucket: preds {polymer coating} vs {polymer coating}
    assert out["present_f1@M"] == pytest.approx(1.0)
    # absent bucket: preds {epoxy resin, junk} vs {epoxy resin}
    assert out["absent_f1@M"] == pytest.approx(2 * (1 / 2) * 1 / (1 / 2 + 1))
    assert out["duplication"] == 0.0
    assert out["null_ratio"] == pytest.approx(1 / 4)


def test_evaluate_macro_is_mean():
    rows, macro = evaluate([_record(), _record()])
    assert len(rows) == 2
    assert macro["present_f1@M"] == pytest.approx(rows[0]["present_f1@M"])


def test_eval_csv_roundtrip(tmp_path):
    rows, macro = evaluate([_record()])
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rows, macro)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("doc_id,")
    assert lines[1].startswith("d0,")
    assert lines[-1].startswith("MACRO,")


def test_format_eval_table_mentions_buckets():
    _, macro = evaluate([_record()])
    table = format_eval_table(macro)
    assert "present" in table and "absent" in table and "null_ratio" in table
