import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp.metrics import (
    EvalRecord,
    dedup_by_stem,
    drop_exact,
    duplication_ratio,
    evaluate,
    f1_at_5,
    f1_at_m,
    format_eval_table,
    map_at_k,
    ndcg_at_k,
    null_ratio,
    porter_stem,
    score_record,
    split_by_source,
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


def test_dedup_by_stem_keeps_first():
    phrases = [["coating"], ["coatings"], ["resin"], ["coating"]]
    assert dedup_by_stem(phrases) == [["coating"], ["resin"]]


@given(
    st.lists(
        st.lists(st.sampled_from(["cat", "cats", "dog", "run", "running"]), min_size=1, max_size=3),
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_dedup_by_stem_no_stem_dupes(phrases):
    out = dedup_by_stem(phrases)
    keys = [stem_tokens(p) for p in out]
    assert len(keys) == len(set(keys))
    # order preserved: out is a subsequence of phrases
    it = iter(phrases)
    assert all(any(p == q for q in it) for p in out)


# ----------------------------------------------------------------- set scores


def test_f1_at_5_two_sevenths():
    # 1 match, 2 targets: precision 1/5 after padding, recall 1/2
    preds = [["polymer", "coating"], ["junk"]]
    targets = [["polymer", "coating"], ["epoxy", "resin"]]
    prec, rec, f1 = f1_at_5(preds, targets)
    assert prec == pytest.approx(1 / 5)
    assert rec == pytest.approx(1 / 2)
    assert f1 == pytest.approx(2 / 7)


def test_f1_at_5_truncates_to_five():
    preds = [["w%d" % i] for i in range(8)] + [["hit"]]
    _, rec, _ = f1_at_5(preds, [["hit"]])
    assert rec == 0.0  # the match sits past rank 5


def test_f1_at_5_matches_by_stem():
    prec, rec, f1 = f1_at_5([["coatings"]], [["coating"]])
    assert (prec, rec) == (pytest.approx(1 / 5), pytest.approx(1.0))


def test_f1_at_m_four_sevenths():
    preds = [["a"], ["b"], ["c"]]
    targets = [["a"], ["b"], ["x"], ["y"]]
    prec, rec, f1 = f1_at_m(preds, targets)
    assert prec == pytest.approx(2 / 3)
    assert rec == pytest.approx(1 / 2)
    assert f1 == pytest.approx(4 / 7)


def test_f1_at_m_dedups_before_scoring():
    # "coating" and "coatings" collapse: one prediction, one match
    prec, rec, f1 = f1_at_m([["coating"], ["coatings"]], [["coating"]])
    assert (prec, rec, f1) == (1.0, 1.0, 1.0)


def test_f1_empty_cases():
    assert f1_at_m([], [["a"]]) == (0.0, 0.0, 0.0)
    assert f1_at_m([["a"]], []) == (0.0, 0.0, 0.0)
    assert f1_at_5([], []) == (0.0, 0.0, 0.0)


def test_map_five_sixths():
    preds = [["a"], ["miss"], ["b"]]
    targets = [["a"], ["b"]]
    # hits at ranks 1 and 3: (1/1 + 2/3) / 2
    assert map_at_k(preds, targets, None) == pytest.approx(5 / 6)


def test_map_at_5_denominator_is_min():
    # 6 targets but cutoff 5: a perfect top-5 scores 1.0
    targets = [[c] for c in "abcdef"]
    preds = [[c] for c in "abcde"]
    assert map_at_k(preds, targets, 5) == pytest.approx(1.0)


def test_ndcg_one_over_log2_three():
    # single target found at rank 2: dcg 1/log2(3), ideal 1
    preds = [["miss"], ["hit"]]
    assert ndcg_at_k(preds, [["hit"]], None) == pytest.approx(1 / math.log2(3))


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
    for k in (5, None):
        assert 0.0 <= map_at_k(preds, targets, k) <= 1.0
        assert 0.0 <= ndcg_at_k(preds, targets, k) <= 1.0
    for fn in (f1_at_5, f1_at_m):
        p, r, f = fn(preds, targets)
        assert 0.0 <= f <= 1.0 and 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0


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
    present, absent = split_by_source(preds, source)
    assert present == [["polymer", "coatings"]]  # stems match
    assert absent == [["polymer", "cures"], []]  # not adjacent; empty is never present


def test_split_by_source_partition():
    source = "a polymer coating layer".split()
    preds = [["polymer", "coating"], ["epoxy", "resin"], ["layer"]]
    present, absent = split_by_source(preds, source)
    assert present == [["polymer", "coating"], ["layer"]]
    assert absent == [["epoxy", "resin"]]


@given(
    st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc"]), min_size=1, max_size=2), max_size=6
    )
)
@settings(max_examples=50, deadline=None)
def test_split_by_source_preserves_all(preds):
    source = ["aa", "bb"]
    present, absent = split_by_source(preds, source)
    assert sorted(map(tuple, present + absent)) == sorted(map(tuple, preds))


def test_drop_exact_token_identical_only():
    preds = [["polymer"], ["polymers"], ["coating"]]
    kept = drop_exact(preds, [["polymer"]])
    # stem-equal but not token-identical survives
    assert kept == [["polymers"], ["coating"]]


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
