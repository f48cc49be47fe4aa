import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp.analysis import (
    ModeResult,
    TokenCountClassifier,
    build_input,
    format_analysis_table,
    run_experiment,
    split_indices,
    write_analysis_csv,
)
from setkp.inference import Portrait, PortraitEntry
from setkp.synth import synth_corpus


def _portrait(doc_id, texts_by_level):
    entries = [
        PortraitEntry(tokens=t.split(), level=lv, group="present", confidence=0.5)
        for lv, texts in texts_by_level.items()
        for t in texts
    ]
    return Portrait(doc_id=doc_id, entries=entries)


# ----------------------------------------------------------------- classifier


def test_classifier_two_class_oracle():
    # hand-computed multinomial posterior with add-one smoothing:
    # vocab {a,b}, class x: counts a=2; class y: counts b=2
    # p(a|x) = 3/4, p(b|x) = 1/4, p(a|y) = 1/4, p(b|y) = 3/4, priors 1/2
    clf = TokenCountClassifier()
    clf.train([["a", "a"], ["b", "b"]], ["x", "y"])
    assert clf.token_logp["x"]["a"] == pytest.approx(math.log(3 / 4))
    assert clf.token_logp["x"]["b"] == pytest.approx(math.log(1 / 4))
    assert clf.priors["x"] == pytest.approx(math.log(0.5))
    assert clf.classify(["a"]) == "x"
    assert clf.classify(["b", "b", "a"]) == "y"


def test_classifier_unknown_tokens_fall_to_prior():
    clf = TokenCountClassifier()
    clf.train([["a"], ["b"], ["b"]], ["x", "y", "y"])
    # unseen token: only priors compared, y has the larger one
    assert clf.classify(["zzz"]) == "y"


def test_classifier_tie_breaks_lexicographically():
    clf = TokenCountClassifier()
    clf.train([["a"], ["a"]], ["y", "x"])
    # identical likelihoods and priors for both classes
    assert clf.classify(["a"]) == "x"


def test_classifier_order_irrelevant():
    a, b = TokenCountClassifier(), TokenCountClassifier()
    a.train([["a", "b"], ["c"]], ["x", "y"])
    b.train([["c"], ["b", "a"]], ["y", "x"])
    assert a.token_logp == b.token_logp and a.priors == b.priors


def test_classifier_input_validation():
    clf = TokenCountClassifier()
    with pytest.raises(ValueError):
        clf.train([], [])
    with pytest.raises(ValueError):
        clf.train([["a"]], ["x", "y"])
    with pytest.raises(ValueError):
        TokenCountClassifier().classify(["a"])


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_classifier_returns_known_class(tokens):
    clf = TokenCountClassifier()
    clf.train([["a", "b"], ["c", "c"], ["b"]], ["x", "y", "x"])
    assert clf.classify(tokens) in {"x", "y"}


# ---------------------------------------------------------------- input modes


def _doc():
    return synth_corpus(0, 1)[0]


def test_build_input_original_is_segment_tokens():
    doc = _doc()
    assert build_input(doc, None, "original") == [t for seg in doc.segments for t in seg.tokens]


def test_build_input_levels_restrict_original():
    doc = _doc()
    assert build_input(doc, None, "original", levels={2}) == doc.segments[1].tokens


def test_build_input_pure_uses_portrait_tokens():
    doc = _doc()
    p = _portrait(doc.doc_id, {1: ["alpha beta"], 2: ["gamma"]})
    assert build_input(doc, p, "pure") == ["alpha", "beta", ";", "gamma"]


def test_build_input_augmented_concatenates():
    doc = _doc()
    p = _portrait(doc.doc_id, {1: ["alpha"]})
    orig = build_input(doc, None, "original")
    assert build_input(doc, p, "augmented") == orig + [";", "alpha"]


def test_build_input_validation():
    doc = _doc()
    with pytest.raises(ValueError):
        build_input(doc, None, "nope")
    with pytest.raises(ValueError):
        build_input(doc, None, "pure")


# --------------------------------------------------------------------- splits


def test_split_deterministic_and_disjoint():
    a = split_indices(20, seed=7)
    b = split_indices(20, seed=7)
    assert a == b
    tr, te = a
    assert sorted(tr + te) == list(range(20))
    assert len(tr) == 15 and len(te) == 5


def test_split_seed_changes_split():
    assert split_indices(20, seed=1) != split_indices(20, seed=2)


def test_split_always_leaves_a_test_item():
    # round(2 * 0.75) = 2 training items, clamped to 1
    tr, te = split_indices(2, seed=0)
    assert len(tr) == 1 and len(te) == 1


# ----------------------------------------------------------------- experiment


def test_run_experiment_modes_and_baseline():
    docs = synth_corpus(3, 16)
    portraits = {
        d.doc_id: _portrait(
            d.doc_id, {1: [" ".join(p) for p in d.keyphrase_tokens()[0]]}
        )
        for d in docs
    }
    results = run_experiment(docs, portraits, ["original", "pure", "augmented"],
                             levels=None, seed=0)
    assert [r.mode for r in results] == ["original", "pure", "augmented"]
    for r in results:
        assert 0.0 <= r.accuracy <= 1.0
        assert 0.0 <= r.majority_accuracy <= 1.0
        assert r.n_train == 12 and r.n_test == 4
    # portraits built straight from gold keyphrases carry the topic signal
    assert results[1].accuracy >= results[1].majority_accuracy


def test_run_experiment_shared_split_pairs_modes():
    docs = synth_corpus(3, 16)
    portraits = {d.doc_id: _portrait(d.doc_id, {1: ["alpha"]}) for d in docs}
    r1 = run_experiment(docs, portraits, ["original"], None, seed=5)
    r2 = run_experiment(docs, portraits, ["original", "pure"], None, seed=5)
    assert r1[0].accuracy == r2[0].accuracy
    assert r1[0].majority_accuracy == r2[0].majority_accuracy


def test_run_experiment_needs_labels():
    docs = synth_corpus(0, 8)
    for d in docs:
        d.label = None
    with pytest.raises(ValueError):
        run_experiment(docs, {}, ["original"], None, seed=0)


# ------------------------------------------------------------------ reporting


def _results():
    return [
        ModeResult(mode="original", levels=(), accuracy=0.75, majority_accuracy=0.25,
                   mean_tokens=68.25, n_train=12, n_test=4),
        ModeResult(mode="pure", levels=(1, 2), accuracy=0.5, majority_accuracy=0.25,
                   mean_tokens=7.5, n_train=12, n_test=4),
    ]


def test_analysis_csv_layout(tmp_path):
    path = tmp_path / "a.csv"
    write_analysis_csv(path, _results())
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "mode,levels,accuracy,majority_accuracy,mean_tokens,n_train,n_test"
    assert lines[1] == "original,all,0.7500,0.2500,68.25,12,4"
    assert lines[2] == "pure,\"1,2\",0.5000,0.2500,7.50,12,4"


def test_analysis_table_format():
    table = format_analysis_table(_results())
    lines = table.splitlines()
    assert lines[0].split() == ["mode", "levels", "acc", "majority", "#Tks"]
    assert "original" in lines[1] and "0.7500" in lines[1]
