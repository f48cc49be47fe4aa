import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkp.assignment import assign_groups, brute_force, build_cost, hungarian, k_step_predict
from setkp.corpus import Vocabulary
from setkp.model import Model, ModelConfig
from setkp.synth import synth_corpus

# --------------------------------------------------------------- cost matrix


def test_build_cost_hand_case():
    # k=2, 2 slots, vocab 4; targets: [2,3], [null]
    dists = np.zeros((2, 2, 4))
    dists[0, 0, 2] = 0.9  # slot 0 step 1 likes token 2
    dists[1, 0, 3] = 0.8
    dists[0, 1, 2] = 0.1
    dists[1, 1, 3] = 0.2
    null_id = 1
    cost = build_cost(dists, [[2, 3], [null_id]], null_id)
    assert cost[0, 0] == pytest.approx(-(0.9 + 0.8))
    assert cost[1, 0] == pytest.approx(-(0.1 + 0.2))
    assert cost[0, 1] == 0.0  # null steps contribute nothing
    assert cost[1, 1] == 0.0


def test_build_cost_truncates_to_k():
    dists = np.full((1, 1, 3), 0.5)  # k=1
    cost = build_cost(dists, [[2, 2, 2, 2]], null_id=0)
    assert cost[0, 0] == pytest.approx(-0.5)


def test_build_cost_skips_null_positions_inside_target():
    dists = np.full((2, 1, 3), 0.25)
    cost = build_cost(dists, [[0, 2]], null_id=0)  # first step is null
    assert cost[0, 0] == pytest.approx(-0.25)


def test_build_cost_bounds():
    rng = np.random.default_rng(0)
    dists = rng.dirichlet(np.ones(5), size=(3, 4))  # (k=3, slots=4, vocab=5)
    targets = [[1, 2, 3], [4], [0], [2, 2]]
    cost = build_cost(dists, targets, null_id=0)
    assert (cost <= 0).all() and (cost >= -3).all()


# ----------------------------------------------------------------- hungarian


def test_hungarian_identity_case():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    perm, total = hungarian(cost)
    assert perm == [0, 1] and total == 0.0


def test_hungarian_swap_case():
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    perm, total = hungarian(cost)
    assert perm == [1, 0] and total == 0.0


def test_brute_force_requires_square():
    with pytest.raises(ValueError):
        brute_force(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        brute_force(np.zeros((9, 9)))


def test_hungarian_matches_brute_force_cost():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        for _ in range(40):
            cost = rng.uniform(-4, 0, size=(n, n))
            perm_h, total_h = hungarian(cost)
            perm_b, total_b = brute_force(cost)
            assert total_h == pytest.approx(total_b, abs=1e-12)
            assert sorted(perm_h) == list(range(n))


def test_degenerate_ties_agree_on_cost():
    # all-equal costs: any permutation is optimal
    cost = np.zeros((4, 4))
    perm_h, total_h = hungarian(cost)
    perm_b, total_b = brute_force(cost)
    assert total_h == total_b == 0.0
    assert sorted(perm_h) == sorted(perm_b) == list(range(4))


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hungarian_optimal_under_random_costs(n, seed):
    cost = np.random.default_rng(seed).normal(size=(n, n))
    _, total_h = hungarian(cost)
    _, total_b = brute_force(cost)
    assert total_h == pytest.approx(total_b, abs=1e-12)


@pytest.mark.parametrize("bad, where", [(np.nan, "cost[1, 2] is nan"), (-np.inf, "cost[1, 2] is -inf")])
def test_hungarian_rejects_nan_and_negative_infinity(bad, where):
    cost = np.zeros((3, 3))
    cost[1, 2] = bad
    with pytest.raises(ValueError, match=re.escape(where)):
        hungarian(cost)


@pytest.mark.parametrize("cost", [
    [[np.inf, np.inf], [0.0, 1.0]],  # a row with no finite entry
    [[1.0, np.inf], [2.0, np.inf]],  # both rows need column 0
])
def test_hungarian_rejects_infeasible_costs(cost):
    with pytest.raises(ValueError, match="infeasible"):
        hungarian(np.array(cost))


def test_hungarian_routes_around_forbidden_pairs():
    perm, total = hungarian(np.array([[np.inf, 1.0], [2.0, np.inf]]))
    assert perm == [1, 0] and total == 3.0


def test_hungarian_empty_matrix():
    assert hungarian(np.zeros((0, 0))) == ([], 0.0)


def test_hungarian_rejects_tall_matrices():
    with pytest.raises(ValueError, match="more rows than columns"):
        hungarian(np.zeros((3, 2)))


def _oracle_costs(rng, n, m):
    """Uniform, tie-heavy integer, zero-column and repeated-column costs."""
    uniform = rng.uniform(-4.0, 0.0, size=(n, m))
    integer = rng.integers(-2, 2, size=(n, m)).astype(float)
    zero_cols = uniform.copy()
    zero_cols[:, rng.random(m) < 0.5] = 0.0  # pure-null targets cost exactly zero
    repeated = uniform[:, rng.integers(0, m, size=m)]
    small = rng.integers(0, 3, size=(n, m)).astype(float)
    small[:, rng.random(m) < 0.4] = 0.0
    return uniform, integer, zero_cols, repeated, small


def test_hungarian_returns_scipys_assignment_ties_included():
    # 6,400 matrices: n = 1..8 rows, square and wide
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(14)
    for n in range(1, 9):
        for m in (n, n, n + 1, n + 3):
            for _ in range(40):
                for cost in _oracle_costs(rng, n, m):
                    _, cols = linear_sum_assignment(cost)
                    perm, total = hungarian(cost)
                    assert perm == cols.tolist(), cost
                    assert total == sum(float(cost[i, j]) for i, j in enumerate(perm))


# -------------------------------------------------------------- group split


def _small_model():
    docs = synth_corpus(0, 2)
    vocab = Vocabulary.build(docs)
    cfg = ModelConfig(
        vocab_size=len(vocab), d=16, n_heads=2, n_slots=4, n_control_keywords=1, ffn_width=32
    )
    return Model.fresh(cfg, seed=0), vocab, docs


def test_assign_groups_respects_halves():
    model, vocab, docs = _small_model()
    enc = model.encode([vocab.encode(docs[0].segments[0].tokens)])
    control = model.control_rows([None] * 4)
    dists = k_step_predict(model, enc, control, k=2, bos_id=vocab.bos_id)
    present = [[5], [vocab.null_id]]
    absent = [[7], [vocab.null_id]]
    order = assign_groups(dists, present, absent, vocab.null_id)
    assert sorted(order[:2]) == [0, 1]  # present slots pick present targets
    assert sorted(order[2:]) == [2, 3]  # absent slots pick shifted indices


def test_assign_groups_rejects_wrong_sizes():
    model, vocab, docs = _small_model()
    dists = np.zeros((2, 4, len(vocab)))
    with pytest.raises(ValueError):
        assign_groups(dists, [[1]], [[2], [3]], vocab.null_id)


def test_assign_groups_prefers_matching_slot():
    # craft dists so slot 1 loves target 0 and slot 0 loves target 1
    vocab_size, null_id = 10, 4
    dists = np.zeros((1, 4, vocab_size))
    dists[0, 0, 6] = 0.9
    dists[0, 1, 5] = 0.9
    order = assign_groups(dists, [[5], [6]], [[null_id], [null_id]], null_id)
    assert order[:2] == [1, 0]


def test_k_step_predict_shapes_and_rows():
    model, vocab, docs = _small_model()
    enc = model.encode([vocab.encode(docs[0].segments[0].tokens)])
    control = model.control_rows([None] * 4)
    dists = k_step_predict(model, enc, control, k=3, bos_id=vocab.bos_id)
    assert dists.shape == (3, 4, len(vocab))
    assert np.allclose(dists.sum(axis=2), 1.0)


def test_k_step_predict_is_deterministic():
    model, vocab, docs = _small_model()
    enc = model.encode([vocab.encode(docs[0].segments[0].tokens)])
    control = model.control_rows([None] * 4)
    a = k_step_predict(model, enc, control, k=2, bos_id=vocab.bos_id)
    b = k_step_predict(model, enc, control, k=2, bos_id=vocab.bos_id)
    assert np.array_equal(a, b)


def test_k_step_predict_matches_full_recompute():
    # the cached steps equal a loop that re-decodes the whole prefix
    model, vocab, docs = _small_model()
    enc = model.encode([vocab.encode(docs[0].segments[0].tokens)])
    control = model.control_rows([None, [5], None, None])
    k = 4
    dists = k_step_predict(model, enc, control, k=k, bos_id=vocab.bos_id)
    prev = np.full((4, 1), vocab.bos_id, dtype=np.intp)
    for t in range(k):
        step = model.decode_probs(prev, control, enc).data.reshape(4, t + 1, -1)[:, t]
        np.testing.assert_allclose(dists[t], step, rtol=0, atol=1e-12)
        assert np.array_equal(dists[t].argmax(axis=1), step.argmax(axis=1))
        prev = np.concatenate([prev, step.argmax(axis=1)[:, None]], axis=1)
