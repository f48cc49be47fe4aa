"""Slot-to-target assignment for set-style decoding.

Each half of the slots (present group, absent group) is matched to its own
target list by minimum-cost bipartite assignment. The cost of giving slot n
target T is the negated sum of the probabilities the slot assigns to T's
first k tokens while free-running, with null tokens contributing nothing,
so a pure-null target costs exactly zero against every slot.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autograd import Tensor, no_grad
from .model import Model


def k_step_predict(
    model: Model, enc_states: Tensor, control: Tensor, k: int, bos_id: int,
    enc_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy free-running distributions, shape (k, R, vocab) for the R
    slot rows of ``control`` (arguments as for ``Model.decode_probs``).

    Runs outside any tape: assignment is a discrete decision, not a
    differentiated computation.
    """
    with no_grad():
        steps = model.greedy_steps(control, enc_states, bos_id, k, enc_mask)
        return np.stack([probs for probs, _ in steps])


def build_cost(dists: np.ndarray, targets: list[list[int]], null_id: int) -> np.ndarray:
    """Cost matrix (n_slots_in_group, n_targets).

    cost[n][j] = -sum_{t=1..min(k,|T_j|)} [T_j^t != null] * p_n^t(T_j^t);
    entries lie in [-k, 0].
    """
    k, n_slots, _ = dists.shape
    cost = np.zeros((n_slots, len(targets)))
    for j, tgt in enumerate(targets):
        steps = min(k, len(tgt))
        for t in range(steps):
            tok = tgt[t]
            if tok == null_id:
                continue
            cost[:, j] -= dists[t, :, tok]
    return cost


def hungarian(cost: np.ndarray) -> tuple[list[int], float]:
    """Minimum-cost assignment; returns (column per row, total cost).

    The total is accumulated in row order so equal assignments sum to
    bit-identical floats across implementations.
    """
    # imported on first use: loading scipy.optimize more than doubles the memory
    # and start-up time of a command, and only training assigns
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    ordered = list(cols[np.argsort(rows)])
    total = 0.0
    for i, c in enumerate(ordered):
        total += float(cost[i, c])
    return ordered, total


def brute_force(cost: np.ndarray) -> tuple[list[int], float]:
    """Exhaustive oracle for square costs, n <= 8.

    Permutations are tried in lexicographic order and only strictly better
    totals replace the incumbent, so ties resolve to the lexicographically
    smallest assignment.
    """
    n, m = cost.shape
    if n != m:
        raise ValueError("brute_force expects a square cost matrix")
    if n > 8:
        raise ValueError("brute_force capped at n=8")
    best_perm: tuple[int, ...] | None = None
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best = total
            best_perm = perm
    assert best_perm is not None
    return list(best_perm), float(best)


def assign_groups(
    dists: np.ndarray,
    present_ids: list[list[int]],
    absent_ids: list[list[int]],
    null_id: int,
) -> list[int]:
    """Target index per slot (present targets for the first half of the
    slots, absent for the second; indices are into the concatenated list)."""
    _, N, _ = dists.shape
    half = N // 2
    if len(present_ids) != half or len(absent_ids) != half:
        raise ValueError("each group needs exactly N/2 targets")
    out: list[int] = []
    cost_p = build_cost(dists[:, :half, :], present_ids, null_id)
    perm_p, _ = hungarian(cost_p)
    out.extend(perm_p)
    cost_a = build_cost(dists[:, half:, :], absent_ids, null_id)
    perm_a, _ = hungarian(cost_a)
    out.extend(half + j for j in perm_a)
    return out
