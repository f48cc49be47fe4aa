"""Slot-to-target assignment for set-style decoding.

Each half of the slots (present group, absent group) is matched to its own
target list by minimum-cost bipartite assignment. The cost of giving slot n
target T is the negated sum of the probabilities the slot assigns to T's
first k tokens while free-running, with null tokens contributing nothing,
so a pure-null target costs exactly zero against every slot.

The assignment is solved in-repo by ``hungarian``: the shortest augmenting
path algorithm of Crouse ("On implementing 2D rectangular assignment
algorithms", IEEE TAES 2016) as SciPy ships it in ``linear_sum_assignment``.
Zero-cost null targets make ties common, and checkpoint bytes depend on how
they are broken, so the port keeps SciPy's tie rule and operation order
(see ``hungarian``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Model


def k_step_predict(
    model: Model, enc_states: np.ndarray, control: np.ndarray, k: int, bos_id: int,
    enc_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy free-running distributions, shape (k, R, vocab) for the R
    slot rows of ``control`` (arrays, as for ``Model.greedy_decode``): all
    ``k`` steps of ``Model.greedy_decode``, with no stop token.

    Runs outside any tape: assignment is a discrete decision, not a
    differentiated computation.
    """
    return model.greedy_decode(control, enc_states, bos_id, k, enc_mask)[0]


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
    """Minimum-cost assignment of every row to its own column; returns
    (column per row, total cost).

    Crouse's shortest augmenting path algorithm as SciPy ships it in
    ``linear_sum_assignment``, ported step for step: the same dual updates,
    the same column scan order (``remaining`` filled from the last column
    down, swap-removed) and the same tie rule, under which a column of equal
    reduced cost replaces the incumbent only when it is unassigned. Reduced
    costs are ``((min_val + c[i][j]) - u[i]) - v[j]`` in that order, so every
    input, ties included, gets SciPy's assignment.

    NaN and -inf entries, tall matrices and matrices with no finite
    assignment raise ``ValueError``; +inf marks a forbidden pair. The total
    is accumulated in row order so equal assignments sum to bit-identical
    floats across implementations.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(f"cost matrix {cost.shape} has more rows than columns")
    valid = cost > -np.inf  # false for NaN and -inf
    if not valid.all():
        i, j = np.argwhere(~valid)[0]
        raise ValueError(f"cost[{i}, {j}] is {cost[i, j]}: entries must be finite or +inf")
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for cur in range(n_rows):
        # Dijkstra over reduced costs from the unassigned row `cur` to the
        # nearest unassigned column
        spc = [inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen: list[int] = []
        cols_seen: list[int] = []
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible: no assignment has finite cost")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    total = 0.0
    for i, j in enumerate(col4row):
        total += c[i][j]
    return col4row, total


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
