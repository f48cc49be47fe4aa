"""Portrait-based classification inputs, a token-count report, and a
small multinomial classifier used as the downstream stand-in task."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import MultiLevelDocument, write_csv
from .inference import Portrait

MODES = ("original", "pure", "augmented")
SEPARATOR = ";"
TRAIN_FRAC = 0.75  # share of the labeled documents the classifier trains on


def build_input(doc: MultiLevelDocument, portrait: Portrait | None, mode: str,
                levels: set[int] | None = None) -> list[str]:
    """Assemble one classifier input's tokens.

    original: the document's own tokens at the requested levels.
    pure: portrait entries generated from those levels, ';'-separated.
    augmented: original, then ';', then the portrait tokens.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    original: list[str] = []
    for seg in doc.segments:
        if levels is None or seg.level in levels:
            original.extend(seg.tokens)
    if mode == "original":
        return original
    if portrait is None:
        raise ValueError(f"mode {mode!r} needs a portrait for {doc.doc_id}")
    ptoks = portrait.tokens_for_levels(levels)
    if mode == "pure":
        return ptoks
    return original + [SEPARATOR] + ptoks


class TokenCountClassifier:
    """Multinomial bag-of-tokens with add-one smoothing.

    Unknown tokens are ignored at classification time; ties break to the
    lexicographically smallest label. Count-based, so training order is
    irrelevant.
    """

    def __init__(self):
        self.classes: list[str] = []
        self.priors: dict[str, float] = {}
        self.token_logp: dict[str, dict[str, float]] = {}
        self.vocab: set[str] = set()

    def train(self, inputs: list[list[str]], labels: list[str]) -> None:
        if not inputs:
            raise ValueError("empty training set")
        if len(inputs) != len(labels):
            raise ValueError("inputs and labels length mismatch")
        counts: dict[str, dict[str, int]] = {}
        n_docs: dict[str, int] = {}
        for toks, lab in zip(inputs, labels):
            n_docs[lab] = n_docs.get(lab, 0) + 1
            bag = counts.setdefault(lab, {})
            for t in toks:
                bag[t] = bag.get(t, 0) + 1
                self.vocab.add(t)
        self.classes = sorted(n_docs)
        total = len(inputs)
        V = len(self.vocab)
        for lab in self.classes:
            self.priors[lab] = math.log(n_docs[lab] / total)
            bag = counts.get(lab, {})
            denom = sum(bag.values()) + V
            # empty vocabulary degrades to priors only
            self.token_logp[lab] = {
                t: math.log((bag.get(t, 0) + 1) / denom) for t in self.vocab
            }

    def classify(self, tokens: list[str]) -> str:
        if not self.classes:
            raise ValueError("classifier not trained")
        best_lab, best_score = None, -math.inf
        for lab in self.classes:
            logp = self.token_logp[lab]
            score = self.priors[lab]
            for t in tokens:
                lp = logp.get(t)
                if lp is not None:
                    score += lp
            if score > best_score:
                best_lab, best_score = lab, score
        return best_lab


def split_indices(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Seeded shuffle split shared across modes so comparisons are paired."""
    order = np.random.default_rng(seed).permutation(n).tolist()
    cut = max(int(round(n * TRAIN_FRAC)), 1)
    if cut >= n:
        cut = n - 1
    return order[:cut], order[cut:]


@dataclass(slots=True)
class ModeResult:
    mode: str
    levels: tuple[int, ...]
    accuracy: float
    majority_accuracy: float
    mean_tokens: float
    n_train: int
    n_test: int


def run_experiment(
    docs: list[MultiLevelDocument],
    portraits: dict[str, Portrait],
    modes: list[str],
    levels: set[int] | None,
    seed: int,
) -> list[ModeResult]:
    """Train/evaluate one classifier per mode on a shared seeded split.

    Majority baseline = training-majority label scored on the test half.
    Mean token count is over all documents' assembled inputs for the mode.
    """
    labeled = [d for d in docs if d.label is not None]
    if len(labeled) < 4:
        raise ValueError("need at least 4 labeled documents")
    tr_idx, te_idx = split_indices(len(labeled), seed)

    results = []
    for mode in modes:
        inputs = [
            build_input(d, portraits.get(d.doc_id), mode, levels) for d in labeled
        ]
        clf = TokenCountClassifier()
        clf.train([inputs[i] for i in tr_idx], [labeled[i].label for i in tr_idx])

        train_labels = [labeled[i].label for i in tr_idx]
        majority = min(
            sorted(set(train_labels)),
            key=lambda lab: (-train_labels.count(lab), lab),
        )
        test_labels = [labeled[i].label for i in te_idx]
        preds = [clf.classify(inputs[i]) for i in te_idx]
        acc = float(np.mean([p == y for p, y in zip(preds, test_labels)]))
        maj_acc = float(np.mean([majority == y for y in test_labels]))
        mean_tk = float(np.mean([len(inp) for inp in inputs]))
        results.append(ModeResult(
            mode=mode,
            levels=tuple(sorted(levels)) if levels else (),
            accuracy=acc,
            majority_accuracy=maj_acc,
            mean_tokens=mean_tk,
            n_train=len(tr_idx),
            n_test=len(te_idx),
        ))
    return results


def write_analysis_csv(path: str | Path, results: list[ModeResult]) -> None:
    write_csv(path, [
        ["mode", "levels", "accuracy", "majority_accuracy", "mean_tokens", "n_train", "n_test"],
        *([
            r.mode,
            ",".join(map(str, r.levels)) or "all",
            f"{r.accuracy:.4f}",
            f"{r.majority_accuracy:.4f}",
            f"{r.mean_tokens:.2f}",
            r.n_train,
            r.n_test,
        ] for r in results),
    ])


def format_analysis_table(results: list[ModeResult]) -> str:
    rows = [("mode", "levels", "acc", "majority", "#Tks")]
    for r in results:
        rows.append((
            r.mode,
            ",".join(map(str, r.levels)) or "all",
            f"{r.accuracy:.4f}",
            f"{r.majority_accuracy:.4f}",
            f"{r.mean_tokens:.2f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
