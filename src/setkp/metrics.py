"""Stemming, set/ranking metrics, and the evaluation report.

Matching is always on stemmed token sequences: a prediction and a target
count as equal when their per-token Porter stems agree. F1@5 pads the
prediction list to exactly five with sentinel entries that can never match;
@M variants use the full (deduplicated) prediction list.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, TypeVar

from .corpus import _contains_run

T = TypeVar("T")


class _Porter:
    """Porter (1980) stemmer, steps 1a-5b, original suffix tables."""

    def __init__(self):
        self.b = ""
        self.k = 0
        self.j = 0

    def _cons(self, i: int) -> bool:
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return True if i == 0 else not self._cons(i - 1)
        return True

    def _m(self) -> int:
        """Number of VC sequences in b[0..j]."""
        n = 0
        i = 0
        while True:
            if i > self.j:
                return n
            if not self._cons(i):
                break
            i += 1
        i += 1
        while True:
            while True:
                if i > self.j:
                    return n
                if self._cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self._cons(i):
                    break
                i += 1
            i += 1

    def _vowel_in_stem(self) -> bool:
        return any(not self._cons(i) for i in range(self.j + 1))

    def _doublec(self, j: int) -> bool:
        return j >= 1 and self.b[j] == self.b[j - 1] and self._cons(j)

    def _cvc(self, i: int) -> bool:
        if i < 2 or not self._cons(i) or self._cons(i - 1) or not self._cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def _ends(self, s: str) -> bool:
        n = len(s)
        if n > self.k + 1 or self.b[self.k + 1 - n : self.k + 1] != s:
            return False
        self.j = self.k - n
        return True

    def _setto(self, s: str) -> None:
        self.b = self.b[: self.j + 1] + s
        self.k = self.j + len(s)

    def _r(self, s: str) -> None:
        if self._m() > 0:
            self._setto(s)

    def _step1ab(self) -> None:
        if self.b[self.k] == "s":
            if self._ends("sses"):
                self.k -= 2
            elif self._ends("ies"):
                self._setto("i")
            elif self.b[self.k - 1] != "s":
                self.k -= 1
        if self._ends("eed"):
            if self._m() > 0:
                self.k -= 1
        elif (self._ends("ed") or self._ends("ing")) and self._vowel_in_stem():
            self.k = self.j
            if self._ends("at"):
                self._setto("ate")
            elif self._ends("bl"):
                self._setto("ble")
            elif self._ends("iz"):
                self._setto("ize")
            elif self._doublec(self.k):
                self.k -= 1
                if self.b[self.k] in "lsz":
                    self.k += 1
            elif self._m() == 1 and self._cvc(self.k):
                self._setto("e")

    def _step1c(self) -> None:
        if self._ends("y") and self._vowel_in_stem():
            self.b = self.b[: self.k] + "i" + self.b[self.k + 1 :]

    _STEP2 = {
        "a": (("ational", "ate"), ("tional", "tion")),
        "c": (("enci", "ence"), ("anci", "ance")),
        "e": (("izer", "ize"),),
        "l": (("abli", "able"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous")),
        "o": (("ization", "ize"), ("ation", "ate"), ("ator", "ate")),
        "s": (("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous")),
        "t": (("aliti", "al"), ("iviti", "ive"), ("biliti", "ble")),
    }

    _STEP3 = {
        "e": (("icate", "ic"), ("ative", ""), ("alize", "al")),
        "i": (("iciti", "ic"),),
        "l": (("ical", "ic"), ("ful", "")),
        "s": (("ness", ""),),
    }

    def _step23(self, table, key_offset: int) -> None:
        for suffix, repl in table.get(self.b[self.k - key_offset], ()):
            if self._ends(suffix):
                self._r(repl)
                return

    _STEP4 = {
        "a": ("al",),
        "c": ("ance", "ence"),
        "e": ("er",),
        "i": ("ic",),
        "l": ("able", "ible"),
        "n": ("ant", "ement", "ment", "ent"),
        "o": ("ion", "ou"),
        "s": ("ism",),
        "t": ("ate", "iti"),
        "u": ("ous",),
        "v": ("ive",),
        "z": ("ize",),
    }

    def _step4(self) -> None:
        for suffix in self._STEP4.get(self.b[self.k - 1], ()):
            if self._ends(suffix):
                if suffix == "ion" and (self.j < 0 or self.b[self.j] not in "st"):
                    continue
                if self._m() > 1:
                    self.k = self.j
                return

    def _step5(self) -> None:
        self.j = self.k
        if self.b[self.k] == "e":
            a = self._m()
            if a > 1 or (a == 1 and not self._cvc(self.k - 1)):
                self.k -= 1
        if self.b[self.k] == "l" and self._doublec(self.k) and self._m() > 1:
            self.k -= 1

    def stem(self, word: str) -> str:
        if len(word) <= 2:
            return word
        self.b = word
        self.k = len(word) - 1
        self.j = 0
        self._step1ab()
        self._step1c()
        self._step23(self._STEP2, 1)  # dispatch on penultimate letter
        self._step23(self._STEP3, 0)  # dispatch on final letter
        self._step4()
        self._step5()
        return self.b[: self.k + 1]


@functools.lru_cache(maxsize=1 << 16)
def porter_stem(word: str) -> str:
    """Stem one lowercase word; anything non-alphabetic passes through.

    Each call stems on its own ``_Porter`` state, so concurrent calls from
    several threads never interfere.
    """
    if not word.isascii() or not word.isalpha():
        return word
    return _Porter().stem(word)


def stem_tokens(tokens: list[str]) -> tuple[str, ...]:
    return tuple(porter_stem(t) for t in tokens)


def first_wins(items: Iterable[T], key: Callable[[T], Hashable],
               seen: set | None = None) -> list[T]:
    """Items in order, less each one whose key an earlier item or ``seen``
    already holds; ``seen`` gains the key of every item kept."""
    seen = set() if seen is None else seen
    out = []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


def dedup_by_stem(phrases: list[list[str]]) -> list[list[str]]:
    """Keep first occurrence of each stemmed form, preserving order."""
    return first_wins(phrases, stem_tokens)


def _match_sets(preds: list[list[str]], targets: list[list[str]]):
    pset = [stem_tokens(p) for p in dedup_by_stem(preds)]
    tset = {stem_tokens(t) for t in targets}
    return pset, tset


def f1_at_m(preds: list[list[str]], targets: list[list[str]]) -> tuple[float, float, float]:
    """(precision, recall, f1) over the whole deduplicated prediction list."""
    pset, tset = _match_sets(preds, targets)
    matches = sum(1 for p in pset if p in tset)
    prec = matches / len(pset) if pset else 0.0
    rec = matches / len(tset) if tset else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f1


def f1_at_5(preds: list[list[str]], targets: list[list[str]]) -> tuple[float, float, float]:
    """Top five after dedup, padded to exactly five with unmatched sentinels."""
    pset, tset = _match_sets(preds, targets)
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


def map_at_k(preds: list[list[str]], targets: list[list[str]], k: int | None) -> float:
    """Average precision at cutoff k, normalized by min(|targets|, k)."""
    pset, tset = _match_sets(preds, targets)
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


def ndcg_at_k(preds: list[list[str]], targets: list[list[str]], k: int | None) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discounts."""
    import math

    pset, tset = _match_sets(preds, targets)
    if k is None:
        k = len(pset)
    if not tset or k == 0:
        return 0.0
    dcg = sum(
        1.0 / math.log2(r + 1)
        for r, p in enumerate(pset[:k], start=1)
        if p in tset
    )
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(tset), k) + 1))
    return dcg / ideal if ideal else 0.0


def duplication_ratio(slot_outputs: list[tuple[list[str], bool]]) -> float:
    """1 - distinct/total over non-null slot outputs (stemmed); 0 when none."""
    non_null = [toks for toks, is_null in slot_outputs if not is_null]
    if not non_null:
        return 0.0
    distinct = len({stem_tokens(t) for t in non_null})
    return 1.0 - distinct / len(non_null)


def null_ratio(slot_outputs: list[tuple[list[str], bool]]) -> float:
    if not slot_outputs:
        return 0.0
    return sum(1 for _, is_null in slot_outputs if is_null) / len(slot_outputs)


def split_by_source(preds: list[list[str]], source: list[str]) -> tuple[list[list[str]], list[list[str]]]:
    """Predictions into (present, absent) buckets by stemmed containment."""
    stems = stem_tokens(source)
    present, absent = [], []
    for p in preds:
        (present if _contains_run(stems, stem_tokens(p)) else absent).append(p)
    return present, absent


def drop_exact(preds: list[list[str]], spans: list[list[str]]) -> list[list[str]]:
    """Remove predictions token-identical to any span (padding-keyword removal)."""
    blocked = {tuple(s) for s in spans}
    return [p for p in preds if tuple(p) not in blocked]


# ------------------------------------------------------------------- reports


@dataclass(slots=True)
class EvalRecord:
    doc_id: str
    predictions: list[list[str]]  # confidence-ordered
    present_targets: list[list[str]]
    absent_targets: list[list[str]]
    source_tokens: list[str]
    slot_outputs: list[tuple[list[str], bool]] = field(default_factory=list)


_SCORE_KEYS = ("f1@5", "f1@M", "map@5", "map@M", "ndcg@5", "ndcg@M")


def _bucket_scores(preds, targets) -> dict[str, float]:
    return {
        "f1@5": f1_at_5(preds, targets)[2],
        "f1@M": f1_at_m(preds, targets)[2],
        "map@5": map_at_k(preds, targets, 5),
        "map@M": map_at_k(preds, targets, None),
        "ndcg@5": ndcg_at_k(preds, targets, 5),
        "ndcg@M": ndcg_at_k(preds, targets, None),
    }


def score_record(rec: EvalRecord) -> dict[str, float]:
    pred_present, pred_absent = split_by_source(rec.predictions, rec.source_tokens)
    out = {}
    for bucket, preds, targets in (
        ("present", pred_present, rec.present_targets),
        ("absent", pred_absent, rec.absent_targets),
    ):
        for k, v in _bucket_scores(preds, targets).items():
            out[f"{bucket}_{k}"] = v
    out["duplication"] = duplication_ratio(rec.slot_outputs)
    out["null_ratio"] = null_ratio(rec.slot_outputs)
    return out


def evaluate(records: list[EvalRecord]) -> tuple[list[dict], dict[str, float]]:
    """Per-document score rows plus the macro mean over documents."""
    rows = []
    for rec in records:
        row: dict = {"doc_id": rec.doc_id}
        row.update(score_record(rec))
        rows.append(row)
    keys = [k for k in rows[0] if k != "doc_id"] if rows else []
    macro = {k: sum(r[k] for r in rows) / len(rows) for k in keys} if rows else {}
    return rows, macro


def write_eval_csv(path: str | Path, rows: list[dict], macro: dict[str, float]) -> None:
    keys = [k for k in rows[0] if k != "doc_id"] if rows else list(macro)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["doc_id"] + keys)
        for r in rows:
            w.writerow([r["doc_id"]] + [f"{r[k]:.4f}" for k in keys])
        w.writerow(["MACRO"] + [f"{macro[k]:.4f}" for k in keys])


def format_eval_table(macro: dict[str, float]) -> str:
    lines = []
    header = f"{'bucket':<10}" + "".join(f"{k:>9}" for k in _SCORE_KEYS)
    lines.append(header)
    for bucket in ("present", "absent"):
        vals = "".join(f"{macro[f'{bucket}_{k}']:>9.4f}" for k in _SCORE_KEYS)
        lines.append(f"{bucket:<10}{vals}")
    lines.append(
        f"{'slots':<10}duplication={macro['duplication']:.4f}  "
        f"null_ratio={macro['null_ratio']:.4f}"
    )
    return "\n".join(lines)
