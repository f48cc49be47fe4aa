"""Stemming, set/ranking metrics, and the evaluation report.

Matching is always on stemmed token sequences: a prediction and a target
count as equal when their per-token Porter stems agree, and a prediction
whose stems repeat an earlier one is dropped. F1@5 scores the top five
predictions with precision taken over five, however few there are, and no
sentinel entries (Chan et al., ACL 2019); @M variants use the whole list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, TypeVar

from .corpus import contains_run
from .io import write_csv

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
    # from a list: a tuple built from a generator is grown to its size, and
    # freed keys of that size pile up on the interpreter's tuple free list
    return tuple([porter_stem(t) for t in tokens])


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


def _distinct_stems(preds: list[list[str]]) -> list[tuple[str, ...]]:
    """Each prediction's stems, less those an earlier prediction already has."""
    return first_wins(map(stem_tokens, preds), lambda key: key)


def _hits(keys: list[tuple[str, ...]], targets: list[list[str]]) -> tuple[list[bool], int]:
    """Whether each ranked stem key is a target, and the distinct target count."""
    tset = {stem_tokens(t) for t in targets}
    return [key in tset for key in keys], len(tset)


def _prf(matches: int, n_pred: int, n_target: int) -> tuple[float, float, float]:
    """(precision, recall, f1) of ``matches`` hits over ``n_pred`` predictions."""
    prec = matches / n_pred if n_pred else 0.0
    rec = matches / n_target if n_target else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f1


def _ap(hits: list[bool], k: int, n_target: int) -> float:
    """Average precision of the first k hits, normalized by min(n_target, k)."""
    if not n_target or k == 0:
        return 0.0
    found = 0
    ap = 0.0
    for r, hit in enumerate(hits[:k], start=1):
        if hit:
            found += 1
            ap += found / r
    return ap / min(n_target, k)


def _ndcg(hits: list[bool], k: int, n_target: int) -> float:
    """Binary-relevance NDCG of the first k hits, 1/log2(rank+1) discounts."""
    if not n_target or k == 0:
        return 0.0
    dcg = sum(1.0 / math.log2(r + 1) for r, hit in enumerate(hits[:k], start=1) if hit)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(n_target, k) + 1))
    return dcg / ideal


def f1_at_5(preds: list[list[str]], targets: list[list[str]]) -> tuple[float, float, float]:
    """(precision, recall, f1) of the top five stem-distinct predictions."""
    hits, n_target = _hits(_distinct_stems(preds), targets)
    return _prf(sum(hits[:5]), 5, n_target)


def ndcg_at_k(preds: list[list[str]], targets: list[list[str]], k: int | None) -> float:
    """NDCG@k of the stem-distinct predictions; k=None ranks them all."""
    hits, n_target = _hits(_distinct_stems(preds), targets)
    return _ndcg(hits, len(hits) if k is None else k, n_target)


def duplication_ratio(slot_outputs: list[tuple[list[str], bool]]) -> float:
    """1 - distinct/total over non-null slot outputs (stemmed); 0 when none.

    A slot that emits EOS first is a non-null empty output, and all such
    outputs count as duplicates of one another."""
    non_null = [toks for toks, is_null in slot_outputs if not is_null]
    if not non_null:
        return 0.0
    distinct = len({stem_tokens(t) for t in non_null})
    return 1.0 - distinct / len(non_null)


def null_ratio(slot_outputs: list[tuple[list[str], bool]]) -> float:
    """Share of slots whose first token is the null marker; a slot that emits
    EOS first is an empty output, not a null one."""
    if not slot_outputs:
        return 0.0
    return sum(1 for _, is_null in slot_outputs if is_null) / len(slot_outputs)


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


def score_record(rec: EvalRecord) -> dict[str, float]:
    """Present/absent scores and slot ratios for one document. Each
    stem-distinct prediction is present when its stems occur as a run in the
    stemmed source; each bucket's ``_SCORE_KEYS`` come from one hit list."""
    source = stem_tokens(rec.source_tokens)
    keys: dict[str, list[tuple[str, ...]]] = {"present": [], "absent": []}
    for key in _distinct_stems(rec.predictions):
        keys["present" if contains_run(source, key) else "absent"].append(key)
    out = {}
    for bucket, targets in (("present", rec.present_targets), ("absent", rec.absent_targets)):
        hits, n_target = _hits(keys[bucket], targets)
        m = len(hits)
        scores = (_prf(sum(hits[:5]), 5, n_target)[2], _prf(sum(hits), m, n_target)[2],
                  _ap(hits, 5, n_target), _ap(hits, m, n_target),
                  _ndcg(hits, 5, n_target), _ndcg(hits, m, n_target))
        out.update((f"{bucket}_{k}", v) for k, v in zip(_SCORE_KEYS, scores))
    out["duplication"] = duplication_ratio(rec.slot_outputs)
    out["null_ratio"] = null_ratio(rec.slot_outputs)
    return out


def evaluate(records: list[EvalRecord]) -> tuple[list[dict], dict[str, float]]:
    """Per-document score rows plus the macro mean over documents."""
    rows = [{"doc_id": rec.doc_id, **score_record(rec)} for rec in records]
    keys = [k for k in rows[0] if k != "doc_id"] if rows else []
    macro = {k: sum(r[k] for r in rows) / len(rows) for k in keys}
    return rows, macro


def write_eval_csv(path: str | Path, rows: list[dict], macro: dict[str, float]) -> None:
    keys = [k for k in rows[0] if k != "doc_id"] if rows else list(macro)
    write_csv(path, [
        ["doc_id"] + keys,
        *([r["doc_id"]] + [f"{r[k]:.4f}" for k in keys] for r in rows),
        ["MACRO"] + [f"{macro[k]:.4f}" for k in keys],
    ])


def format_eval_table(macro: dict[str, float]) -> str:
    lines = [f"{'bucket':<10}" + "".join(f"{k:>9}" for k in _SCORE_KEYS)]
    for bucket in ("present", "absent"):
        vals = "".join(f"{macro[f'{bucket}_{k}']:>9.4f}" for k in _SCORE_KEYS)
        lines.append(f"{bucket:<10}{vals}")
    lines.append(
        f"{'slots':<10}duplication={macro['duplication']:.4f}  "
        f"null_ratio={macro['null_ratio']:.4f}"
    )
    return "\n".join(lines)
