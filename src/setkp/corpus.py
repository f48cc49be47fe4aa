"""Document model: tokenizer, segments, keywords, BIO labels, vocabulary, corpus schema.

A document is a small hierarchy: segment 1 is Title+Abstract, the remaining
segments partition the Claims text at sentence boundaries. Keyphrases are
annotated per document; per-segment present/absent splits are derived by
verbatim containment. Keywords are the maximal token runs a segment shares
with its keyphrases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .io import parse_jsonl, typed, write_jsonl

DIGIT_TOKEN = "[digit]"

PAD, BOS, EOS, SEP, NULL, UNK = "[pad]", "[bos]", "[eos]", "[sep]", "[null]", "[unk]"
SPECIALS = (PAD, BOS, EOS, SEP, NULL, UNK, DIGIT_TOKEN)

# claims budget per segment; synthetic claim sentences are sized so that one
# sentence fills one segment
MAX_SEGMENT_TOKENS = 32

# bracketed specials survive tokenization verbatim; digit runs collapse
_TOKEN_RE = re.compile(r"\[(?:pad|bos|eos|sep|null|unk|digit)\]|\d+|[^\W\d_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace/punctuation (punctuation dropped),
    every maximal digit run replaced by the [digit] token."""
    out = []
    for m in _TOKEN_RE.finditer(text.lower()):
        tok = m.group(0)
        out.append(DIGIT_TOKEN if tok[0].isdigit() else tok)
    return out


def contains_run(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def _occurrences(haystack: list[str], needle: list[str]) -> list[int]:
    n = len(needle)
    return [i for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle]


@dataclass(slots=True)
class KeywordSpan:
    tokens: list[str]
    start: int  # first occurrence in the segment
    confidence: float = 1.0


@dataclass(slots=True)
class DocumentSegment:
    level: int  # 1-based; 1 = Title+Abstract
    tokens: list[str]


@dataclass(slots=True)
class KeyphraseSet:
    """Per-segment view: present occur verbatim in the segment, absent do not."""

    present: list[list[str]]
    absent: list[list[str]]


@dataclass(slots=True)
class MultiLevelDocument:
    doc_id: str
    title: str
    abstract: str
    claims: str
    present_keyphrases: list[str]
    absent_keyphrases: list[str]
    label: str | None = None
    segments: list[DocumentSegment] = field(default_factory=list)

    def all_tokens(self) -> list[str]:
        out: list[str] = []
        for seg in self.segments:
            out.extend(seg.tokens)
        return out

    def keyphrase_tokens(self) -> tuple[list[list[str]], list[list[str]]]:
        return (
            [tokenize(k) for k in self.present_keyphrases],
            [tokenize(k) for k in self.absent_keyphrases],
        )

    def segment_keyphrases(self, level: int) -> KeyphraseSet:
        """Split the document's keyphrases against one segment by containment.

        Absent pool lists the document-level absents before present phrases
        borrowed from other segments — target packing truncates from the
        tail, and the borrowed phrases are the expendable part.
        """
        seg = self.segments[level - 1]
        ptoks, atoks = self.keyphrase_tokens()
        p_in = [kp for kp in ptoks if contains_run(seg.tokens, kp)]
        p_out = [kp for kp in ptoks if not contains_run(seg.tokens, kp)]
        a_in = [kp for kp in atoks if contains_run(seg.tokens, kp)]
        a_out = [kp for kp in atoks if not contains_run(seg.tokens, kp)]
        return KeyphraseSet(present=p_in + a_in, absent=a_out + p_out)


def split_claims(claims: str, max_segment_tokens: int = MAX_SEGMENT_TOKENS) -> list[list[str]]:
    """Greedy packing of claim sentences into segments of bounded length.

    Sentences end at '.' or ';'. A sentence longer than the budget is
    hard-split into budget-sized chunks.
    """
    if max_segment_tokens < 32:
        raise ValueError("max_segment_tokens must be >= 32")
    sentences = [tokenize(s) for s in re.split(r"[.;]", claims)]
    sentences = [s for s in sentences if s]
    pieces: list[list[str]] = []
    for s in sentences:
        while len(s) > max_segment_tokens:
            pieces.append(s[:max_segment_tokens])
            s = s[max_segment_tokens:]
        if s:
            pieces.append(s)
    segments: list[list[str]] = []
    cur: list[str] = []
    for p in pieces:
        if cur and len(cur) + len(p) > max_segment_tokens:
            segments.append(cur)
            cur = []
        cur.extend(p)
    if cur:
        segments.append(cur)
    return segments


def build_segments(doc: MultiLevelDocument, max_segment_tokens: int = MAX_SEGMENT_TOKENS) -> None:
    segs = [DocumentSegment(level=1, tokens=tokenize(doc.title + " " + doc.abstract))]
    for toks in split_claims(doc.claims, max_segment_tokens):
        segs.append(DocumentSegment(level=len(segs) + 1, tokens=toks))
    doc.segments = segs


def derive_keywords(segment: list[str], keyphrases: list[list[str]]) -> list[KeywordSpan]:
    """Maximal token runs shared by the segment and any keyphrase.

    A candidate run is any contiguous sub-run of a keyphrase that occurs in
    the segment; maximal candidates (not contained in a longer candidate)
    are kept, one span per distinct token sequence, ordered by first
    occurrence in the segment.
    """
    candidates: set[tuple[str, ...]] = set()
    for kp in keyphrases:
        for i in range(len(kp)):
            for j in range(i + 1, len(kp) + 1):
                run = kp[i:j]
                if contains_run(segment, run):
                    candidates.add(tuple(run))
    maximal = [
        c
        for c in candidates
        if not any(
            c != o and len(c) < len(o) and contains_run(list(o), list(c))
            for o in candidates
        )
    ]
    spans = [
        KeywordSpan(tokens=list(c), start=_occurrences(segment, list(c))[0])
        for c in maximal
    ]
    spans.sort(key=lambda s: (s.start, s.tokens))
    return spans


O_LABEL, B_LABEL, I_LABEL = 0, 1, 2


def bio_labels(segment: list[str], spans: list[KeywordSpan]) -> list[int]:
    """Per-token O/B/I labels for every occurrence of every span.

    Conflicts between overlapping occurrences go to the longer span, then to
    the earlier start.
    """
    occs: list[tuple[int, int, list[str]]] = []  # (len, start, tokens)
    for sp in spans:
        for st in _occurrences(segment, sp.tokens):
            occs.append((len(sp.tokens), st, sp.tokens))
    occs.sort(key=lambda t: (-t[0], t[1], t[2]))
    labels = [O_LABEL] * len(segment)
    taken = [False] * len(segment)
    for length, st, _ in occs:
        if any(taken[st : st + length]):
            continue
        labels[st] = B_LABEL
        for i in range(st + 1, st + length):
            labels[i] = I_LABEL
        for i in range(st, st + length):
            taken[i] = True
    return labels


def spans_from_bio(segment: list[str], labels: list[int]) -> list[tuple[int, int]]:
    """Decode (start, end) half-open spans: B starts one, I extends it."""
    out = []
    i = 0
    while i < len(labels):
        if labels[i] == B_LABEL:
            j = i + 1
            while j < len(labels) and labels[j] == I_LABEL:
                j += 1
            out.append((i, j))
            i = j
        else:
            i += 1
    return out


# ---------------------------------------------------------------- corpus file

_FIELDS = ("id", "title", "abstract", "claims", "present_keyphrases", "absent_keyphrases")


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _document(rec: Any, max_segment_tokens: int) -> MultiLevelDocument:
    """One corpus record as a segmented document."""
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object")
    missing = [f for f in _FIELDS if f not in rec]
    if missing:
        raise ValueError(f"missing fields {missing}")
    for f in ("id", "title", "abstract"):
        typed(rec, f, str)
    if rec.get("label") is not None:
        typed(rec, "label", str)
    for f in ("present_keyphrases", "absent_keyphrases"):
        for phrase in typed(rec, f, list, items=str):
            if not tokenize(phrase):  # no target a slot could emit or an output could match
                raise ValueError(f"{f}: keyphrase {phrase!r} has no tokens")
    claims = rec["claims"]
    if _strings(claims):
        claims = "; ".join(claims)
    elif not isinstance(claims, str):
        raise ValueError("claims must be a string or a list of strings")
    doc = MultiLevelDocument(
        doc_id=rec["id"],
        title=rec["title"],
        abstract=rec["abstract"],
        claims=claims,
        present_keyphrases=rec["present_keyphrases"],
        absent_keyphrases=rec["absent_keyphrases"],
        label=rec.get("label"),
    )
    build_segments(doc, max_segment_tokens)
    return doc


def load_jsonl(path: str | Path,
               max_segment_tokens: int = MAX_SEGMENT_TOKENS) -> list[MultiLevelDocument]:
    """The documents of a corpus file."""
    return parse_jsonl(path, lambda rec: _document(rec, max_segment_tokens))


def _corpus_record(d: MultiLevelDocument) -> dict:
    """One document as a corpus record."""
    rec = {
        "id": d.doc_id,
        "title": d.title,
        "abstract": d.abstract,
        "claims": d.claims,
        "present_keyphrases": d.present_keyphrases,
        "absent_keyphrases": d.absent_keyphrases,
    }
    if d.label is not None:
        rec["label"] = d.label
    return rec


def save_jsonl(path: str | Path, docs: list[MultiLevelDocument]) -> None:
    write_jsonl(path, map(_corpus_record, docs))


# ---------------------------------------------------------------- vocabulary

# words of the decoding prompt template; always in the vocabulary
PROMPT_WORDS = ("keyphrases", "from", "higher", "level", "find")


class Vocabulary:
    """Word-level vocabulary with fixed special tokens at the front."""

    def __init__(self, tokens: list[str]):
        """Token i gets id i. A non-string entry or a token listed twice is a
        ValueError naming it: a repeat would leave an id that decodes but
        that no token encodes to."""
        self.tokens = list(tokens)
        self.index = {}
        for i, t in enumerate(self.tokens):
            if not isinstance(t, str):
                raise ValueError(f"vocabulary entry {i} is not a string: {t!r}")
            if t in self.index:
                raise ValueError(f"vocabulary token {t!r} is listed at ids {self.index[t]} and {i}")
            self.index[t] = i
        for sp in SPECIALS:
            if sp not in self.index:
                raise ValueError(f"vocabulary missing special token {sp}")
        self.pad_id = self.index[PAD]
        self.bos_id = self.index[BOS]
        self.eos_id = self.index[EOS]
        self.null_id = self.index[NULL]
        self.unk_id = self.index[UNK]

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, toks: list[str]) -> list[int]:
        unk = self.unk_id
        return [self.index.get(t, unk) for t in toks]

    @classmethod
    def build(cls, docs: list[MultiLevelDocument]) -> "Vocabulary":
        """Specials, then every corpus word (text + keyphrases) and the prompt
        words by descending frequency, ties alphabetical. A prompt word
        counts once more than the corpus holds it, which sets its place."""
        freq: dict[str, int] = {}
        for d in docs:
            for tok in d.all_tokens():
                freq[tok] = freq.get(tok, 0) + 1
            ptoks, atoks = d.keyphrase_tokens()
            for kp in ptoks + atoks:
                for tok in kp:
                    freq[tok] = freq.get(tok, 0) + 1
        for w in PROMPT_WORDS:
            freq[w] = freq.get(w, 0) + 1
        words = sorted((w for w in freq if w not in SPECIALS), key=lambda w: (-freq[w], w))
        return cls(list(SPECIALS) + words)
