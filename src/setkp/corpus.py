"""Document model, tokenizer, keyword derivation, and corpus I/O.

A document is a small hierarchy: segment 1 is Title+Abstract, the remaining
segments partition the Claims text at sentence boundaries. Keyphrases are
annotated per document; per-segment present/absent splits are derived by
verbatim containment. Keywords are the maximal token runs a segment shares
with its keyphrases.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

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


def _contains_run(haystack: Sequence[str], needle: Sequence[str]) -> bool:
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
        p_in = [kp for kp in ptoks if _contains_run(seg.tokens, kp)]
        p_out = [kp for kp in ptoks if not _contains_run(seg.tokens, kp)]
        a_in = [kp for kp in atoks if _contains_run(seg.tokens, kp)]
        a_out = [kp for kp in atoks if not _contains_run(seg.tokens, kp)]
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
                if _contains_run(segment, run):
                    candidates.add(tuple(run))
    maximal = [
        c
        for c in candidates
        if not any(
            c != o and len(c) < len(o) and _contains_run(list(o), list(c))
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


# ----------------------------------------------------------------- JSONL I/O

_FIELDS = ("id", "title", "abstract", "claims", "present_keyphrases", "absent_keyphrases")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, record) for every non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
            yield lineno, rec


def parse_jsonl(path: str | Path, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` of every record of a JSONL file, the one record reader of
    corpora, predictions and portraits. A field that ``parse`` finds missing
    (KeyError), a value it rejects (ValueError) or an item whose ``doc_id``
    an earlier line already has fails naming the file and line."""
    items, first_line = [], {}
    for lineno, rec in read_jsonl(path):
        try:
            item = parse(rec)
        except KeyError as e:
            raise ValueError(f"{path}:{lineno}: missing field {e.args[0]!r}") from None
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
        if item.doc_id in first_line:
            raise ValueError(f"{path}:{lineno}: document id {item.doc_id!r} "
                             f"already on line {first_line[item.doc_id]}")
        first_line[item.doc_id] = lineno
        items.append(item)
    return items


@contextlib.contextmanager
def output_file(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """The one way the program writes a file: a handle whose bytes become
    ``path``, text opened as UTF-8 with no newline translation.

    ``path`` is followed through symlinks. A regular or missing target gets
    a new sibling file, named after this process and created exclusively,
    that is fsynced and renamed onto it when the block ends; so the output
    replaces the whole target or, on any exception, is removed and leaves
    the target's bytes as they were. An existing target that is not a
    regular file, such as a pipe, a terminal or ``/dev/null``, is written in
    place: renaming over it would swap the device or pipe for a file."""
    kw = {} if binary else {"encoding": "utf-8", "newline": ""}
    b = "b" if binary else ""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w" + b, **kw) as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:  # outside the cleanup below: a name this writer did not create is not removed
        fh = open(tmp, "x" + b, **kw)
    except FileNotFoundError as e:
        raise FileNotFoundError(e.errno, e.strerror, str(path)) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, non-ASCII text as UTF-8
    characters: the encoding of every JSONL file the program writes. Each
    record streams through ``output_file``, so a record JSON cannot hold,
    such as one with a NaN or infinite number, raises ValueError naming the
    path and the 1-based record number, and leaves a regular file at the
    path as it was."""
    with output_file(path) as fh:
        for i, rec in enumerate(records, 1):
            try:
                line = json.dumps(rec, ensure_ascii=False, sort_keys=True, allow_nan=False)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: record {i}: {e}") from e
            fh.write(line + "\n")


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Rows as CSV lines ending in \\r\\n, written through ``output_file``:
    a row that fails to format leaves a regular file at the path as it was."""
    with output_file(path) as fh:
        csv.writer(fh).writerows(rows)


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


_KINDS = {str: ("a string", "strings"), bool: ("true or false", "booleans"),
          int: ("an integer", "integers"), float: ("a number", "numbers"),
          list: ("a list", "lists"), dict: ("an object", "objects")}
_REQUIRED = object()


def _is(v: Any, kind: type) -> bool:
    """A JSON value of ``kind``: ``float`` admits integers, and only
    ``bool`` admits true and false."""
    kinds = (int, float) if kind is float else kind
    return isinstance(v, bool) == (kind is bool) and isinstance(v, kinds)


def typed(rec: Any, name: str, kind: type, items: type | None = None,
          default: Any = _REQUIRED) -> Any:
    """Field ``name`` of a JSON record, checked to be a ``kind`` (a list of
    ``items``, when given): a ValueError names the field and the type it
    needs, and ``parse_jsonl`` adds the file and line. A missing field is a
    KeyError unless a ``default`` is given."""
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, not {type(rec).__name__}")
    if default is not _REQUIRED and name not in rec:
        return default
    v = rec[name]
    if not _is(v, kind) or items is not None and not all(_is(x, items) for x in v):
        raise ValueError(f"{name} must be " + (f"a list of {_KINDS[items][1]}" if items
                                              else _KINDS[kind][0]))
    return v


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


def save_jsonl(path: str | Path, docs: list[MultiLevelDocument]) -> None:
    records = []
    for d in docs:
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
        records.append(rec)
    write_jsonl(path, records)


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
