"""Batched encoding, greedy slot decoding, prediction filtering, and
multi-level portraits.

Every inference command encodes through ``encode_and_tag``: segments of
equal length share one encoder call, the keyword tagger runs once on that
call's states, and each segment is then decoded on its own states by one
``generate_slots`` call. ``portraits`` tags every level's body of every
document in one ``encode_and_tag`` pass, then runs every document's level i
before any document's level i+1, since a level's prompt needs the phrases
kept at the level above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .corpus import (
    DocumentSegment,
    KeywordSpan,
    MultiLevelDocument,
    Vocabulary,
    derive_keywords,
    tokenize,
)
from .io import parse_jsonl, typed, write_jsonl
from .metrics import duplication_ratio, first_wins, null_ratio, stem_tokens
from .model import Model
from .training import check_segment, control_ids_for

PROMPT_PREFIX = "keyphrases from higher-level: "
PROMPT_INFIX = " [sep] find keyphrases from: "
# Token rows (segments x length) per Model.encode call. Equal-length groups
# larger than this are split, which bounds the memory of a batched encode.
ENCODE_ROWS = 256


@dataclass(slots=True)
class SlotPrediction:
    """One decoded slot: surface tokens, null flag, slot group, mean token prob."""

    tokens: list[str]
    is_null: bool
    group: str  # "present" | "absent", by slot half
    confidence: float
    slot: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def generate_slots(
    model: Model,
    vocab: Vocabulary,
    enc_states: np.ndarray,
    control: np.ndarray,
) -> list[SlotPrediction]:
    """Decode every slot greedily from BOS until EOS or ``max_kp_len`` steps
    (``Model.greedy_decode``, which stops once every slot has emitted EOS),
    on the arrays of one segment's (1, S, d) states and (N, d) control rows.

    A slot's output is its tokens before its first EOS. It is null iff its
    first token is the null marker; confidence is the mean probability of
    its tokens. Returns slot order.
    """
    n, eos = model.cfg.n_slots, vocab.eos_id
    probs, tokens = model.greedy_decode(control, enc_states, vocab.bos_id, model.cfg.max_kp_len,
                                        stop_id=eos)
    chosen = np.take_along_axis(probs, tokens[:, :, None], axis=2)[:, :, 0]
    slots = []
    for i, (col, ps) in enumerate(zip(tokens.T.tolist(), chosen.T.tolist())):
        end = (col + [eos]).index(eos)
        toks, ps = col[:end], ps[:end]
        slots.append(SlotPrediction(
            tokens=[vocab.tokens[t] for t in toks if t != vocab.null_id],
            is_null=bool(toks) and toks[0] == vocab.null_id,
            group="present" if i < n // 2 else "absent",
            confidence=float(np.add.reduce(ps) / end) if end else 0.0,
            slot=i,
        ))
    return slots


def filter_predictions(
    slots: list[SlotPrediction],
    padding_keywords: list[list[str]] | None = None,
    seen: set[tuple[str, ...]] | None = None,
) -> list[SlotPrediction]:
    """Null/empty removal, padding-keyword elimination, stem dedup.

    ``padding_keywords`` drops predictions token-identical to any listed
    span. Stem-level duplicates keep the highest-confidence instance;
    output is confidence-descending. ``seen`` holds stems taken before,
    which are dropped too, and gains the stem of every prediction kept.
    """
    kept = [s for s in slots if not s.is_null and s.tokens]
    if padding_keywords:
        banned = {tuple(sp) for sp in padding_keywords}
        kept = [s for s in kept if tuple(s.tokens) not in banned]
    kept.sort(key=lambda s: (-s.confidence, s.slot))
    return first_wins(kept, lambda s: stem_tokens(s.tokens), seen)


def padding_keyword_spans(doc: MultiLevelDocument) -> list[list[str]]:
    """Document-level padding-keyword pool for evaluation-time elimination:
    keyword spans shared with the present keyphrases, minus spans equal to a
    keyphrase itself (those are legitimate predictions)."""
    present, _ = doc.keyphrase_tokens()
    exact = {tuple(p) for p in present}
    spans = derive_keywords(doc.all_tokens(), present)
    return [sp.tokens for sp in spans if tuple(sp.tokens) not in exact]


def check_encodable(doc: MultiLevelDocument, segments: Sequence[DocumentSegment],
                    max_encode_len: int) -> None:
    """Reject an empty segment of ``doc`` before any encode, with the error
    training gives; a long one is truncated to ``max_encode_len`` tokens."""
    for seg in segments:
        check_segment(doc.doc_id, seg.level, min(len(seg.tokens), max_encode_len), max_encode_len)


def encode_and_tag(
    model: Model,
    vocab: Vocabulary,
    segments: Sequence[list[str]],
    tag: bool = True,
) -> Iterator[tuple[int, np.ndarray, list[KeywordSpan] | None]]:
    """The one inference encoder path: encoder states and tagged keyword
    spans of every segment, truncated to ``max_encode_len`` tokens.

    Segments of equal length share ``Model.encode`` calls of at most
    ``ENCODE_ROWS`` token rows (one segment at least). An equal-length batch
    needs no padding mask, so every segment gets the bits of its own
    single encode. Each call's (B, S, d) states are tagged by one
    ``Model.kwe_probs`` call, whose head runs one product per segment
    (``ag.softmax_head``), so every segment's spans are those of its own
    tagging too.

    Yields (index into ``segments``, (1, S, d) states array, spans) one
    encode call at a time, so that a caller that decodes as it goes holds
    only one call's states. Spans are None when ``tag`` is false.
    """
    n = model.cfg.max_encode_len
    groups: dict[int, list[int]] = {}
    for i, tokens in enumerate(segments):
        groups.setdefault(min(len(tokens), n), []).append(i)
    for S, members in groups.items():
        # a one-row product runs as a matrix-vector product, whose bits
        # differ from those of the same row inside a larger product
        per_call = max(ENCODE_ROWS // S, 1) if S > 1 else 1
        for k in range(0, len(members), per_call):
            chunk = members[k:k + per_call]
            states = model.encode([vocab.encode(segments[i])[:n] for i in chunk])
            tags = model.kwe_probs(states).data if tag else None
            for b, i in enumerate(chunk):
                spans = None if tags is None else model.predict_keywords(tags[b], segments[i][:n])
                yield i, states.data[b : b + 1], spans


def _decode(model: Model, vocab: Vocabulary, states: np.ndarray,
            spans: list[KeywordSpan]) -> list[SlotPrediction]:
    """Slots conditioned on ``spans``, decoded on one segment's states."""
    control = model.control_rows(control_ids_for(spans, model.cfg, vocab)).data
    return generate_slots(model, vocab, states, control)


def generate_segments(
    model: Model,
    vocab: Vocabulary,
    segments: Sequence[list[str]],
) -> list[list[SlotPrediction]]:
    """Raw slot outputs of every segment, in input order.

    Each segment's slots are conditioned on the spans tagged on its own
    states and decoded by one ``generate_slots`` call, right after its
    encode call. Filtering is the caller's job.
    """
    out: list = [None] * len(segments)
    for i, states, spans in encode_and_tag(model, vocab, segments):
        out[i] = _decode(model, vocab, states, spans)
    return out


def extract_keywords(model: Model, vocab: Vocabulary, tokens: list[str]) -> list[KeywordSpan]:
    """Keyword spans of one token stream (confidence order): a batch of one
    through ``encode_and_tag``. Kept because the benchmark's tracer times it
    by name."""
    ((_, _, spans),) = encode_and_tag(model, vocab, [tokens])
    return spans


def slot_ratios(model: Model, vocab: Vocabulary,
                segments: list[list[str]]) -> tuple[float, float]:
    """Mean per-segment (null ratio, duplication ratio) of the raw slot outputs."""
    outs = [[(s.tokens, s.is_null) for s in slots]
            for slots in generate_segments(model, vocab, segments)]
    nulls = [null_ratio(o) for o in outs]
    dups = [duplication_ratio(o) for o in outs]
    return sum(nulls) / len(nulls), sum(dups) / len(dups)


# ---------------------------------------------------------------------------
# multi-level portraits


@dataclass(slots=True)
class PortraitEntry:
    """One kept keyphrase with the level and slot group it came from."""

    tokens: list[str]
    level: int
    group: str
    confidence: float

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(slots=True)
class LevelRecord:
    """What one level was prompted with and what it kept, for inspection."""

    level: int
    prompt_text: str
    prompt_phrases: list[str]
    keyword_spans: list[list[str]]
    kept: list[PortraitEntry]


@dataclass(slots=True)
class Portrait:
    doc_id: str
    entries: list[PortraitEntry]
    levels: list[LevelRecord] = field(default_factory=list)

    def tokens_for_levels(self, levels: set[int] | None = None) -> list[str]:
        """Flat token stream, ';' between entries, optionally restricted to
        entries that originated at the given levels."""
        out: list[str] = []
        for e in self.entries:
            if levels is not None and e.level not in levels:
                continue
            if out:
                out.append(";")
            out.extend(e.tokens)
        return out


def build_prompt(phrases: list[str], body: str) -> str:
    """Conditioning prefix + body; deeper levels pass the previous level's
    kept phrases, level 1 passes its own extracted keywords."""
    return PROMPT_PREFIX + ", ".join(phrases) + PROMPT_INFIX + body


def prompt_tokens(phrases: list[str], body_tokens: list[str],
                  max_len: int) -> tuple[list[str], str]:
    """Tokenized prompt, truncating the body (never the prefix) to fit."""
    text = build_prompt(phrases, " ".join(body_tokens))
    toks = tokenize(text)
    if len(toks) <= max_len:
        return toks, text
    head = tokenize(build_prompt(phrases, ""))
    kept_body = body_tokens[: max(max_len - len(head), 0)]
    text = build_prompt(phrases, " ".join(kept_body))
    return head + kept_body, text


def portraits(
    model: Model,
    vocab: Vocabulary,
    docs: Sequence[MultiLevelDocument],
    max_levels: int | None = None,
    padding_keywords: Sequence[list[list[str]] | None] | None = None,
) -> list[Portrait]:
    """Portraits of every document, built level-synchronously: every
    document's level i is encoded as one batch before any level i+1.
    Every level's body of every document is tagged first, in one
    ``encode_and_tag`` pass, so the level loop encodes only prompts.

    Each document's levels run top-down, each prompted with the phrases
    kept at the one above and deduplicated against earlier levels by stem
    (earliest level wins). Level 1's prompt seeds from its own extracted
    keyword spans (source order). A level's spans, tagged on its body,
    condition the slots decoded on its prompt. Per-level prompts, spans and
    kept entries land in ``levels``. ``padding_keywords`` holds one
    elimination pool (or None) per document.
    """
    cfg = model.cfg
    levels = [d.segments if max_levels is None else d.segments[:max_levels] for d in docs]
    for d, segs in zip(docs, levels):
        if not segs:
            raise ValueError(f"document {d.doc_id} has no segments")
        check_encodable(d, segs, cfg.max_encode_len)
    pads = padding_keywords or [None] * len(docs)
    seen: list[set[tuple[str, ...]]] = [set() for _ in docs]
    entries: list[list[PortraitEntry]] = [[] for _ in docs]
    records: list[list[LevelRecord]] = [[] for _ in docs]
    prev_phrases: list[list[str]] = [[] for _ in docs]

    spans: list[list] = [[None] * len(segs) for segs in levels]  # spans[k][li]
    where = [(k, li) for k, segs in enumerate(levels) for li in range(len(segs))]
    for j, _, sp in encode_and_tag(model, vocab, [levels[k][li].tokens for k, li in where]):
        k, li = where[j]
        spans[k][li] = sp

    for li in range(max(map(len, levels), default=0)):
        active = [k for k, segs in enumerate(levels) if li < len(segs)]
        prompts = []
        for k in active:
            if li == 0:
                in_order = sorted(spans[k][0], key=lambda s: s.start)
                phrases = list(dict.fromkeys(" ".join(sp.tokens) for sp in in_order))
            else:
                phrases = prev_phrases[k]
            prompts.append((phrases, *prompt_tokens(phrases, levels[k][li].tokens,
                                                    cfg.max_encode_len)))

        for j, states, _ in encode_and_tag(model, vocab, [p[1] for p in prompts], tag=False):
            k, (phrases, _, text) = active[j], prompts[j]
            level, level_spans = levels[k][li].level, spans[k][li]
            slots = _decode(model, vocab, states, level_spans)
            kept = [PortraitEntry(tokens=p.tokens, level=level, group=p.group,
                                  confidence=p.confidence)
                    for p in filter_predictions(slots, pads[k], seen[k])]
            entries[k].extend(kept)
            records[k].append(LevelRecord(
                level=level,
                prompt_text=text,
                prompt_phrases=list(phrases),
                keyword_spans=[sp.tokens for sp in level_spans],
                kept=kept,
            ))
            prev_phrases[k] = [e.text for e in kept]

    return [Portrait(doc_id=d.doc_id, entries=entries[k], levels=records[k])
            for k, d in enumerate(docs)]


def document_portrait(
    model: Model,
    vocab: Vocabulary,
    doc: MultiLevelDocument,
    max_levels: int | None = None,
    padding_keywords: list[list[str]] | None = None,
) -> Portrait:
    """One document's portrait: a batch of one through ``portraits``. Kept
    for the acceptance criteria, which portray one document at a time, and
    because the benchmark's tracer times it by name."""
    return portraits(model, vocab, [doc], max_levels, [padding_keywords])[0]


# ---------------------------------------------------------------------------
# serialization


def portrait_to_dict(p: Portrait) -> dict:
    d = {
        "id": p.doc_id,
        "keyphrases": [
            {"text": e.text, "level": e.level, "group": e.group,
             "confidence": round(e.confidence, 6)}
            for e in p.entries
        ],
    }
    if p.levels:
        d["levels"] = [
            {
                "level": r.level,
                "prompt_text": r.prompt_text,
                "prompt_phrases": r.prompt_phrases,
                "keyword_spans": r.keyword_spans,
                "kept": [e.text for e in r.kept],
            }
            for r in p.levels
        ]
    return d


def portrait_from_dict(d: dict) -> Portrait:
    entries = [
        PortraitEntry(tokens=typed(e, "text", str).split(), level=typed(e, "level", int),
                      group=typed(e, "group", str, default="present"),
                      confidence=float(typed(e, "confidence", float, default=0.0)))
        for e in typed(d, "keyphrases", list)
    ]
    # a level kept exactly the entries that carry its level number
    by_level_text = {(e.level, e.text): e for e in entries}

    def kept(level: int, text: str) -> PortraitEntry:
        if (level, text) not in by_level_text:
            raise ValueError(f"level {level} keeps {text!r}, which is no keyphrase of that level")
        return by_level_text[level, text]

    levels = []
    for r in typed(d, "levels", list, default=[]):
        level, spans = typed(r, "level", int), typed(r, "keyword_spans", list, items=list)
        if not all(isinstance(t, str) for s in spans for t in s):
            raise ValueError("keyword_spans must be a list of lists of strings")
        levels.append(LevelRecord(
            level=level, prompt_text=typed(r, "prompt_text", str),
            prompt_phrases=list(typed(r, "prompt_phrases", list, items=str)),
            keyword_spans=[list(s) for s in spans],
            kept=[kept(level, t) for t in typed(r, "kept", list, items=str)]))
    return Portrait(doc_id=typed(d, "id", str), entries=entries, levels=levels)


def save_portraits(path, portraits: list[Portrait]) -> None:
    write_jsonl(path, map(portrait_to_dict, portraits))


def load_portraits(path) -> list[Portrait]:
    return parse_jsonl(path, portrait_from_dict)
