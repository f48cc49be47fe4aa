"""Greedy slot decoding, prediction filtering, and multi-level portraits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, no_grad
from .corpus import (
    KeywordSpan,
    MultiLevelDocument,
    Vocabulary,
    derive_keywords,
    read_jsonl,
    tokenize,
)
from .metrics import duplication_ratio, null_ratio, stem_tokens
from .model import Model
from .training import control_ids_for

PROMPT_PREFIX = "keyphrases from higher-level: "
PROMPT_INFIX = " [sep] find keyphrases from: "


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
    enc_states: Tensor,
    control: Tensor,
) -> list[SlotPrediction]:
    """Decode every slot greedily from BOS until EOS or ``max_kp_len`` steps
    (``Model.greedy_steps``), stopping once every slot has emitted EOS.

    A slot is null iff its first emitted token is the null marker; confidence
    is the mean probability of its emitted tokens. Returns slot order.
    """
    n = model.cfg.n_slots
    done = [False] * n
    emitted: list[list[int]] = [[] for _ in range(n)]
    probs: list[list[float]] = [[] for _ in range(n)]
    with no_grad():
        for step in model.greedy_steps(control, enc_states, vocab.bos_id, model.cfg.max_kp_len):
            for i, tok in enumerate(step.argmax(axis=1).tolist()):
                if done[i]:
                    continue  # a finished slot's later steps are discarded
                if tok == vocab.eos_id:
                    done[i] = True
                else:
                    emitted[i].append(tok)
                    probs[i].append(float(step[i, tok]))
            if all(done):
                break

    return [
        SlotPrediction(
            tokens=[vocab.tokens[t] for t in toks if t != vocab.null_id],
            is_null=bool(toks) and toks[0] == vocab.null_id,
            group="present" if i < n // 2 else "absent",
            confidence=float(np.mean(ps)) if ps else 0.0,
            slot=i,
        )
        for i, (toks, ps) in enumerate(zip(emitted, probs))
    ]


def filter_predictions(
    slots: list[SlotPrediction],
    padding_keywords: list[list[str]] | None = None,
) -> list[SlotPrediction]:
    """Null/empty removal, padding-keyword elimination, stem dedup.

    ``padding_keywords`` drops predictions token-identical to any listed
    span. Stem-level duplicates keep the highest-confidence instance;
    output is confidence-descending.
    """
    kept = [s for s in slots if not s.is_null and s.tokens]
    if padding_keywords:
        banned = {tuple(sp) for sp in padding_keywords}
        kept = [s for s in kept if tuple(s.tokens) not in banned]
    kept.sort(key=lambda s: (-s.confidence, s.slot))
    seen: set[tuple[str, ...]] = set()
    out = []
    for s in kept:
        key = tuple(stem_tokens(s.tokens))
        if key in seen:
            continue
        seen.add(key)
        out.append(s)
    return out


def padding_keyword_spans(doc: MultiLevelDocument) -> list[list[str]]:
    """Document-level padding-keyword pool for evaluation-time elimination:
    keyword spans shared with the present keyphrases, minus spans equal to a
    keyphrase itself (those are legitimate predictions)."""
    present, _ = doc.keyphrase_tokens()
    exact = {tuple(p) for p in present}
    spans = derive_keywords(doc.all_tokens(), present)
    return [sp.tokens for sp in spans if tuple(sp.tokens) not in exact]


def _encode_and_tag(model: Model, vocab: Vocabulary,
                    tokens: list[str]) -> tuple[Tensor, list[KeywordSpan]]:
    """Encoder states of the (truncated) tokens and the spans tagged on them."""
    n = model.cfg.max_encode_len
    with no_grad():
        states = model.encode(vocab.encode(tokens)[:n])
        tag_probs = model.kwe_probs(states).data
    return states, model.predict_keywords(tag_probs, tokens[:n])


def extract_keywords(model: Model, vocab: Vocabulary, tokens: list[str]) -> list[KeywordSpan]:
    """Run the tag head over raw tokens and decode spans (confidence order)."""
    return _encode_and_tag(model, vocab, tokens)[1]


def generate_for_tokens(
    model: Model,
    vocab: Vocabulary,
    tokens: list[str],
    keyword_spans: list[KeywordSpan] | None = None,
) -> tuple[list[SlotPrediction], list[KeywordSpan]]:
    """Single-input path: encode once, extract keywords from those states,
    condition the slots, decode.

    ``keyword_spans`` overrides extraction (used when the conditioning
    keywords come from a different token stream than the encoder input).
    Returns (raw slot outputs, keyword spans); filtering is the caller's job.
    """
    cfg = model.cfg
    with no_grad():
        if keyword_spans is None:
            enc, spans = _encode_and_tag(model, vocab, tokens)
        else:
            enc, spans = model.encode(vocab.encode(tokens)[: cfg.max_encode_len]), keyword_spans
        control = model.control_rows(control_ids_for(spans, cfg, vocab))
        slots = generate_slots(model, vocab, enc, control)
    return slots, spans


def slot_ratios(model: Model, vocab: Vocabulary,
                segments: list[list[str]]) -> tuple[float, float]:
    """Mean per-segment (null ratio, duplication ratio) of the raw slot outputs."""
    nulls, dups = [], []
    for tokens in segments:
        slots, _ = generate_for_tokens(model, vocab, tokens)
        outs = [(s.tokens, s.is_null) for s in slots]
        nulls.append(null_ratio(outs))
        dups.append(duplication_ratio(outs))
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


def document_portrait(
    model: Model,
    vocab: Vocabulary,
    doc: MultiLevelDocument,
    max_levels: int | None = None,
    padding_keywords: list[list[str]] | None = None,
) -> Portrait:
    """Walk the document's levels top-down, prompting each level with the
    phrases kept at the one above, deduplicating across levels by stem
    (earliest level wins).

    Level 1's prompt seeds from its own extracted keyword spans (source
    order). The same spans condition the slots, since the prompt body is the
    level's text. Per-level prompts, spans and kept entries land in
    ``levels``.
    """
    cfg = model.cfg
    segments = doc.segments if max_levels is None else doc.segments[:max_levels]
    if not segments:
        raise ValueError(f"document {doc.doc_id} has no segments")

    seen_stems: set[tuple[str, ...]] = set()
    entries: list[PortraitEntry] = []
    records: list[LevelRecord] = []
    prev_phrases: list[str] = []

    for li, seg in enumerate(segments):
        body = seg.tokens
        spans = extract_keywords(model, vocab, body)
        if li == 0:
            in_order = sorted(spans, key=lambda s: s.start)
            phrases = list(dict.fromkeys(" ".join(sp.tokens) for sp in in_order))
        else:
            phrases = prev_phrases
        toks, text = prompt_tokens(phrases, body, cfg.max_encode_len)

        slots, _ = generate_for_tokens(model, vocab, toks, keyword_spans=spans)
        kept_preds = filter_predictions(slots, padding_keywords=padding_keywords)

        kept_here: list[PortraitEntry] = []
        for p in kept_preds:
            key = tuple(stem_tokens(p.tokens))
            if key in seen_stems:
                continue
            seen_stems.add(key)
            e = PortraitEntry(tokens=p.tokens, level=seg.level,
                              group=p.group, confidence=p.confidence)
            kept_here.append(e)
            entries.append(e)

        records.append(LevelRecord(
            level=seg.level,
            prompt_text=text,
            prompt_phrases=list(phrases),
            keyword_spans=[sp.tokens for sp in spans],
            kept=kept_here,
        ))
        prev_phrases = [e.text for e in kept_here]

    return Portrait(doc_id=doc.doc_id, entries=entries, levels=records)


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
        PortraitEntry(tokens=e["text"].split(), level=int(e["level"]),
                      group=e.get("group", "present"),
                      confidence=float(e.get("confidence", 0.0)))
        for e in d["keyphrases"]
    ]
    # a level kept exactly the entries that carry its level number
    by_level_text = {(e.level, e.text): e for e in entries}
    levels = [
        LevelRecord(level=int(r["level"]), prompt_text=r["prompt_text"],
                    prompt_phrases=list(r["prompt_phrases"]),
                    keyword_spans=[list(s) for s in r["keyword_spans"]],
                    kept=[by_level_text[int(r["level"]), t] for t in r["kept"]])
        for r in d.get("levels", [])
    ]
    return Portrait(doc_id=d["id"], entries=entries, levels=levels)


def save_predictions(path, rows: list[dict]) -> None:
    """One JSON object per document (doc id, slot outputs, kept phrases)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def load_predictions(path) -> list[dict]:
    return [rec for _, rec in read_jsonl(path)]


def save_portraits(path, portraits: list[Portrait]) -> None:
    save_predictions(path, [portrait_to_dict(p) for p in portraits])


def load_portraits(path) -> list[Portrait]:
    return [portrait_from_dict(rec) for _, rec in read_jsonl(path)]
