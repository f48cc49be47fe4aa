"""Three-stage training schedule with keyword-padded set targets.

Every epoch runs one body per batch: encode the batch on the tape; after
the first e1 epochs, tag keywords from those same states, build padded
target lists and control rows, and run e2 inner rounds of (assign targets,
update decoder + generation head) with the encoder frozen; then one encoder
update on the extraction loss, plus the averaged inner generation losses
when rounds ran, with the decoder frozen. Stage 1 (epochs <= e1) thus fits
the encoder and tagging head on extraction alone and never moves the
decoder. An inner loss reaches the encoder only through the encoder states,
so each round's decoder backward also takes that loss's gradient at the
states and then drops the round's graph; the encoder step seeds the states
with those gradients instead of replaying the decoder. Each backward pass
walks only the part of the tape that leads to what it differentiates.

The batch is one leading axis through the whole step: one padded encode,
one control-row gather, one free-running decode for assignment, one set of
teacher arrays and one teacher-forced decode over all B*N slot rows, and
one loss per kind over the batch, weighted so that it is the mean of the
per-segment losses. Every padded array is built by ``model.padded``.
Keyword tagging, target building and Hungarian assignment stay per
segment, on slices of the batch.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor
from .assignment import assign_groups, k_step_predict
from .corpus import (
    NULL,
    KeyphraseSet,
    KeywordSpan,
    MultiLevelDocument,
    Vocabulary,
    bio_labels,
    derive_keywords,
)
from .io import write_csv
from .model import Model, ModelConfig, padded, padding_mask
from .params import AdamW, save_checkpoint

log = logging.getLogger(__name__)

ORIGIN_GT = "ground-truth"
ORIGIN_KW = "kwp-keyword"
ORIGIN_NULL = "null"


class TrainingDiverged(RuntimeError):
    pass


@dataclass(slots=True)
class TsmtConfig:
    epochs: int = 30
    e1: int = 10  # extraction-only epochs
    e2: int = 2  # inner decoder rounds per later epoch
    lambda_null: float = 0.2
    lambda_kw: float = 0.7
    lambda_g: float = 1.0
    lr: float = 3e-4
    batch_size: int = 8
    weight_decay: float = 0.01
    seed: int = 0
    use_keyword_padding: bool = True
    probe_docs: int = 4

    def __post_init__(self):
        if not (0 < self.e1 <= self.epochs):
            raise ValueError("need 0 < e1 <= epochs")
        if self.e2 < 1:
            raise ValueError("e2 must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        for name in ("weight_decay", "lambda_null", "lambda_kw", "lambda_g"):
            if not 0 <= getattr(self, name) < math.inf:  # rejects NaN too
                raise ValueError(f"{name} must be >= 0 and finite")


@dataclass(slots=True)
class TargetEntry:
    tokens: list[str]
    ids: list[int]
    origin: str  # ground-truth | kwp-keyword | null


@dataclass(slots=True)
class TargetList:
    present: list[TargetEntry]
    absent: list[TargetEntry]

    def all(self) -> list[TargetEntry]:
        return self.present + self.absent


def kwp_build_targets(
    kps: KeyphraseSet,
    keywords: list[KeywordSpan],
    n_slots: int,
    vocab: Vocabulary,
    use_padding: bool = True,
) -> TargetList:
    """Pack each group's target list to exactly N/2 entries.

    Present group: ground-truth present keyphrases, then keyword padding
    (keywords minus single-word present keyphrases, skipping anything that
    would duplicate an entry already packed), then nulls. Absent group:
    ground-truth absent keyphrases, then nulls.
    """
    half = n_slots // 2

    def _null() -> TargetEntry:
        return TargetEntry(tokens=[NULL], ids=[vocab.null_id], origin=ORIGIN_NULL)

    def _pack_gt(phrases: list[list[str]], group: str) -> list[TargetEntry]:
        if len(phrases) > half:
            log.warning("truncating %s group from %d to %d targets", group, len(phrases), half)
        return [
            TargetEntry(tokens=list(p), ids=vocab.encode(list(p)), origin=ORIGIN_GT)
            for p in phrases[:half]
        ]

    present = _pack_gt(kps.present, "present")
    if use_padding:
        single_word_present = {p[0] for p in kps.present if len(p) == 1}
        packed = {tuple(e.tokens) for e in present}
        for kw in keywords:
            if len(present) >= half:
                break
            if len(kw.tokens) == 1 and kw.tokens[0] in single_word_present:
                continue
            key = tuple(kw.tokens)
            if key in packed:
                continue
            packed.add(key)
            present.append(
                TargetEntry(tokens=list(kw.tokens), ids=vocab.encode(list(kw.tokens)), origin=ORIGIN_KW)
            )
    while len(present) < half:
        present.append(_null())

    absent = _pack_gt(kps.absent, "absent")
    while len(absent) < half:
        absent.append(_null())
    return TargetList(present=present, absent=absent)


# -------------------------------------------------------------------- losses


def kwe_class_weights(label_seqs: list[list[int]]) -> np.ndarray:
    """Reciprocal label counts over the batch, counts floored at one."""
    counts = np.bincount([lab for seq in label_seqs for lab in seq], minlength=3)
    return 1.0 / np.maximum(counts, 1.0)


def loss_kwe(tag_probs: Tensor, labels: list[list[int]], class_weights: np.ndarray) -> Tensor:
    """Mean weighted token cross-entropy of a batch: (B, S_max, 3) tag
    distributions and B label lists, padded as ``padded`` pads them; the
    mean of its segments' losses, padding rows carrying weight 0. One
    segment is a batch of one."""
    tgt, live = padded(labels)
    w = class_weights[tgt] * live / live.sum(axis=1, keepdims=True)
    nll = ag.weighted_nll(ag.reshape(tag_probs, (-1, 3)), tgt.reshape(-1), w.reshape(-1))
    return ag.scale(nll, 1.0 / len(labels))


def teacher_arrays(
    entries: list["TargetEntry"],
    order: list[int],
    vocab: Vocabulary,
    tcfg: TsmtConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, T_max) previous-token, target, and weight arrays for teacher
    forcing, one row per entry of ``order``.

    ``order`` indexes ``entries``: one segment's N targets, or a batch's
    target lists laid end to end with each segment's order offset by its
    first entry, one segment being a batch of one. Row r is trained on
    entries[order[r]] followed by EOS; cells past a row's target hold pad_id
    with weight zero. Weights: 1 for ground truth, lambda_kw for padding
    keywords, lambda_null for nulls.
    """
    xi = {ORIGIN_GT: 1.0, ORIGIN_KW: tcfg.lambda_kw, ORIGIN_NULL: tcfg.lambda_null}
    seqs = [entries[j].ids + [vocab.eos_id] for j in order]
    prev, _ = padded([[vocab.bos_id] + seq[:-1] for seq in seqs], vocab.pad_id)
    tgt, live = padded(seqs, vocab.pad_id)
    w = live * np.array([xi[entries[j].origin] for j in order])[:, None]
    return prev, tgt, w


def loss_kg(probs: Tensor, tgt: np.ndarray, w: np.ndarray) -> Tensor:
    """Summed weighted next-token cross-entropy: one segment's generation
    loss. A batch passes its weights divided by its segment count, which
    makes this the mean of the per-segment sums."""
    return ag.weighted_nll(probs, tgt.reshape(-1), w.reshape(-1))


def _mean_losses(losses: list[Tensor], weight: float = 1.0) -> Tensor:
    """weight * mean(losses), kept on-graph."""
    acc = losses[0]
    for t in losses[1:]:
        acc = ag.add(acc, t)
    return ag.scale(acc, weight / len(losses))


def loss_encoder_stage3(l1: Tensor, inner_losses: list[Tensor], lambda_g: float) -> Tensor:
    """l1 + lambda_g * mean(inner generation losses), kept on-graph: the
    reference form of the encoder step's loss, whose gradient
    ``_train_batch`` takes without building it."""
    return ag.add(l1, _mean_losses(inner_losses, lambda_g))


# ----------------------------------------------------------- training corpus


@dataclass(slots=True)
class SegmentExample:
    doc_id: str
    level: int
    tokens: list[str]
    ids: list[int]
    kps: KeyphraseSet
    labels: list[int]


def build_examples(docs: list[MultiLevelDocument], vocab: Vocabulary) -> list[SegmentExample]:
    out = []
    for doc in docs:
        for seg in doc.segments:
            kps = doc.segment_keyphrases(seg.level)
            spans = derive_keywords(seg.tokens, kps.present)
            out.append(
                SegmentExample(
                    doc_id=doc.doc_id,
                    level=seg.level,
                    tokens=seg.tokens,
                    ids=vocab.encode(seg.tokens),
                    kps=kps,
                    labels=bio_labels(seg.tokens, spans),
                )
            )
    return out


def check_segment(doc_id: str, level: int, n_tokens: int, max_encode_len: int) -> None:
    """Reject a segment of ``n_tokens`` tokens that the encoder cannot take,
    naming its document and level."""
    if not 0 < n_tokens <= max_encode_len:
        raise ValueError(
            f"document {doc_id!r} level {level}: segment of {n_tokens} tokens, "
            f"need 1 to max_encode_len={max_encode_len}"
        )


def _check_examples(examples: list[SegmentExample], max_encode_len: int) -> None:
    """Reject an empty corpus, or a segment the encoder cannot take, before
    any training; level-1 segments are not bounded by max_segment_tokens."""
    if not examples:
        raise ValueError("corpus has no segments to train on")
    for ex in examples:
        check_segment(ex.doc_id, ex.level, len(ex.ids), max_encode_len)


@dataclass(slots=True)
class EpochRow:
    epoch: int
    stage: str
    loss_kwe: float
    loss_kg: float | None
    loss_stage3: float | None
    pct_null: float | None
    duplication: float | None


@dataclass(slots=True)
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, [
            ["epoch", "stage", "loss_kwe", "loss_kg", "loss_stage3", "pct_null", "duplication"],
            *([r.epoch, r.stage, f"{r.loss_kwe:.6f}", _cell(r.loss_kg, ".6f"),
               _cell(r.loss_stage3, ".6f"), _cell(r.pct_null, ".4f"),
               _cell(r.duplication, ".4f")] for r in self.rows),
        ])


def _cell(value: float | None, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _check_finite(value: float, what: str) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(f"{what} became non-finite")


def _batches(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def predicted_keywords(model: Model, ex: SegmentExample) -> list[KeywordSpan]:
    """Tagger keywords for one segment; criterion 07 replays an epoch with it."""
    tag_probs = model.kwe_probs(model.encode([ex.ids])).data[0]
    return model.predict_keywords(tag_probs, ex.tokens)


def control_ids_for(
    spans: list[KeywordSpan], cfg: ModelConfig, vocab: Vocabulary
) -> list[list[int] | None]:
    """Route the top keywords to the leading slots of each group."""
    half = cfg.n_slots // 2
    top = spans[: cfg.n_control_keywords]
    per_group: list[list[int] | None] = [None] * half
    for i, sp in enumerate(top):
        per_group[i] = vocab.encode(sp.tokens)
    return per_group + list(per_group)


def _train_batch(
    model: Model,
    batch: list[SegmentExample],
    joint: bool,
    tcfg: TsmtConfig,
    vocab: Vocabulary,
    enc_opt: AdamW,
    dec_opt: AdamW,
) -> tuple[float, list[float], float]:
    """One batch of the schedule: the inner decoder rounds when ``joint``,
    then the encoder step. Returns the extraction loss, the inner
    generation losses (none in stage 1) and the encoder step's loss,
    l1 + lambda_g * mean(inner).

    An inner loss reaches the encoder only through the states, so each
    round's backward also takes its loss's gradient at the states, and the
    round then drops its nodes from the tape. The encoder step seeds the
    states with lambda_g times the mean of those gradients and walks only
    the encoder and the tag head.
    """
    cfg = model.cfg
    enc_mask = padding_mask([len(ex.ids) for ex in batch])
    inner: list[float] = []
    seeds = []
    with Tape() as tape:
        states = model.encode([ex.ids for ex in batch])
        tag_probs = model.kwe_probs(states)
        if joint:
            targets, control_ids = [], []
            for ex, seg_tags in zip(batch, tag_probs.data):
                spans = model.predict_keywords(seg_tags[: len(ex.ids)], ex.tokens)
                targets.append(
                    kwp_build_targets(ex.kps, spans, cfg.n_slots, vocab, tcfg.use_keyword_padding)
                )
                control_ids += control_ids_for(spans, cfg, vocab)
            control = model.control_rows(control_ids)
            entries = [e for tl in targets for e in tl.all()]
            N = cfg.n_slots
            wrt = list(dec_opt.params.values()) + [states]
            mark = len(tape.nodes)
            d_states = 0.0
            for _ in range(tcfg.e2):
                dists = k_step_predict(model, states.data, control.data, cfg.assign_steps,
                                       vocab.bos_id, enc_mask)
                order = []
                for b, tl in enumerate(targets):
                    seg_order = assign_groups(
                        dists[:, b * N : (b + 1) * N],
                        [e.ids for e in tl.present],
                        [e.ids for e in tl.absent],
                        vocab.null_id,
                    )
                    order += [b * N + j for j in seg_order]
                del dists  # nothing reads the round's distributions after assignment
                prev, tgt, w = teacher_arrays(entries, order, vocab, tcfg)
                probs = model.teacher_probs(prev, control, states, enc_mask=enc_mask)
                lg = loss_kg(probs, tgt, w / len(batch))
                tape.backward(lg, wrt=wrt)
                del tape.nodes[mark:]  # nothing reads this round's graph again
                _check_finite(lg.item(), "generation loss")
                dec_opt.step()
                model.store.zero_grads()
                d_states = d_states + states.grad
                inner.append(lg.item())
            seeds = [(states, d_states * (tcfg.lambda_g / tcfg.e2))]
        labels = [ex.labels for ex in batch]
        l1 = loss_kwe(tag_probs, labels, kwe_class_weights(labels))
        tape.backward(l1, wrt=enc_opt.params.values(), seeds=seeds)
    # the sums loss_encoder_stage3 makes, in its order
    loss = l1.item() + sum(inner) * (tcfg.lambda_g / tcfg.e2) if joint else l1.item()
    _check_finite(loss, "stage-3 loss" if joint else "extraction loss")
    enc_opt.step()
    model.store.zero_grads()
    return l1.item(), inner, loss


def tsmt_train(
    model: Model,
    docs: list[MultiLevelDocument],
    tcfg: TsmtConfig,
    vocab: Vocabulary,
    checkpoint_path: str | Path | None = None,
    probe_fn=None,
) -> TrainReport:
    """Run the staged schedule; returns the per-epoch report.

    Each batch runs ``_train_batch``, whose encoder step moves the
    parameters as differentiating ``loss_encoder_stage3`` over the whole
    joint graph would, up to float summation order.

    probe_fn, when given, is called as probe_fn(model) after each epoch and
    must return (pct_null, duplication) floats for the report.
    """
    cfg = model.cfg
    examples = build_examples(docs, vocab)
    _check_examples(examples, cfg.max_encode_len)
    enc_opt = AdamW(model.encoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    dec_opt = AdamW(model.decoder_params(), lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    report = TrainReport()
    order_rng = random.Random(tcfg.seed)

    for epoch in range(1, tcfg.epochs + 1):
        order_rng.shuffle(examples)
        joint = epoch > tcfg.e1
        kwe_vals, kg_vals, l2_vals = [], [], []
        for batch in _batches(examples, tcfg.batch_size):
            l1, inner, loss = _train_batch(model, batch, joint, tcfg, vocab, enc_opt, dec_opt)
            kwe_vals.append(l1)
            kg_vals += inner
            l2_vals.append(loss)
        kg, l2 = (float(np.mean(kg_vals)), float(np.mean(l2_vals))) if joint else (None, None)
        row = EpochRow(epoch, "stage23" if joint else "stage1", float(np.mean(kwe_vals)), kg, l2, None, None)

        if probe_fn is not None:
            row.pct_null, row.duplication = probe_fn(model)
        report.rows.append(row)
        if checkpoint_path is not None:
            meta = {
                "model_config": cfg.to_dict(),
                "train_config": asdict(tcfg),
                "vocab": vocab.tokens,
                "epoch": epoch,
            }
            save_checkpoint(checkpoint_path, model.store, meta)
    return report
