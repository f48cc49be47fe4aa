"""Three-stage training schedule with keyword-padded set targets.

Every epoch runs one body per batch: encode the batch on the tape; after
the first e1 epochs, tag keywords from those same states, build padded
target lists and control rows, and run e2 inner rounds of (assign targets,
update decoder + generation head) with the encoder frozen; then one encoder
update on the extraction loss, plus the averaged inner generation losses
when rounds ran, with the decoder frozen. Stage 1 (epochs <= e1) thus fits
the encoder and tagging head on extraction alone and never moves the
decoder. Inner losses stay on the tape across rounds, so the encoder step
differentiates straight through them.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor, no_grad
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
from .model import Model, ModelConfig
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
    counts = np.zeros(3)
    for seq in label_seqs:
        for lab in seq:
            counts[lab] += 1
    return 1.0 / np.maximum(counts, 1.0)


def loss_kwe(tag_probs: Tensor, labels: list[int], class_weights: np.ndarray) -> Tensor:
    """Mean weighted token cross-entropy over one segment."""
    S = len(labels)
    w = class_weights[np.asarray(labels)]
    return ag.scale(ag.weighted_nll(tag_probs, labels, w), 1.0 / S)


def teacher_arrays(
    entries: list["TargetEntry"],
    order: list[int],
    cfg: ModelConfig,
    vocab: Vocabulary,
    tcfg: TsmtConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Previous-token, target, and weight arrays for teacher forcing.

    Slot n is trained on entries[order[n]] followed by EOS; rows past a
    slot's target get weight zero. Weights: 1 for ground truth, lambda_kw
    for padding keywords, lambda_null for nulls.
    """
    xi = {ORIGIN_GT: 1.0, ORIGIN_KW: tcfg.lambda_kw, ORIGIN_NULL: tcfg.lambda_null}
    seqs = [entries[j].ids + [vocab.eos_id] for j in order]
    T = max(len(s) for s in seqs)
    N = cfg.n_slots
    prev = np.full((N, T), vocab.pad_id, dtype=np.intp)
    tgt = np.full((N, T), vocab.pad_id, dtype=np.intp)
    w = np.zeros((N, T))
    for n, seq in enumerate(seqs):
        prev[n, 0] = vocab.bos_id
        prev[n, 1 : len(seq)] = seq[:-1]
        tgt[n, : len(seq)] = seq
        w[n, : len(seq)] = xi[entries[order[n]].origin]
    return prev, tgt, w


def loss_kg(probs: Tensor, tgt: np.ndarray, w: np.ndarray) -> Tensor:
    """Summed weighted next-token cross-entropy for one segment."""
    return ag.weighted_nll(probs, tgt.reshape(-1), w.reshape(-1))


def _mean_losses(losses: list[Tensor], weight: float = 1.0) -> Tensor:
    """weight * mean(losses), kept on-graph."""
    acc = losses[0]
    for t in losses[1:]:
        acc = ag.add(acc, t)
    return ag.scale(acc, weight / len(losses))


def loss_encoder_stage3(l1: Tensor, inner_losses: list[Tensor], lambda_g: float) -> Tensor:
    """l1 + lambda_g * mean(inner generation losses), kept on-graph."""
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


def _check_examples(examples: list[SegmentExample], max_encode_len: int) -> None:
    """Reject an empty corpus, or a segment the encoder cannot take, before
    any training; level-1 segments are not bounded by max_segment_tokens."""
    if not examples:
        raise ValueError("corpus has no segments to train on")
    for ex in examples:
        if not 0 < len(ex.ids) <= max_encode_len:
            raise ValueError(
                f"document {ex.doc_id!r} level {ex.level}: segment of {len(ex.ids)} tokens, "
                f"need 1 to max_encode_len={max_encode_len}"
            )


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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "stage", "loss_kwe", "loss_kg", "loss_stage3", "pct_null", "duplication"])
            for r in self.rows:
                w.writerow([r.epoch, r.stage, f"{r.loss_kwe:.6f}", _cell(r.loss_kg, ".6f"),
                            _cell(r.loss_stage3, ".6f"), _cell(r.pct_null, ".4f"),
                            _cell(r.duplication, ".4f")])


def _cell(value: float | None, spec: str) -> str:
    return "" if value is None else format(value, spec)


def _check_finite(value: float, what: str) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(f"{what} became non-finite")


def _batches(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def predicted_keywords(model: Model, ex: SegmentExample) -> list[KeywordSpan]:
    """Tape-free tagger keywords for one segment; criterion 07 replays an epoch with it."""
    with no_grad():
        states = model.encode(ex.ids)
        tag_probs = model.kwe_probs(states).data
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


def tsmt_train(
    model: Model,
    docs: list[MultiLevelDocument],
    tcfg: TsmtConfig,
    vocab: Vocabulary,
    checkpoint_path: str | Path | None = None,
    probe_fn=None,
) -> TrainReport:
    """Run the staged schedule; returns the per-epoch report.

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
            weights = kwe_class_weights([ex.labels for ex in batch])
            with Tape() as tape:
                enc_states = [model.encode(ex.ids) for ex in batch]
                inner: list[Tensor] = []
                if joint:
                    targets, controls = [], []
                    for ex, states in zip(batch, enc_states):
                        with no_grad():
                            tag_probs = model.kwe_probs(states).data
                        spans = model.predict_keywords(tag_probs, ex.tokens)
                        targets.append(
                            kwp_build_targets(ex.kps, spans, cfg.n_slots, vocab, tcfg.use_keyword_padding)
                        )
                        controls.append(model.control_rows(control_ids_for(spans, cfg, vocab)))
                    for _ in range(tcfg.e2):
                        per_seg = []
                        for states, control, tl in zip(enc_states, controls, targets):
                            dists = k_step_predict(model, states, control, cfg.assign_steps, vocab.bos_id)
                            order = assign_groups(
                                dists,
                                [e.ids for e in tl.present],
                                [e.ids for e in tl.absent],
                                vocab.null_id,
                            )
                            prev, tgt, w = teacher_arrays(tl.all(), order, cfg, vocab, tcfg)
                            probs = model.decode_probs(prev, control, states)
                            per_seg.append(loss_kg(probs, tgt, w))
                        lg = _mean_losses(per_seg)
                        tape.backward(lg)
                        _check_finite(lg.item(), "generation loss")
                        dec_opt.step()
                        model.store.zero_grads()
                        inner.append(lg)
                        kg_vals.append(lg.item())

                l1 = _mean_losses(
                    [loss_kwe(model.kwe_probs(s), ex.labels, weights) for ex, s in zip(batch, enc_states)]
                )
                loss = loss_encoder_stage3(l1, inner, tcfg.lambda_g) if joint else l1
                tape.backward(loss)
            _check_finite(loss.item(), "stage-3 loss" if joint else "extraction loss")
            enc_opt.step()
            model.store.zero_grads()
            kwe_vals.append(l1.item())
            l2_vals.append(loss.item())
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
