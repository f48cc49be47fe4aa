"""Command-line pipeline: corpus synthesis, training, generation, portraits,
evaluation, and portrait-based classification reports."""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis, inference, metrics
from .config import KEY_TYPES, RunConfig, load_run_config
from .corpus import Vocabulary, load_jsonl, parse_jsonl, save_jsonl, typed, write_jsonl
from .model import Model, ModelConfig, param_spec
from .params import load_checkpoint
from .synth import distinct_word_count, synth_corpus
from .training import tsmt_train


def _command(sub, name: str, help: str, settings: bool = False) -> argparse.ArgumentParser:
    """A subcommand; one that reads run settings takes --config and --seed."""
    p = sub.add_parser(name, help=help)
    if settings:
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="run seed")
    return p


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setkp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen-corpus", "emit a synthetic corpus JSONL", settings=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, help="documents to synthesize")

    p = _command(sub, "train", "run the staged training schedule", settings=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--loss-csv", help="per-epoch loss report")
    p.add_argument("--epochs", type=int)
    p.add_argument("--e1", type=int)
    p.add_argument("--e2", type=int)
    p.add_argument("--batch-size", type=int)

    p = _command(sub, "generate", "slot generation for every segment of a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = _command(sub, "portrait", "multi-level document portraits")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-levels", type=int)

    p = _command(sub, "eval", "score generation output against a corpus")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="per-document + macro CSV")

    p = _command(sub, "analyze", "portrait-based classification report", settings=True)
    p.add_argument("--portraits", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=[*analysis.MODES, "all"], default="all")
    p.add_argument("--levels", help="comma-separated level subset, e.g. 1,2")
    return ap


def _run_config(args) -> RunConfig:
    """A flag named after a config key overrides that key."""
    return load_run_config(args.config, {k: v for k, v in vars(args).items() if k in KEY_TYPES})


def _load_model(ckpt_path: str) -> tuple[Model, Vocabulary, dict]:
    """A checkpoint whose metadata, vocabulary and parameters make one model."""
    store, meta = load_checkpoint(ckpt_path)
    try:
        cfg = ModelConfig.from_dict(meta["model_config"])
        vocab = Vocabulary(meta["vocab"])
    except KeyError as e:
        raise ValueError(f"{ckpt_path}: checkpoint metadata has no {e.args[0]}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{ckpt_path}: {e}") from e
    if len(vocab) != cfg.vocab_size:
        raise ValueError(f"{ckpt_path}: vocab has {len(vocab)} tokens, vocab_size is {cfg.vocab_size}")
    want = {n: shape for n, _, shape in param_spec(cfg)}
    have = {n: t.shape for n, t in store.items()}
    for name in sorted(want.keys() | have.keys()):
        if want.get(name) != have.get(name):
            raise ValueError(f"{ckpt_path}: parameter {name!r}: checkpoint has shape "
                             f"{have.get(name, 'none')}, the model config needs {want.get(name, 'none')}")
    for name, t in store.items():
        if not np.isfinite(t.data).all():
            raise ValueError(f"{ckpt_path}: parameter {name!r} holds a non-finite value")
    return Model(cfg, store), vocab, meta


def _parse_levels(raw: str | None, docs) -> set[int] | None:
    """The --levels subset, each level one that some document of ``docs`` has."""
    if raw is None:
        return None
    try:
        levels = {int(s) for s in raw.split(",") if s.strip()}
    except ValueError:
        raise ValueError(f"bad --levels value {raw!r}; expected e.g. 1,2")
    if not levels or min(levels) < 1:
        raise ValueError(f"--levels needs one or more levels of at least 1, got {raw!r}")
    absent = sorted(levels - {seg.level for doc in docs for seg in doc.segments})
    if absent:
        raise ValueError(f"--levels {raw!r}: no corpus document has level {absent[0]}")
    return levels


# Each command prints its summary line, and eval and analyze their tables, to
# standard error, so that standard output carries only an artifact written
# with --out /dev/stdout.


def cmd_gen_corpus(args) -> int:
    rc = _run_config(args)
    docs = synth_corpus(rc.seed, rc.n_docs)
    save_jsonl(args.out, docs)
    print(f"wrote {len(docs)} documents, {distinct_word_count(docs)} distinct words "
          f"-> {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    rc = _run_config(args)
    docs = load_jsonl(args.corpus)
    vocab = Vocabulary.build(docs)
    model = Model.fresh(rc.model_config(len(vocab)), rc.seed)

    probe_fn = None
    if rc.probe_docs > 0:
        probe_segs = [d.segments[0].tokens for d in docs[: rc.probe_docs]]
        probe_fn = functools.partial(inference.slot_ratios, vocab=vocab, segments=probe_segs)

    report = tsmt_train(model, docs, rc.train_config(), vocab, checkpoint_path=args.out_ckpt,
                        probe_fn=probe_fn)
    if args.loss_csv:
        report.write_csv(args.loss_csv)
    last = report.rows[-1]
    print(f"trained {last.epoch} epochs ({last.stage}); extraction loss "
          f"{last.loss_kwe:.4f} -> {args.out_ckpt}", file=sys.stderr)
    return 0


def prediction_rows(model, vocab, docs) -> list[dict]:
    """One predictions.jsonl row per document: every segment's raw slots and
    filtered keyphrases, all segments of the corpus generated in one pass."""
    for doc in docs:
        inference.check_encodable(doc, doc.segments, model.cfg.max_encode_len)
    generated = iter(inference.generate_segments(
        model, vocab, [seg.tokens for doc in docs for seg in doc.segments]))
    rows = []
    for doc in docs:
        segs = []
        for seg in doc.segments:
            slots, _ = next(generated)
            kept = inference.filter_predictions(slots)
            segs.append({
                "level": seg.level,
                "slots": [
                    {"text": s.text, "null": s.is_null, "group": s.group,
                     "confidence": round(s.confidence, 6)}
                    for s in slots
                ],
                "kept": [
                    {"text": s.text, "group": s.group, "confidence": round(s.confidence, 6)}
                    for s in kept
                ],
            })
        rows.append({"id": doc.doc_id, "segments": segs})
    return rows


def cmd_generate(args) -> int:
    model, vocab, _ = _load_model(args.ckpt)
    docs = load_jsonl(args.corpus)
    rows = prediction_rows(model, vocab, docs)
    write_jsonl(args.out, rows)
    print(f"generated for {len(rows)} documents -> {args.out}", file=sys.stderr)
    return 0


def cmd_portrait(args) -> int:
    if args.max_levels is not None and args.max_levels < 1:
        raise ValueError(f"--max-levels must be at least 1, got {args.max_levels}")
    model, vocab, _ = _load_model(args.ckpt)
    docs = load_jsonl(args.corpus)
    portraits = inference.portraits(
        model, vocab, docs, max_levels=args.max_levels,
        padding_keywords=[inference.padding_keyword_spans(d) for d in docs])
    inference.save_portraits(args.out, portraits)
    n = sum(len(p.entries) for p in portraits)
    print(f"built {len(portraits)} portraits ({n} keyphrases) -> {args.out}", file=sys.stderr)
    return 0


def _eval_record(doc, row) -> metrics.EvalRecord:
    """A predictions row scored against ``doc``: the kept entries of every
    segment, in file order, ranked by ``inference.filter_predictions`` with
    the document's padding-keyword pool, the rule ``portrait`` keeps by."""
    slot_outputs, kept = [], []
    for seg in typed(row, "segments", list):
        for s in typed(seg, "slots", list):
            slot_outputs.append((typed(s, "text", str).split(), typed(s, "null", bool)))
        for k in typed(seg, "kept", list):
            kept.append(inference.SlotPrediction(
                tokens=typed(k, "text", str).split(), is_null=False, group="",
                confidence=typed(k, "confidence", float), slot=len(kept)))
    ranked = inference.filter_predictions(kept, inference.padding_keyword_spans(doc))
    present, absent = doc.keyphrase_tokens()
    return metrics.EvalRecord(
        doc_id=doc.doc_id,
        predictions=[s.tokens for s in ranked],
        present_targets=present,
        absent_targets=absent,
        source_tokens=doc.all_tokens(),
        slot_outputs=slot_outputs,
    )


def cmd_eval(args) -> int:
    docs = {d.doc_id: d for d in load_jsonl(args.corpus)}

    def record(row: dict) -> metrics.EvalRecord:
        doc = docs.get(typed(row, "id", str))
        if doc is None:
            raise ValueError(f"predictions reference unknown document {row['id']!r}")
        return _eval_record(doc, row)

    records = parse_jsonl(args.predictions, record)
    if not records:
        raise ValueError(f"{args.predictions}: no predictions to score")
    scored = {r.doc_id for r in records}
    missing = [doc_id for doc_id in docs if doc_id not in scored]
    if missing:
        raise ValueError(f"predictions missing for {len(missing)} documents, e.g. {missing[0]!r}")
    per_doc, macro = metrics.evaluate(records)
    metrics.write_eval_csv(args.out, per_doc, macro)
    print(metrics.format_eval_table(macro), file=sys.stderr)
    print(f"scored {len(records)} documents -> {args.out}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    rc = _run_config(args)
    docs = load_jsonl(args.corpus)
    levels = _parse_levels(args.levels, docs)
    portraits = {p.doc_id: p for p in inference.load_portraits(args.portraits)}
    missing = [d.doc_id for d in docs if d.doc_id not in portraits]
    if missing:
        raise ValueError(f"portraits missing for {len(missing)} documents, e.g. {missing[0]!r}")
    modes = list(analysis.MODES) if args.mode == "all" else [args.mode]
    results = analysis.run_experiment(docs, portraits, modes, levels, rc.seed)
    analysis.write_analysis_csv(args.out, results)
    print(analysis.format_analysis_table(results), file=sys.stderr)
    print(f"report -> {args.out}", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen-corpus": cmd_gen_corpus,
    "train": cmd_train,
    "generate": cmd_generate,
    "portrait": cmd_portrait,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # one-line diagnostic, non-zero exit
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
