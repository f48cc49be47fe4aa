"""Command-line pipeline: corpus synthesis, training, generation, portraits,
evaluation, and portrait-based classification reports."""

from __future__ import annotations

import argparse
import functools
import sys

from . import analysis, inference, metrics
from .config import KEY_TYPES, RunConfig, load_run_config
from .corpus import Vocabulary, load_jsonl, save_jsonl
from .model import Model, ModelConfig
from .params import load_checkpoint
from .synth import distinct_word_count, synth_corpus
from .training import tsmt_train


def _command(sub, name: str, help: str, seed: bool = False) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="key = value config file")
    if seed:
        p.add_argument("--seed", type=int, help="run seed")
    return p


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="setkp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "gen-corpus", "emit a synthetic corpus JSONL", seed=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, help="documents to synthesize")
    p.add_argument("--vocab-profile", choices=["default", "small"])

    p = _command(sub, "train", "run the staged training schedule", seed=True)
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

    p = _command(sub, "analyze", "portrait-based classification report", seed=True)
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
    want = {n: t.shape for n, t in Model.fresh(cfg, 0).store.items()}
    have = {n: t.shape for n, t in store.items()}
    for name in sorted(want.keys() | have.keys()):
        if want.get(name) != have.get(name):
            raise ValueError(f"{ckpt_path}: parameter {name!r}: checkpoint has shape "
                             f"{have.get(name, 'none')}, the model config needs {want.get(name, 'none')}")
    return Model(cfg, store), vocab, meta


def _parse_levels(raw: str | None) -> set[int] | None:
    if raw is None:
        return None
    try:
        levels = {int(s) for s in raw.split(",") if s.strip()}
    except ValueError:
        raise ValueError(f"bad --levels value {raw!r}; expected e.g. 1,2")
    if not levels or min(levels) < 1:
        raise ValueError(f"--levels needs one or more levels of at least 1, got {raw!r}")
    return levels


def cmd_gen_corpus(args) -> int:
    rc = _run_config(args)
    docs = synth_corpus(rc.seed, rc.n_docs, rc.vocab_profile)
    save_jsonl(args.out, docs)
    print(f"wrote {len(docs)} documents, {distinct_word_count(docs)} distinct words -> {args.out}")
    return 0


def cmd_train(args) -> int:
    rc = _run_config(args)
    docs = load_jsonl(args.corpus, rc.max_segment_tokens)
    vocab = Vocabulary.build(docs, rc.min_freq)
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
          f"{last.loss_kwe:.4f} -> {args.out_ckpt}")
    return 0


def prediction_rows(model, vocab, docs) -> list[dict]:
    """One predictions.jsonl row per document: every segment's raw slots and
    filtered keyphrases, all segments of the corpus generated in one pass."""
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


def _generate_doc(model, vocab, doc) -> dict:
    """One document's row: a batch of one through ``prediction_rows``, kept
    for the acceptance tests."""
    return prediction_rows(model, vocab, [doc])[0]


def cmd_generate(args) -> int:
    rc = _run_config(args)
    model, vocab, _ = _load_model(args.ckpt)
    docs = load_jsonl(args.corpus, rc.max_segment_tokens)
    rows = prediction_rows(model, vocab, docs)
    inference.save_predictions(args.out, rows)
    print(f"generated for {len(rows)} documents -> {args.out}")
    return 0


def cmd_portrait(args) -> int:
    if args.max_levels is not None and args.max_levels < 1:
        raise ValueError(f"--max-levels must be at least 1, got {args.max_levels}")
    rc = _run_config(args)
    model, vocab, _ = _load_model(args.ckpt)
    docs = load_jsonl(args.corpus, rc.max_segment_tokens)
    portraits = inference.portraits(
        model, vocab, docs, max_levels=args.max_levels,
        padding_keywords=[inference.padding_keyword_spans(d) or None for d in docs])
    inference.save_portraits(args.out, portraits)
    n = sum(len(p.entries) for p in portraits)
    print(f"built {len(portraits)} portraits ({n} keyphrases) -> {args.out}")
    return 0


def _eval_record(doc, row) -> metrics.EvalRecord:
    slot_outputs = []
    merged: dict[tuple[str, ...], tuple[float, list[str]]] = {}
    for seg in row["segments"]:
        for s in seg["slots"]:
            slot_outputs.append((s["text"].split(), bool(s["null"])))
        for k in seg["kept"]:
            toks = k["text"].split()
            key = metrics.stem_tokens(toks)
            if key not in merged or k["confidence"] > merged[key][0]:
                merged[key] = (k["confidence"], toks)
    ranked = [toks for _, toks in sorted(merged.values(), key=lambda cv: -cv[0])]
    preds = metrics.drop_exact(ranked, inference.padding_keyword_spans(doc))
    present, absent = doc.keyphrase_tokens()
    return metrics.EvalRecord(
        doc_id=doc.doc_id,
        predictions=preds,
        present_targets=present,
        absent_targets=absent,
        source_tokens=doc.all_tokens(),
        slot_outputs=slot_outputs,
    )


def cmd_eval(args) -> int:
    rc = _run_config(args)
    docs = {d.doc_id: d for d in load_jsonl(args.corpus, rc.max_segment_tokens)}
    rows = inference.load_predictions(args.predictions)
    records = []
    for row in rows:
        doc = docs.get(row["id"])
        if doc is None:
            raise ValueError(f"predictions reference unknown document {row['id']!r}")
        records.append(_eval_record(doc, row))
    per_doc, macro = metrics.evaluate(records)
    metrics.write_eval_csv(args.out, per_doc, macro)
    print(metrics.format_eval_table(macro))
    print(f"scored {len(records)} documents -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    rc = _run_config(args)
    docs = load_jsonl(args.corpus, rc.max_segment_tokens)
    portraits = {p.doc_id: p for p in inference.load_portraits(args.portraits)}
    missing = [d.doc_id for d in docs if d.doc_id not in portraits]
    if missing:
        raise ValueError(f"portraits missing for {len(missing)} documents, e.g. {missing[0]!r}")
    modes = list(analysis.MODES) if args.mode == "all" else [args.mode]
    levels = _parse_levels(args.levels)
    results = analysis.run_experiment(docs, portraits, modes, levels, rc.seed)
    analysis.write_analysis_csv(args.out, results)
    print(analysis.format_analysis_table(results))
    print(f"report -> {args.out}")
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
