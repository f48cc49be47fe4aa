"""The three benchmark workloads: set-up, one measured iteration, output checks.

Every measured command goes through ``setkp.cli.main`` in this process, so
the program only ever sees files. An operation is one document through a
command, or one epoch of ``train``; a non-zero exit or a failed output check
fails every operation of that command.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from setkp import cli
from setkp.config import RunConfig
from setkp.corpus import Vocabulary, load_jsonl, save_jsonl
from setkp.model import Model, ModelConfig
from setkp.params import load_checkpoint, save_checkpoint
from setkp.synth import synth_corpus

N_DOCS = 64
# Every training run uses the default run seed and the fixed reference
# corpus (criterion 03's synth_corpus(0, 64)). After one stage-1 epoch the
# tagger sometimes predicts long keyword spans, and the keyword-padded
# targets then grow to ~26 tokens. Whether and how much depends on the init
# seed and the corpus, and one training run cost up to 40% more time and 75%
# more memory than another, more than the bounds allow.
REFERENCE_SEED = 0
# train workload: default ModelConfig/TsmtConfig, default probe, per-epoch
# checkpoint, schedule shortened to one stage-1 and two stage-2/3 epochs
TRAIN_EPOCHS, TRAIN_E1 = 3, 1
# infer set-up: the shortest schedule tried that leaves a trained state on
# every corpus (slots stop by step 3, F1 > 0; with two stage-2/3 epochs one
# corpus in six stayed all-null); probe off because nothing reads it
INFER_SETUP_CONFIG = "lr = 0.003\nbatch_size = 4\nprobe_docs = 0\n"
INFER_SETUP_EPOCHS, INFER_SETUP_E1 = 4, 1
STOP_BIAS = -100.0  # decode_long generation-head bias on EOS and null
INFER_MAX_STEPS = 4  # infer must stay a short-horizon workload
ANALYZE_MODES = ("original", "pure", "augmented")


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Command:
    name: str
    ops: int
    wall_s: float = 0.0
    error: str | None = None


@dataclass
class Iteration:
    commands: list[Command] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)  # counts for rates
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def passed(self) -> bool:
        return all(c.error is None for c in self.commands)

    def wall(self, name: str) -> float:
        return sum(c.wall_s for c in self.commands if c.name == name)


class Context:
    """Files and expectations of one benchmark run."""

    def __init__(self, workdir: Path, seed: int, n_docs: int):
        self.wd = workdir
        self.seed = seed
        self.n_docs = n_docs
        self.tracer = None  # a spans.Tracer during the traced phase
        self.corpus = workdir / "corpus.jsonl"
        self.ckpt = workdir / "model.ckpt"
        self.docs: list = []
        self.mcfg = ModelConfig()

    def load_docs(self) -> None:
        self.docs = load_jsonl(self.corpus, RunConfig().max_segment_tokens)

    @property
    def n_segments(self) -> int:
        return sum(len(d.segments) for d in self.docs)

    def cli(self, argv: list[str], ops: int, check) -> tuple[Command, object]:
        """Run one CLI command, time it, then check its outputs (untimed)."""
        cmd = Command(argv[0], ops)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                self.tracer.cmd += 1
                with self.tracer.span(f"cli.{argv[0]}"):
                    rc = cli.main(argv)
        cmd.wall_s = time.perf_counter() - t0
        if rc != 0:
            cmd.error = f"{argv[0]} exited {rc}: {sink.getvalue().strip()[-300:]}"
            return cmd, None
        try:
            return cmd, check()
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as e:
            cmd.error = f"{argv[0]} output check: {type(e).__name__}: {e}"
            return cmd, None


def cli_process(argv: list[str], timeout_s: float = 150.0) -> tuple[int, str]:
    """Run one CLI command in a child process, so that its memory stays out
    of this process's peak RSS; returns the exit code and the output tail."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "setkp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {timeout_s:.0f} s"
    return proc.returncode, (proc.stdout + proc.stderr).strip()[-300:]


# --------------------------------------------------------------- output checks


def _finite(raw: str, what: str) -> float:
    v = float(raw)
    require(math.isfinite(v), f"{what} is not finite: {raw!r}")
    return v


def check_train(ctx: Context, loss_csv: Path, ckpt: Path, epochs: int, e1: int) -> dict:
    with open(loss_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == epochs, f"loss CSV has {len(rows)} rows, expected {epochs}")
    for i, r in enumerate(rows, start=1):
        require(int(r["epoch"]) == i, f"loss CSV epoch {r['epoch']} out of order")
        stage = "stage1" if i <= e1 else "stage23"
        require(r["stage"] == stage, f"epoch {i} is {r['stage']}, expected {stage}")
        _finite(r["loss_kwe"], f"epoch {i} loss_kwe")
        if stage == "stage23":
            _finite(r["loss_kg"], f"epoch {i} loss_kg")
            _finite(r["loss_stage3"], f"epoch {i} loss_stage3")
    store, meta = load_checkpoint(ckpt)
    require(meta.get("epoch") == epochs, f"checkpoint epoch {meta.get('epoch')} != {epochs}")
    vocab = Vocabulary(meta["vocab"])
    want = ModelConfig(vocab_size=len(vocab)).to_dict()
    require(meta["model_config"] == want, "checkpoint model config is not the default")
    for name, t in store.items():
        require(bool(np.isfinite(t.data).all()), f"checkpoint parameter {name} not finite")
    last = rows[-1]
    return {"train_loss_kg": float(last["loss_kg"]), "train_loss_kwe": float(last["loss_kwe"])}


def _segment_steps(slots: list[dict], horizon: int) -> int:
    """Decode steps implied by a segment's slots: the longest emission, plus
    the EOS step unless the horizon cut it (null markers are not surfaced
    in the text, so this is a lower bound when a null follows a word)."""
    longest = max(len(s["text"].split()) + bool(s["null"]) for s in slots)
    return min(longest + 1, horizon)


def check_generate(ctx: Context, path: Path) -> list[int]:
    """Returns the implied decode steps of every segment."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    require(len(rows) == len(ctx.docs), f"{len(rows)} prediction rows for {len(ctx.docs)} docs")
    n_slots, half = ctx.mcfg.n_slots, ctx.mcfg.n_slots // 2
    steps = []
    for doc, row in zip(ctx.docs, rows):
        require(row["id"] == doc.doc_id, f"row {row['id']!r} where {doc.doc_id!r} expected")
        segs = row["segments"]
        require(len(segs) == len(doc.segments), f"{doc.doc_id}: {len(segs)} segments")
        for seg, dseg in zip(segs, doc.segments):
            require(seg["level"] == dseg.level, f"{doc.doc_id}: level {seg['level']}")
            slots = seg["slots"]
            require(len(slots) == n_slots, f"{doc.doc_id}: {len(slots)} slots, expected {n_slots}")
            for i, s in enumerate(slots):
                want = "present" if i < half else "absent"
                require(s["group"] == want, f"{doc.doc_id}: slot {i} in group {s['group']}")
                require(isinstance(s["null"], bool) and isinstance(s["text"], str),
                        f"{doc.doc_id}: malformed slot {s}")
            offered = {(s["text"], s["group"], s["confidence"])
                       for s in slots if not s["null"] and s["text"]}
            kept = [(k["text"], k["group"], k["confidence"]) for k in seg["kept"]]
            require(set(kept) <= offered, f"{doc.doc_id}: kept phrase not among its slots")
            require(len(kept) == len(set(kept)), f"{doc.doc_id}: kept phrase repeated")
            steps.append(_segment_steps(slots, ctx.mcfg.max_kp_len))
    return steps


EVAL_KEYS = ("present_f1@M", "absent_f1@M", "null_ratio", "duplication")


def check_eval(ctx: Context, path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(ctx.docs) + 1, f"eval CSV has {len(rows)} rows")
    for doc, row in zip(ctx.docs, rows):
        require(row["doc_id"] == doc.doc_id, f"eval row {row['doc_id']!r} out of order")
    require(rows[-1]["doc_id"] == "MACRO", "eval CSV lacks its MACRO row")
    for row in rows:
        for k, v in row.items():
            if k != "doc_id":
                require(0.0 <= float(v) <= 1.0, f"eval {k}={v} outside [0, 1]")
    macro = rows[-1]
    return {k: float(macro[k]) for k in EVAL_KEYS}


def check_portrait(ctx: Context, path: Path) -> int:
    """Returns the number of portrait levels built."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    require(len(rows) == len(ctx.docs), f"{len(rows)} portraits for {len(ctx.docs)} docs")
    levels = 0
    for doc, row in zip(ctx.docs, rows):
        require(row["id"] == doc.doc_id, f"portrait {row['id']!r} out of order")
        lv = [r["level"] for r in row["levels"]]
        require(lv == [s.level for s in doc.segments], f"{doc.doc_id}: levels {lv}")
        kept = {(r["level"], t) for r in row["levels"] for t in r["kept"]}
        for e in row["keyphrases"]:
            require((e["level"], e["text"]) in kept, f"{doc.doc_id}: entry {e['text']!r} not kept")
            require(e["group"] in ("present", "absent"), f"{doc.doc_id}: group {e['group']}")
        levels += len(lv)
    return levels


def check_analyze(ctx: Context, path: Path) -> float:
    """Returns the accuracy of the pure-portrait mode."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {r["mode"]: r for r in csv.DictReader(fh)}
    require(sorted(rows) == sorted(ANALYZE_MODES), f"analysis modes {sorted(rows)}")
    labeled = sum(d.label is not None for d in ctx.docs)
    for mode, r in rows.items():
        require(0.0 <= float(r["accuracy"]) <= 1.0, f"{mode} accuracy {r['accuracy']}")
        require(int(r["n_train"]) + int(r["n_test"]) == labeled, f"{mode}: split size")
    return float(rows["pure"]["accuracy"])


# ------------------------------------------------------------------ workloads


def write_corpus(ctx: Context, seed: int) -> None:
    save_jsonl(ctx.corpus, synth_corpus(seed, ctx.n_docs))


class Workload:
    name = ""
    config: dict = {}
    setup_repeats = 5  # set-up runs this often; setup_s is the median

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def setup_outputs(self, ctx: Context) -> list[Path]:
        return [ctx.corpus]

    def iteration(self, ctx: Context) -> Iteration:
        raise NotImplementedError

    def rates(self) -> dict:
        """Throughput name -> function of one iteration (per wall second)."""
        raise NotImplementedError

    def validity(self, ctx: Context, it: Iteration) -> list[str]:
        """Reasons this workload no longer measures what it was chosen for."""
        return []

    def traced_checks(self, ctx: Context, totals: dict, iterations: int,
                      it: Iteration) -> list[str]:
        return []


class Train(Workload):
    name = "train"
    config = {"n_docs": N_DOCS, "epochs": TRAIN_EPOCHS, "e1": TRAIN_E1,
              "corpus_seed": REFERENCE_SEED}

    def setup(self, ctx):
        write_corpus(ctx, REFERENCE_SEED)

    def iteration(self, ctx):
        it = Iteration()
        ckpt, loss = ctx.wd / "train.ckpt", ctx.wd / "loss.csv"
        argv = ["train", "--corpus", str(ctx.corpus), "--out-ckpt", str(ckpt),
                "--loss-csv", str(loss), "--epochs", str(TRAIN_EPOCHS), "--e1", str(TRAIN_E1)]
        cmd, out = ctx.cli(argv, TRAIN_EPOCHS,
                           lambda: check_train(ctx, loss, ckpt, TRAIN_EPOCHS, TRAIN_E1))
        it.commands.append(cmd)
        if out is not None:
            it.quality.update(out)
            it.hashes = {"train.ckpt": sha256_file(ckpt), "loss.csv": sha256_file(loss)}
        it.work["seg_epochs"] = ctx.n_segments * TRAIN_EPOCHS
        return it

    def rates(self):
        def rate(it):
            return it.work["seg_epochs"] / it.wall("train")
        return {"train_seg_per_s": rate, "seg_per_s": rate}

    def traced_checks(self, ctx, totals, iterations, it):
        saves = totals["calls"].get("params.save_checkpoint", 0)
        want = TRAIN_EPOCHS * iterations
        return [] if saves == want else [f"save_checkpoint ran {saves} times, expected {want}"]


class _Inference(Workload):
    def generate(self, ctx: Context, it: Iteration) -> list[int] | None:
        preds = ctx.wd / "predictions.jsonl"
        argv = ["generate", "--ckpt", str(ctx.ckpt), "--corpus", str(ctx.corpus),
                "--out", str(preds)]
        cmd, steps = ctx.cli(argv, len(ctx.docs), lambda: check_generate(ctx, preds))
        it.commands.append(cmd)
        if steps is not None:
            it.hashes["predictions.jsonl"] = sha256_file(preds)
            it.work["steps_mean"] = float(np.mean(steps))
            it.work["steps_min"] = min(steps)
        it.work["segments"] = ctx.n_segments
        return steps

    def rates(self):
        def rate(it):
            return it.work["segments"] / it.wall("generate")
        return {"generate_seg_per_s": rate, "seg_per_s": rate}

    def traced_checks(self, ctx, totals, iterations, it):
        backward = totals["calls"].get("autograd.backward", 0)
        return [] if backward == 0 else [f"Tape.backward ran {backward} times"]


class Infer(_Inference):
    name = "infer"
    setup_repeats = 2  # each set-up trains for ~15 s
    config = {"n_docs": N_DOCS, "setup_config": INFER_SETUP_CONFIG,
              "setup_epochs": INFER_SETUP_EPOCHS, "setup_e1": INFER_SETUP_E1,
              "train_corpus_seed": REFERENCE_SEED, "max_steps": INFER_MAX_STEPS}

    def setup(self, ctx):
        write_corpus(ctx, ctx.seed)
        cfg, train_corpus = ctx.wd / "setup.cfg", ctx.wd / "reference.jsonl"
        cfg.write_text(INFER_SETUP_CONFIG, encoding="utf-8")
        save_jsonl(train_corpus, synth_corpus(REFERENCE_SEED, ctx.n_docs))
        argv = ["train", "--config", str(cfg), "--corpus", str(train_corpus),
                "--out-ckpt", str(ctx.ckpt),
                "--epochs", str(INFER_SETUP_EPOCHS), "--e1", str(INFER_SETUP_E1)]
        # in a child process: peak_rss_mb of infer is that of inference
        rc, out = cli_process(argv)
        require(rc == 0, f"set-up train exited {rc}: {out}")
        load_checkpoint(ctx.ckpt)

    def setup_outputs(self, ctx):
        return [ctx.corpus, ctx.ckpt]

    def iteration(self, ctx):
        it = Iteration()
        self.generate(ctx, it)
        preds = ctx.wd / "predictions.jsonl"
        ev, por, ana = ctx.wd / "eval.csv", ctx.wd / "portraits.jsonl", ctx.wd / "analysis.csv"
        n = len(ctx.docs)

        cmd, q = ctx.cli(["eval", "--predictions", str(preds), "--corpus", str(ctx.corpus),
                          "--out", str(ev)], n, lambda: check_eval(ctx, ev))
        it.commands.append(cmd)
        if q is not None:
            it.hashes["eval.csv"] = sha256_file(ev)
            it.quality.update({
                "present_f1_at_m": q["present_f1@M"], "absent_f1_at_m": q["absent_f1@M"],
                "null_ratio": q["null_ratio"], "dup_ratio": q["duplication"],
            })

        cmd, levels = ctx.cli(["portrait", "--ckpt", str(ctx.ckpt), "--corpus", str(ctx.corpus),
                               "--out", str(por)], n, lambda: check_portrait(ctx, por))
        it.commands.append(cmd)
        if levels is not None:
            it.hashes["portraits.jsonl"] = sha256_file(por)
            it.work["levels"] = levels

        cmd, acc = ctx.cli(["analyze", "--portraits", str(por), "--corpus", str(ctx.corpus),
                            "--out", str(ana), "--seed", str(ctx.seed)], n,
                           lambda: check_analyze(ctx, ana))
        it.commands.append(cmd)
        if acc is not None:
            it.hashes["analysis.csv"] = sha256_file(ana)
            it.quality["portrait_pure_acc"] = acc
        return it

    def rates(self):
        return {
            "generate_seg_per_s": lambda it: it.work["segments"] / it.wall("generate"),
            "portrait_level_per_s": lambda it: it.work["levels"] / it.wall("portrait"),
            "seg_per_s": lambda it: (it.work["segments"] + it.work["levels"]) / it.wall_s,
        }

    def validity(self, ctx, it):
        out = []
        mean = it.work.get("steps_mean")
        if mean is not None and mean > INFER_MAX_STEPS:
            out.append(f"infer slots decode {mean:.2f} steps on average, more than "
                       f"{INFER_MAX_STEPS}: the set-up model is no longer trained")
        if "present_f1_at_m" in it.quality and not it.quality["present_f1_at_m"] > 0:
            out.append("infer present F1@M is 0: the set-up model is no longer trained")
        return out

    def traced_checks(self, ctx, totals, iterations, it):
        out = super().traced_checks(ctx, totals, iterations, it)
        gens = totals["calls"].get("inference.generate_slots", 0)
        want = (ctx.n_segments + it.work.get("levels", 0)) * iterations
        if gens != want:
            out.append(f"generate_slots ran {gens} times, expected {want} "
                       "(segments generated plus portrait levels)")
        if totals["steps_mean"] > INFER_MAX_STEPS:
            out.append(f"generate_slots ran {totals['steps_mean']:.2f} steps on average "
                       f"(limit {INFER_MAX_STEPS})")
        return out


class DecodeLong(_Inference):
    name = "decode_long"
    config = {"n_docs": N_DOCS, "stop_bias": STOP_BIAS}

    def setup(self, ctx):
        write_corpus(ctx, ctx.seed)
        docs = load_jsonl(ctx.corpus, RunConfig().max_segment_tokens)
        vocab = Vocabulary.build(docs)
        model = Model.fresh(ModelConfig(vocab_size=len(vocab)), ctx.seed)
        # some fresh inits rank EOS or the null marker first on a few inputs;
        # ruling both out keeps every slot emitting a word at every step, so
        # every slot decodes to the horizon and its text shows that it did
        model.store["kg.b"].data[[vocab.eos_id, vocab.null_id]] = STOP_BIAS
        meta = {"model_config": model.cfg.to_dict(), "vocab": vocab.tokens, "epoch": 0}
        save_checkpoint(ctx.ckpt, model.store, meta)

    def setup_outputs(self, ctx):
        return [ctx.corpus, ctx.ckpt]

    def iteration(self, ctx):
        it = Iteration()
        self.generate(ctx, it)
        return it

    def validity(self, ctx, it):
        low = it.work.get("steps_min")
        if low is not None and low < ctx.mcfg.max_kp_len:
            return [f"a decode_long segment stopped after {low} steps, before the "
                    f"{ctx.mcfg.max_kp_len}-step horizon"]
        return []

    def traced_checks(self, ctx, totals, iterations, it):
        out = super().traced_checks(ctx, totals, iterations, it)
        H = ctx.mcfg.max_kp_len
        if not totals["steps_min"] == totals["steps_max"] == H:
            out.append(f"generate_slots ran {totals['steps_min']}..{totals['steps_max']} "
                       f"steps, expected exactly {H}")
        return out


WORKLOADS = {w.name: w for w in (Train(), Infer(), DecodeLong())}
