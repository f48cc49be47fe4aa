"""Run the whole CLI pipeline and print the SHA-256 of every artifact.

Usage: python scripts/pipeline_hashes.py [--seeds 0 2] [--n-docs 64]

For each seed and each of two training schedules, in a fresh temporary
directory: `gen-corpus --seed S`, `train`, `generate`, `portrait`, `eval` and
`analyze`, each through `setkp.cli.main`. The three commands that read run
settings (`gen-corpus`, `train` and `analyze`) get the schedule's config
file; `generate`, `portrait` and `eval` take none, since they read the model
and vocabulary from the checkpoint and segment with the one fixed budget.
The default schedule's config is empty and it trains with
`--epochs 3 --e1 1`; its model keeps few keyphrases (none at seed 0). The
`trained` schedule is the benchmark's `infer` set-up (`lr = 0.003`,
`batch_size = 4`, `probe_docs = 0`, `--epochs 4 --e1 1`), whose model keeps
keyphrases, so its lines also cover filtering, ranking, stem dedup,
deeper-level prompts and the classifier's keyphrase input. Only `train`
reads those keys. `run_pipeline` is the one definition of the pipeline's
argv: acceptance criterion 09 runs it with its own config, and
`tests/test_scripts.py` compares seed 0's `hash_lines` with the record in
`tests/data/pipeline_hashes.txt`.
Prints one `seed <S> <file> <sha256>` line per artifact of the default
schedule, then one `seed <S> trained/<file> <sha256>` line per artifact of
the trained one, so that two trees can be compared byte for byte by diffing
this script's output.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

from setkp.cli import main as setkp

FILES = ("corpus.jsonl", "model.ckpt", "loss.csv", "predictions.jsonl", "portraits.jsonl",
         "eval.csv", "report.csv")
# line prefix -> (config file text, train options)
SCHEDULES = {
    "": ("", ["--epochs", "3", "--e1", "1"]),
    "trained/": ("lr = 0.003\nbatch_size = 4\nprobe_docs = 0\n", ["--epochs", "4", "--e1", "1"]),
}


def commands(workdir: Path, config: Path, corpus_options: Sequence[str] = (),
             train_options: Sequence[str] = ()) -> list[list[str]]:
    """The six commands' argv, writing ``FILES`` into workdir; the three
    that take a config file get ``--config config``."""
    corpus, ckpt, loss, preds, portraits, scores, report = (str(workdir / f) for f in FILES)
    c = ["--config", str(config)]
    return [
        ["gen-corpus", *c, *corpus_options, "--out", corpus],
        ["train", *c, "--corpus", corpus, "--out-ckpt", ckpt, "--loss-csv", loss, *train_options],
        ["generate", "--ckpt", ckpt, "--corpus", corpus, "--out", preds],
        ["portrait", "--ckpt", ckpt, "--corpus", corpus, "--out", portraits],
        ["eval", "--predictions", preds, "--corpus", corpus, "--out", scores],
        ["analyze", *c, "--portraits", portraits, "--corpus", corpus, "--out", report],
    ]


def run_pipeline(workdir: Path, config_text: str, corpus_options: Sequence[str] = (),
                 train_options: Sequence[str] = ()) -> dict[str, bytes]:
    """Write ``config_text`` to workdir/run.cfg, run the six commands in
    workdir with it, and return each of ``FILES`` by name with its bytes.
    The commands' output is swallowed; one that exits non-zero raises
    RuntimeError with its error line."""
    config = workdir / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    for argv in commands(workdir, config, corpus_options, train_options):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = setkp(argv)
        if code != 0:
            raise RuntimeError(f"setkp {argv[0]} exited {code}: {err.getvalue().strip()}")
    return {name: (workdir / name).read_bytes() for name in FILES}


def hash_lines(seed: int, n_docs: int) -> Iterator[str]:
    """One `seed <S> <schedule><file> <sha256>` line per artifact of each
    schedule's pipeline on ``synth_corpus(seed, n_docs)``, in ``SCHEDULES``
    and ``FILES`` order."""
    for schedule, (config_text, train_options) in SCHEDULES.items():
        with tempfile.TemporaryDirectory() as tmp:
            artifacts = run_pipeline(Path(tmp), config_text,
                                     ["--seed", str(seed), "--n-docs", str(n_docs)], train_options)
        for name, data in artifacts.items():
            yield f"seed {seed} {schedule}{name} {hashlib.sha256(data).hexdigest()}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 2], help="corpus seeds")
    ap.add_argument("--n-docs", type=int, default=64)
    args = ap.parse_args()

    for seed in args.seeds:
        try:
            for line in hash_lines(seed, args.n_docs):
                print(line, flush=True)
        except RuntimeError as e:
            sys.exit(f"seed {seed}: {e}")


if __name__ == "__main__":
    main()
