"""Run the whole CLI pipeline and print the SHA-256 of every artifact.

Usage: python scripts/pipeline_hashes.py [--seeds 0 2] [--n-docs 64]

For each seed and each of two training schedules, in a fresh temporary
directory: `gen-corpus --seed S`, `train`, `generate`, `portrait`, `eval` and
`analyze`, each through `setkp.cli.main`. The default schedule trains with
`--epochs 3 --e1 1`; its model keeps few keyphrases (none at seed 0). The
`trained` schedule is the benchmark's `infer` set-up (`lr = 0.003`,
`batch_size = 4`, `probe_docs = 0`, `--epochs 4 --e1 1`), whose model keeps
keyphrases, so its lines also cover filtering, ranking, stem dedup,
deeper-level prompts and the classifier's keyphrase input.
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

from setkp.cli import main as setkp

FILES = ("corpus.jsonl", "model.ckpt", "loss.csv", "predictions.jsonl", "portraits.jsonl",
         "eval.csv", "report.csv")
# line prefix -> (train config file, train options)
SCHEDULES = {
    "": ("", ["--epochs", "3", "--e1", "1"]),
    "trained/": ("lr = 0.003\nbatch_size = 4\nprobe_docs = 0\n", ["--epochs", "4", "--e1", "1"]),
}


def commands(args, seed: int, workdir: Path, schedule: str = "") -> list[list[str]]:
    corpus, ckpt, loss, preds, portraits, scores, report = (str(workdir / f) for f in FILES)
    return [
        ["gen-corpus", "--seed", str(seed), "--n-docs", str(args.n_docs), "--out", corpus],
        ["train", "--config", str(workdir / "train.cfg"), "--corpus", corpus, "--out-ckpt", ckpt,
         "--loss-csv", loss, *SCHEDULES[schedule][1]],
        ["generate", "--ckpt", ckpt, "--corpus", corpus, "--out", preds],
        ["portrait", "--ckpt", ckpt, "--corpus", corpus, "--out", portraits],
        ["eval", "--predictions", preds, "--corpus", corpus, "--out", scores],
        ["analyze", "--portraits", portraits, "--corpus", corpus, "--out", report],
    ]


def run_pipeline(args, seed: int, workdir: Path, schedule: str = "") -> None:
    (workdir / "train.cfg").write_text(SCHEDULES[schedule][0], encoding="utf-8")
    for argv in commands(args, seed, workdir, schedule):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = setkp(argv)
        if code != 0:
            sys.exit(f"seed {seed}: setkp {argv[0]} exited {code}: {err.getvalue().strip()}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 2], help="corpus seeds")
    ap.add_argument("--n-docs", type=int, default=64)
    args = ap.parse_args()

    for seed in args.seeds:
        for schedule in SCHEDULES:
            with tempfile.TemporaryDirectory() as tmp:
                run_pipeline(args, seed, Path(tmp), schedule)
                for name in FILES:
                    digest = hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                    print(f"seed {seed} {schedule}{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
