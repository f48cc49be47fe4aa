"""Run the whole CLI pipeline and print the SHA-256 of every artifact.

Usage: python scripts/pipeline_hashes.py [--seeds 0 2] [--n-docs 64]

For each seed, in a fresh temporary directory: `gen-corpus --seed S`,
`train --epochs 3 --e1 1`, `generate`, `portrait`, `eval` and `analyze`, each
through `setkp.cli.main`.
Prints one `seed <S> <file> <sha256>` line per artifact, so that two trees can
be compared byte for byte by diffing this script's output.
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


def commands(args, seed: int, workdir: Path) -> list[list[str]]:
    corpus, ckpt, loss, preds, portraits, scores, report = (str(workdir / f) for f in FILES)
    return [
        ["gen-corpus", "--seed", str(seed), "--n-docs", str(args.n_docs), "--out", corpus],
        ["train", "--corpus", corpus, "--out-ckpt", ckpt, "--loss-csv", loss,
         "--epochs", "3", "--e1", "1"],
        ["generate", "--ckpt", ckpt, "--corpus", corpus, "--out", preds],
        ["portrait", "--ckpt", ckpt, "--corpus", corpus, "--out", portraits],
        ["eval", "--predictions", preds, "--corpus", corpus, "--out", scores],
        ["analyze", "--portraits", portraits, "--corpus", corpus, "--out", report],
    ]


def run_pipeline(args, seed: int, workdir: Path) -> None:
    for argv in commands(args, seed, workdir):
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
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(args, seed, Path(tmp))
            for name in FILES:
                digest = hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                print(f"seed {seed} {name} {digest}", flush=True)


if __name__ == "__main__":
    main()
