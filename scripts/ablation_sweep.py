"""Keyword-padding / keyword-control ablation sweep on held-out documents.

For each seed: train three models from the same initialization (both features
on, padding off, control off) on half the corpus, then compare null and
duplication ratios on the other half.
"""

import argparse
import time

from setkp import inference
from setkp.corpus import Vocabulary
from setkp.model import Model, ModelConfig
from setkp.synth import synth_corpus
from setkp.training import TsmtConfig, tsmt_train


def held_ratios(model, vocab, docs):
    return inference.slot_ratios(model, vocab, [seg.tokens for d in docs for seg in d.segments])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n-docs", type=int, default=16, help="half train, half held out")
    ap.add_argument("--epochs", type=int, default=16)
    ap.add_argument("--e1", type=int, default=8)
    args = ap.parse_args()

    t0 = time.time()
    pad_wins = ctl_wins = 0
    for s in range(args.seeds):
        docs = synth_corpus(1000 + s, args.n_docs)
        train, held = docs[: args.n_docs // 2], docs[args.n_docs // 2 :]
        vocab = Vocabulary.build(docs)
        mc = ModelConfig(vocab_size=len(vocab))
        mc_noctl = ModelConfig(vocab_size=len(vocab), use_keyword_control=False)
        budget = dict(epochs=args.epochs, e1=args.e1, probe_docs=0, seed=s)

        m = Model.fresh(mc, seed=s)
        tsmt_train(m, train, TsmtConfig(**budget), vocab)
        null_on, dup_on = held_ratios(m, vocab, held)

        m = Model.fresh(mc, seed=s)
        tsmt_train(m, train, TsmtConfig(**budget, use_keyword_padding=False), vocab)
        null_off, _ = held_ratios(m, vocab, held)

        m = Model.fresh(mc_noctl, seed=s)
        tsmt_train(m, train, TsmtConfig(**budget), vocab)
        _, dup_off = held_ratios(m, vocab, held)

        pad_wins += null_on <= null_off
        ctl_wins += dup_on <= dup_off
        print(f"seed {s}: null padded/plain={null_on:.3f}/{null_off:.3f}  "
              f"dup controlled/plain={dup_on:.3f}/{dup_off:.3f}  "
              f"t={time.time() - t0:.0f}s", flush=True)

    print(f"\npadding lowers nulls on {pad_wins}/{args.seeds} seeds; "
          f"control codes lower duplication on {ctl_wins}/{args.seeds}")


if __name__ == "__main__":
    main()
