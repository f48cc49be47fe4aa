"""Train on the synthetic corpus and print the training-set F1 curve.

Usage: python scripts/overfit_curve.py [--n-docs 64] [--epochs 30] [--every 5]
The final block dumps one document's raw slot outputs per level for eyeballing.
"""

import argparse
import time

from setkp import inference, metrics
from setkp.cli import _eval_record, _generate_doc
from setkp.corpus import Vocabulary
from setkp.model import Model, ModelConfig
from setkp.synth import synth_corpus
from setkp.training import TsmtConfig, tsmt_train


def scores(model, vocab, docs) -> str:
    """Training-set macro F1@M and slot ratios, scored as `setkp eval` scores."""
    _, m = metrics.evaluate([_eval_record(d, _generate_doc(model, vocab, d)) for d in docs])
    return (f"presentF1={m['present_f1@M']:.3f} absentF1={m['absent_f1@M']:.3f}  "
            f"null={m['null_ratio']:.2f} dup={m['duplication']:.2f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=TsmtConfig().epochs)
    ap.add_argument("--e1", type=int, default=TsmtConfig().e1)
    ap.add_argument("--every", type=int, default=5, help="probe every k epochs")
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--model-seed", type=int, default=0)
    args = ap.parse_args()

    docs = synth_corpus(args.corpus_seed, args.n_docs)
    vocab = Vocabulary.build(docs)
    model = Model.fresh(ModelConfig(vocab_size=len(vocab)), seed=args.model_seed)
    print(f"{args.n_docs} docs, vocab {len(vocab)}, {args.epochs} epochs (e1={args.e1})")

    t0 = time.time()
    state = {"epoch": 0}

    def probe(m):
        state["epoch"] += 1
        ep = state["epoch"]
        if ep % args.every == 0 or ep == args.epochs:
            print(f"epoch {ep:3d}  t={time.time() - t0:6.1f}s  {scores(m, vocab, docs)}",
                  flush=True)
        return 0.0, 0.0

    tcfg = TsmtConfig(epochs=args.epochs, e1=args.e1, probe_docs=0)
    tsmt_train(model, docs, tcfg, vocab, probe_fn=probe)
    print(f"final {scores(model, vocab, docs)} ({time.time() - t0:.0f}s)")

    d = docs[0]
    present, absent = d.keyphrase_tokens()
    print(f"\n{d.doc_id}: present={present} absent={absent}")
    for seg in d.segments:
        slots, _ = inference.generate_for_tokens(model, vocab, seg.tokens)
        print(f"  L{seg.level}:", [s.text if not s.is_null else "-" for s in slots])


if __name__ == "__main__":
    main()
