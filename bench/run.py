"""setkp benchmark: train / infer / decode_long through the CLI.

Run from the repository root:

    python3 bench/run.py --workload infer --seed 3 --seconds 15 --trace 0

Set-up (repeated, median reported as ``setup_s``) writes the corpus and,
per workload, a checkpoint. Times are in reference seconds (see
REF_NOMINAL_S); raw wall times are printed and recorded beside them. The measured phase then runs the workload's
CLI commands back to back, one client in this one process, until
``--seconds`` is spent, and checks every command's outputs. ``--trace 1``
runs the same measured phase untraced, then again with every layer's public
functions wrapped, and reports per-layer metrics and the tracing overhead.
The last stdout line is the JSON result; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / ".runs"  # run records, output hashes, span dumps
WORK_DIR = BENCH_DIR / ".work"  # per-run scratch files, removed at exit
BLAS_THREADS = 1  # same on every commit; never above nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_ITERATIONS = 1000
# A shared machine's speed drifts by 15-25% over minutes. Set-up repeats and
# measured iterations are therefore timed in reference seconds: wall time
# scaled by REF_NOMINAL_S over the mean time of a fixed kernel run just
# before and just after the interval. The kernel shares no code with the
# program, so a program change cannot move it.
REF_ROUNDS = 240
REF_NOMINAL_S = 0.1


class ProgramMissing(Exception):
    pass


def pin_environment() -> None:
    """Fix BLAS threads before numpy loads and drop setkp config overrides,
    so every run sees the same configuration."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for key in [k for k in os.environ if k.startswith("SETKP_")]:
        del os.environ[key]


def import_program():
    """Import setkp from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "setkp" / "__init__.py").is_file():
        raise ProgramMissing(f"no setkp sources under {src}")
    sys.path.insert(0, str(src))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import setkp

    if Path(setkp.__file__).resolve().parent != (src / "setkp").resolve():
        raise ProgramMissing(f"setkp imported from {setkp.__file__}, not {src}")
    return setkp


def tree_sha256(root: Path, prefix: bytes = b"") -> str:
    """Hash of every .py file under ``root``, names included."""
    h = hashlib.sha256(prefix)
    for p in sorted(root.rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD from the .git directory, when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    import ctypes
    import numpy as np

    cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):  # the copy numpy has loaded
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"blas": f"{cfg.get('name')} {cfg.get('version')}", "blas_threads": threads}


def run_record(args, config_sha: str, src_sha: str) -> dict:
    import numpy
    import scipy

    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "docs": args.docs,
        "git_commit": git_commit(),
        "source_sha256": src_sha,
        "config_sha256": config_sha,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
    }
    rec.update(blas_info())
    return rec


def reference_s() -> float:
    """Seconds for a fixed kernel with the program's mix of work: small
    matmuls, a softmax, a normalisation and interpreter-level dict churn."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64))
    w = rng.standard_normal((64, 256))
    v = rng.standard_normal((256, 160))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REF_ROUNDS):
        h = np.maximum(x @ w, 0.0) @ v
        h -= h.max(axis=1, keepdims=True)
        p = np.exp(h)
        p /= p.sum(axis=1, keepdims=True)
        z = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        acc += float(z[i % 64, 0]) + float(p[0, i % 160])
        acc += sum({f"k{j}": j for j in range(20)}.values())
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return elapsed


def ref_scales(refs: list[float]) -> list[float]:
    """Reference seconds per wall second for each interval between two
    consecutive kernel runs."""
    return [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]


def measure(wl, ctx, seconds: float = math.inf, count: int = MAX_ITERATIONS):
    """Closed loop, one client: iterations back to back until ``seconds``
    have passed (the iteration in flight then completes) or ``count`` ran.
    Returns the iterations and each one's reference scale."""
    its, refs = [], [reference_s()]
    t0 = time.perf_counter()
    while len(its) < count:
        its.append(wl.iteration(ctx))
        refs.append(reference_s())
        if time.perf_counter() - t0 >= seconds:
            break
    return its, ref_scales(refs)


def _median(values) -> float:
    return float(statistics.median(values))


UNITS = {
    "setup_s": "s", "seg_per_s": "1/s", "peak_rss_mb": "MB",
    "train_seg_per_s": "1/s", "generate_seg_per_s": "1/s", "portrait_level_per_s": "1/s",
    "train_loss_kg": "nats", "train_loss_kwe": "nats", "present_f1_at_m": "ratio",
    "absent_f1_at_m": "ratio", "null_ratio": "ratio", "dup_ratio": "ratio",
    "portrait_pure_acc": "ratio", "failed_ratio": "ratio",
    "wall_setup_s": "s", "wall_seg_per_s": "1/s", "ref_scale": "ratio",
}
END_TO_END = ("setup_s", "seg_per_s", "peak_rss_mb")


def compare_hashes(its: list, ref: dict, what: str) -> list[str]:
    errors = []
    for i, it in enumerate(its, start=1):
        for name, digest in it.hashes.items():
            if name in ref and ref[name] != digest:
                errors.append(f"{what} iteration {i}: {name} differs from the first output")
    return errors


def check_against_store(path: Path, hashes: dict) -> list[str]:
    """Outputs of one commit, workload and seed must repeat across runs."""
    if path.is_file():
        prev = json.loads(path.read_text(encoding="utf-8"))
        return [f"{k} differs from an earlier run of this commit and seed"
                for k, v in hashes.items() if k in prev and prev[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return []


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["train", "infer", "decode_long"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--docs", type=int, default=None,
                    help="corpus size (default 64; smaller only for smoke tests)")
    return ap.parse_args(argv)


def set_up(wl, ctx, repeats: int) -> tuple[list[float], list[float], dict, list[str]]:
    """Run the set-up ``repeats`` times; every repeat must write the same
    files. Returns wall times, reference scales, hashes and errors."""
    from workloads import sha256_file

    times, refs, first, errors = [], [reference_s()], None, []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.setup(ctx)
        times.append(time.perf_counter() - t0)
        refs.append(reference_s())
        hashes = {f"setup/{p.name}": sha256_file(p) for p in wl.setup_outputs(ctx)}
        if first is None:
            first = hashes
        elif hashes != first:
            errors.append("set-up outputs differ between repeats")
    return times, ref_scales(refs), first, errors


def traced_phase(wl, ctx, its: list, scales: list[float],
                 store: Path) -> tuple[dict, list, list[str]]:
    """Repeat the measured iterations with every layer wrapped; returns the
    per-layer metrics, the traced iterations and the check failures."""
    import spans
    import workloads

    tracer = spans.Tracer()
    ctx.tracer = tracer
    with tracer.installed():
        traced, traced_scales = measure(wl, ctx, count=len(its))
    ctx.tracer = None
    errors = [f"program no longer has traced function {m}" for m in tracer.missing]
    errors += compare_hashes(traced, its[0].hashes, "traced")
    layers, totals = spans.layer_metrics(tracer.spans, len(traced), workloads.TRAIN_E1)
    errors += wl.traced_checks(ctx, totals, len(traced), traced[-1])
    layers["trace.overhead"] = (
        _median([it.wall_s * k for it, k in zip(traced, traced_scales)])
        / _median([it.wall_s * k for it, k in zip(its, scales)]) - 1.0)
    tracer.write_jsonl(store / f"spans-{wl.name}.jsonl")
    return {k: {"value": v, "unit": spans.unit_of(k)} for k, v in layers.items()}, traced, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    args.docs = args.docs or workloads.N_DOCS
    config = dict(wl.config, n_docs=args.docs, setup_repeats=wl.setup_repeats,
                  blas_threads=BLAS_THREADS)
    # the workload is defined by its settings and by the benchmark's code
    config_sha = tree_sha256(BENCH_DIR, json.dumps(config, sort_keys=True).encode())
    src_sha = tree_sha256(ROOT / "src")
    record = run_record(args, config_sha, src_sha)
    store = RUNS_DIR / f"{src_sha[:16]}-{config_sha[:12]}"
    store.mkdir(parents=True, exist_ok=True)
    workdir = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(workdir, args.seed, args.docs)
        try:
            setup_s, setup_scales, setup_hashes, errors = set_up(wl, ctx, wl.setup_repeats)
        except workloads.CheckFailed as e:
            print(f"error: set-up failed: {e}", file=sys.stderr)
            return 1
        ctx.load_docs()

        its, scales = measure(wl, ctx, seconds=args.seconds)
        passed = [(it, k) for it, k in zip(its, scales) if it.passed]
        summary = {
            "setup_s": _median([t * k for t, k in zip(setup_s, setup_scales)]),
            **{name: _median([fn(it) / k for it, k in passed]) if passed else 0.0
               for name, fn in wl.rates().items()},
            **its[-1].quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_setup_s": _median(setup_s),
            "wall_seg_per_s": _median([wl.rates()["seg_per_s"](it) for it, _ in passed])
            if passed else 0.0,
            "ref_scale": _median(setup_scales + scales),
        }
        outputs = {**setup_hashes, **its[0].hashes}
        errors += compare_hashes(its, its[0].hashes, "untraced")
        errors += [e for it in its for e in wl.validity(ctx, it)]
        errors += check_against_store(store / f"{wl.name}-seed{args.seed}.json", outputs)

        if args.trace:
            metrics, traced, trace_errors = traced_phase(wl, ctx, its, scales, store)
            errors += trace_errors
        else:
            metrics = {k: {"value": summary[k], "unit": UNITS[k]} for k in END_TO_END}
            traced = []
        cmds = [c for it in its + traced for c in it.commands]
        errors = [c.error for c in cmds if c.error] + errors
        attempted = sum(c.ops for c in cmds)
        failed = sum(c.ops for c in cmds if c.error)
        summary["failed_ratio"] = failed / attempted

        record.update(iterations=len(its), iteration_s=[it.wall_s for it in its],
                      iteration_ref_scale=scales, setup_wall_s=setup_s,
                      setup_ref_scale=setup_scales,
                      attempted=attempted, failed=failed, summary=summary,
                      errors=errors, outputs=outputs)
        (store / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        print("record " + json.dumps({k: v for k, v in record.items()
                                      if not isinstance(v, (dict, list))}))
        for k, v in summary.items():
            print(f"{k:<22} {v:>14.6g} {UNITS[k]}")
        if args.trace:
            for k, m in metrics.items():
                print(f"{k:<40} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if not errors else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
