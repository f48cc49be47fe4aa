"""Tiny-size smoke runs of every workload and the tracer's self-checks.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ("--seed", "0", "--seconds", "0.1", "--docs", "6")


def run_bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_and_bounds():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in e2e
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert [w["name"] for w in SPEC["workloads"]] == ["train", "infer", "decode_long"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "decode_long"])
def test_tiny_run_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}


def test_tiny_infer_runs_every_command_and_flags_the_untrained_model():
    # six documents are too few for the set-up schedule to train a model, so
    # the workload-validity guard must fire while every command still passes
    proc = run_bench("--workload", "infer", "--trace", "1", *TINY)
    res = result(proc)
    assert res["failed"] == 0 and res["attempted"] == 2 * 4 * 6  # untraced + traced
    assert proc.returncode == 1 and not res["correct"]
    assert "no longer trained" in proc.stderr


def test_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".runs", ".work", "__pycache__"))
    proc = run_bench("--workload", "train", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_them():
    import setkp.assignment
    import setkp.inference
    import setkp.metrics
    import setkp.training
    from setkp.autograd import Tape
    from setkp.model import Model

    before = (setkp.training.k_step_predict, setkp.inference.stem_tokens,
              Model.encode, Tape.backward)
    tracer = spans.Tracer()
    with tracer.installed():
        assert setkp.training.k_step_predict is setkp.assignment.k_step_predict
        assert setkp.training.k_step_predict.__wrapped__ is before[0]
        assert setkp.inference.stem_tokens is setkp.metrics.stem_tokens
        assert setkp.inference.stem_tokens.__wrapped__ is before[1]
        assert Model.encode.__wrapped__ is before[2]
        assert Tape.backward.__wrapped__ is before[3]
        assert tracer.bindings["assignment.k_step_predict"] >= 2
        assert tracer.bindings["metrics.stem_tokens"] >= 2
        setkp.metrics.stem_tokens(["running", "dogs"])
    assert not tracer.missing
    assert [s[spans.NAME] for s in tracer.spans] == ["metrics.stem_tokens"]
    after = (setkp.training.k_step_predict, setkp.inference.stem_tokens,
             Model.encode, Tape.backward)
    assert all(a is b for a, b in zip(before, after))


def test_layer_metrics_self_times_steps_and_epochs():
    recs = [  # name, start, end, parent, command, extra
        ["cli.generate", 0.0, 10.0, -1, 1, None],
        ["inference.generate_slots", 1.0, 5.0, 0, 1, None],
        ["model.decode_probs", 1.0, 2.0, 1, 1, (8, 1)],
        ["model.decode_probs", 2.0, 4.0, 1, 1, (8, 2)],
        ["training.tsmt_train", 20.0, 30.0, -1, 2, None],
        ["params.save_checkpoint", 20.5, 21.0, 4, 2, None],
        ["params.save_checkpoint", 24.0, 25.0, 4, 2, None],
        ["params.save_checkpoint", 28.0, 29.0, 4, 2, None],
    ]
    m, totals = spans.layer_metrics(recs, iterations=2, e1=1)
    assert m["cli.generate.self_s"] == pytest.approx(6.0 / 2)
    assert m["inference.generate_slots.self_s"] == pytest.approx(1.0 / 2)
    assert m["inference.generate_slots.steps"] == 2.0
    assert m["model.decode_probs.calls"] == 1.0
    assert m["model.decode_probs.rows"] == (8 * 1 + 8 * 2) / 2
    assert m["model.decode_probs.T1.p50_ms"] == pytest.approx(1000.0)
    assert m["model.decode_probs.T8.p50_ms"] == 0.0
    assert m["training.stage1_epoch_s"] == pytest.approx(1.0)
    assert m["training.stage23_epoch_s"] == pytest.approx(4.0)
    assert totals["calls"]["params.save_checkpoint"] == 3
    assert totals["steps_min"] == totals["steps_max"] == 2
