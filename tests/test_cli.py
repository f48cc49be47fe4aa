import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from setkp import inference
from setkp.autograd import Tape
from setkp.cli import main
from setkp.config import RunConfig, load_run_config, parse_config_file
from setkp.corpus import load_jsonl
from setkp.inference import load_portraits, load_predictions
from setkp.model import Model, ModelConfig
from setkp.params import ParamStore, load_checkpoint, save_checkpoint
from setkp.training import TsmtConfig

TINY_CFG = """\
# desk test setup
d = 16
n_heads = 2
ffn_width = 32
n_slots = 4
n_control_keywords = 1
epochs = 3
e1 = 2
batch_size = 4
probe_docs = 2
n_docs = 6
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the per-command assertions."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    paths = {
        "cfg": cfg,
        "corpus": root / "corpus.jsonl",
        "ckpt": root / "model.ckpt",
        "loss": root / "loss.csv",
        "preds": root / "preds.jsonl",
        "portraits": root / "portraits.jsonl",
        "eval": root / "eval.csv",
        "analysis": root / "analysis.csv",
    }
    c = str(cfg)
    steps = [
        ["gen-corpus", "--config", c, "--out", str(paths["corpus"]), "--seed", "3"],
        ["train", "--config", c, "--corpus", str(paths["corpus"]),
         "--out-ckpt", str(paths["ckpt"]), "--loss-csv", str(paths["loss"]), "--seed", "3"],
        ["generate", "--config", c, "--ckpt", str(paths["ckpt"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["preds"])],
        ["portrait", "--config", c, "--ckpt", str(paths["ckpt"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["portraits"])],
        ["eval", "--config", c, "--predictions", str(paths["preds"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["eval"])],
        ["analyze", "--config", c, "--portraits", str(paths["portraits"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["analysis"]), "--seed", "3"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return paths


def test_gen_corpus_output(pipeline):
    docs = load_jsonl(pipeline["corpus"], 32)
    assert len(docs) == 6
    assert all(d.label for d in docs)
    assert all(2 <= len(d.segments) <= 3 for d in docs)


def test_gen_corpus_deterministic(tmp_path, pipeline):
    out = tmp_path / "again.jsonl"
    assert main(["gen-corpus", "--config", str(pipeline["cfg"]),
                 "--out", str(out), "--seed", "3"]) == 0
    assert out.read_bytes() == pipeline["corpus"].read_bytes()


def test_train_outputs(pipeline):
    assert pipeline["ckpt"].exists()
    lines = pipeline["loss"].read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1 + 3  # header + one row per epoch
    assert lines[1].startswith("1,stage1,")
    assert lines[3].startswith("3,stage23,")
    # probe columns filled when probe_docs > 0
    assert lines[1].split(",")[5] != ""


def test_generate_rows_cover_corpus(pipeline):
    rows = load_predictions(pipeline["preds"])
    docs = load_jsonl(pipeline["corpus"], 32)
    assert [r["id"] for r in rows] == [d.doc_id for d in docs]
    for row, doc in zip(rows, docs):
        assert [s["level"] for s in row["segments"]] == [s.level for s in doc.segments]
        for seg in row["segments"]:
            assert len(seg["slots"]) == 4
            for s in seg["slots"]:
                assert set(s) == {"text", "null", "group", "confidence"}


def test_generate_deterministic(tmp_path, pipeline):
    out = tmp_path / "again.jsonl"
    assert main(["generate", "--config", str(pipeline["cfg"]), "--ckpt", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["preds"].read_bytes()


def test_portrait_output(pipeline):
    ps = load_portraits(pipeline["portraits"])
    docs = load_jsonl(pipeline["corpus"], 32)
    assert [p.doc_id for p in ps] == [d.doc_id for d in docs]
    for p, d in zip(ps, docs):
        assert [r.level for r in p.levels] == [s.level for s in d.segments]


def test_inference_commands_keep_the_traced_benchmark_counts(tmp_path, pipeline, monkeypatch):
    """The traced benchmark run expects one generate_slots call per generated
    segment and per portrait level, each running at most max_kp_len
    decode_probs calls, and no backward pass."""
    steps: list[int] = []
    decodes: list[int] = []
    backwards: list[int] = []
    generate_slots, decode_probs, backward = (inference.generate_slots, Model.decode_probs,
                                              Tape.backward)

    def counted_generate(*args, **kwargs):
        before = len(decodes)
        out = generate_slots(*args, **kwargs)
        steps.append(len(decodes) - before)
        return out

    def counted_decode(self, *args, **kwargs):
        decodes.append(1)
        return decode_probs(self, *args, **kwargs)

    def counted_backward(self, *args, **kwargs):
        backwards.append(1)
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(inference, "generate_slots", counted_generate)
    monkeypatch.setattr(Model, "decode_probs", counted_decode)
    monkeypatch.setattr(Tape, "backward", counted_backward)
    docs = load_jsonl(pipeline["corpus"], 32)
    horizon = load_checkpoint(pipeline["ckpt"])[1]["model_config"]["max_kp_len"]
    runs = [
        (_argv("generate", pipeline, tmp_path / "p.jsonl"), sum(len(d.segments) for d in docs)),
        (_argv("portrait", pipeline, tmp_path / "a.jsonl"), sum(len(d.segments) for d in docs)),
        ([*_argv("portrait", pipeline, tmp_path / "b.jsonl"), "--max-levels", "1"], len(docs)),
    ]
    for argv, calls in runs:
        steps.clear()
        assert main(argv) == 0, argv[0]
        assert len(steps) == calls, argv
        assert all(1 <= n <= horizon for n in steps), argv
    assert backwards == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, None),
    ({"MKL_NUM_THREADS": "2"}, None),
])
def test_import_pins_openblas_unless_a_thread_count_is_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import os, setkp, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(want)


def test_eval_csv_has_macro_row(pipeline):
    lines = pipeline["eval"].read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("doc_id,")
    assert len(lines) == 1 + 6 + 1  # header, per-doc rows, macro
    assert lines[-1].startswith("MACRO,")
    for cell in lines[-1].split(",")[1:]:
        assert 0.0 <= float(cell) <= 1.0


def test_analyze_csv_all_modes(pipeline):
    lines = pipeline["analysis"].read_text(encoding="utf-8").strip().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["mode", "original", "pure", "augmented"]


def test_analyze_single_mode_and_levels(tmp_path, pipeline):
    out = tmp_path / "one.csv"
    assert main(["analyze", "--config", str(pipeline["cfg"]), "--portraits", str(pipeline["portraits"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 "--mode", "original", "--levels", "1,2", "--seed", "3"]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith('original,"1,2",')


# ------------------------------------------------------------------- failures


def test_eval_unknown_doc_id_fails(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "nope", "segments": []}) + "\n", encoding="utf-8")
    rc = main(["eval", "--config", str(pipeline["cfg"]), "--predictions", str(bad),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_portraits_fails(tmp_path, pipeline, capsys):
    empty = tmp_path / "none.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(["analyze", "--config", str(pipeline["cfg"]), "--portraits", str(empty),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "a.csv")])
    assert rc == 1
    assert "portraits missing" in capsys.readouterr().err


def test_bad_levels_flag_fails(tmp_path, pipeline, capsys):
    rc = main(["analyze", "--config", str(pipeline["cfg"]), "--portraits", str(pipeline["portraits"]),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "a.csv"),
               "--levels", "one,two"])
    assert rc == 1
    assert "expected e.g. 1,2" in capsys.readouterr().err


@pytest.mark.parametrize("value", [",", "", "0,9", "-1"])
def test_levels_flag_rejects_empty_or_non_positive_levels(tmp_path, pipeline, capsys, value):
    out = tmp_path / "a.csv"
    rc = main(["analyze", "--config", str(pipeline["cfg"]), "--portraits", str(pipeline["portraits"]),
               "--corpus", str(pipeline["corpus"]), "--out", str(out), "--levels", value])
    assert rc == 1
    assert f"--levels needs one or more levels of at least 1, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_checkpoint_fails(tmp_path, pipeline, capsys):
    rc = main(["generate", "--ckpt", str(tmp_path / "absent.ckpt"),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_portrait_rejects_max_levels_below_one(tmp_path, pipeline, capsys, value):
    out = tmp_path / "p.jsonl"
    rc = main(["portrait", "--config", str(pipeline["cfg"]), "--ckpt", str(pipeline["ckpt"]),
               "--corpus", str(pipeline["corpus"]), "--out", str(out), "--max-levels", value])
    assert rc == 1
    assert f"--max-levels must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _rewrite_checkpoint(src, dst, edit_meta=None, drop=None):
    store, meta = load_checkpoint(src)
    kept = ParamStore()
    for name, t in store.items():
        if name != drop:
            kept.create(name, t.data)
    save_checkpoint(dst, kept, edit_meta(meta) if edit_meta else meta)
    return dst


@pytest.mark.parametrize("edit_meta, drop, message", [
    (lambda m: {k: v for k, v in m.items() if k != "model_config"}, None,
     "checkpoint metadata has no model_config"),
    (lambda m: {**m, "vocab": m["vocab"][:-5]}, None, "tokens, vocab_size is"),
    (None, "dec.L0.cq", "parameter 'dec.L0.cq': checkpoint has shape none"),
], ids=["no-model-config", "short-vocab", "missing-parameter"])
def test_inconsistent_checkpoint_rejected_at_load(tmp_path, pipeline, capsys,
                                                  edit_meta, drop, message):
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.ckpt", edit_meta, drop)
    out = tmp_path / "p.jsonl"
    rc = main(["generate", "--config", str(pipeline["cfg"]), "--ckpt", str(ckpt),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{ckpt}: " in err and message in err
    assert not out.exists()


def test_checkpoint_with_minimal_metadata_accepted(tmp_path, pipeline):
    keep = ("model_config", "vocab", "epoch")
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "min.ckpt",
                               lambda m: {k: m[k] for k in keep})
    out = tmp_path / "p.jsonl"
    assert main(["generate", "--config", str(pipeline["cfg"]), "--ckpt", str(ckpt),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["preds"].read_bytes()


# --------------------------------------------------------------------- config


def test_parse_config_file_values(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 5  # comment\nuse_keyword_padding = off\nlr = 1e-3\n", encoding="utf-8")
    got = parse_config_file(p)
    assert got == {"epochs": 5, "use_keyword_padding": False, "lr": 1e-3}


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(p)


def test_parse_config_rejects_bad_bool(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("use_keyword_padding = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(p)


def test_config_precedence_flags_over_env_over_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 5\ne1 = 2\nbatch_size = 2\nd = 16\n", encoding="utf-8")
    rc = load_run_config(p, {"epochs": 9}, environ={"SETKP_EPOCHS": "7", "SETKP_BATCH_SIZE": "4"})
    assert rc.epochs == 9  # flag wins
    assert rc.batch_size == 4  # env beats file
    assert rc.d == 16  # file beats default


def test_config_none_flags_ignored():
    rc = load_run_config(None, {"epochs": None, "seed": 11}, environ={})
    assert rc.epochs == RunConfig().epochs
    assert rc.seed == 11


def test_run_config_builds_model_and_train_configs():
    rc = RunConfig(d=16, n_heads=2, n_slots=4, n_control_keywords=1, ffn_width=32,
                   epochs=4, e1=2, seed=9)
    mc = rc.model_config(vocab_size=50)
    assert mc == ModelConfig(vocab_size=50, d=16, n_heads=2, n_slots=4, n_control_keywords=1,
                             ffn_width=32)
    assert rc.train_config() == TsmtConfig(epochs=4, e1=2, seed=9)


def test_config_keys_are_the_model_and_train_fields(tmp_path):
    keys = [f for f in fields(ModelConfig) if f.name != "vocab_size"] + list(fields(TsmtConfig))
    pipeline_keys = {"n_docs", "vocab_profile", "max_segment_tokens", "min_freq"}
    assert {f.name for f in fields(RunConfig)} == {f.name for f in keys} | pipeline_keys
    p = tmp_path / "c.cfg"
    for f in keys:
        assert getattr(RunConfig(), f.name) == f.default
        p.write_text(f"{f.name} = {f.default}\n", encoding="utf-8")
        assert parse_config_file(p) == {f.name: f.default}


def _argv(cmd: str, pipeline: dict, out) -> list[str]:
    p = {k: str(v) for k, v in pipeline.items()}
    return {
        "gen-corpus": ["gen-corpus", "--out"],
        "train": ["train", "--corpus", p["corpus"], "--out-ckpt"],
        "generate": ["generate", "--ckpt", p["ckpt"], "--corpus", p["corpus"], "--out"],
        "portrait": ["portrait", "--ckpt", p["ckpt"], "--corpus", p["corpus"], "--out"],
        "eval": ["eval", "--predictions", p["preds"], "--corpus", p["corpus"], "--out"],
        "analyze": ["analyze", "--portraits", p["portraits"], "--corpus", p["corpus"], "--out"],
    }[cmd] + [str(out)]


COMMANDS = ["gen-corpus", "train", "generate", "portrait", "eval", "analyze"]


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("line, message", [
    ("n_slots = 5", "n_slots must be even"),
    ("e1 = 0", "need 0 < e1 <= epochs"),
])
def test_invalid_config_rejected_on_every_command(tmp_path, pipeline, capsys, cmd, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*_argv(cmd, pipeline, out), "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_file_value_names_file_line_and_key(tmp_path, pipeline, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 5\nd =\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*_argv("generate", pipeline, out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {cfg}:2: d: '' is not an int"


def test_bad_env_value_names_variable(tmp_path, pipeline, capsys, monkeypatch):
    monkeypatch.setenv("SETKP_LR", "fast")
    assert main(_argv("eval", pipeline, tmp_path / "out")) == 1
    assert capsys.readouterr().err.strip() == "error: SETKP_LR: lr: 'fast' is not a float"


@pytest.mark.parametrize("cmd", COMMANDS)
def test_seed_flag_only_on_commands_that_read_it(cmd, capsys):
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    out = capsys.readouterr().out
    assert ("--seed" in out) == (cmd in {"gen-corpus", "train", "analyze"})
    assert "--threads" not in out
