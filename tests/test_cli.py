import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from setkp import inference
from setkp.autograd import Tape
from setkp.cli import _eval_record, main
from setkp.config import RunConfig, load_run_config, parse_config_file
from setkp.corpus import MultiLevelDocument, build_segments, load_jsonl, read_jsonl
from setkp.inference import load_portraits
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
        ["generate", "--ckpt", str(paths["ckpt"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["preds"])],
        ["portrait", "--ckpt", str(paths["ckpt"]),
         "--corpus", str(paths["corpus"]), "--out", str(paths["portraits"])],
        ["eval", "--predictions", str(paths["preds"]),
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
    rows = [rec for _, rec in read_jsonl(pipeline["preds"])]
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
    assert main(["generate", "--ckpt", str(pipeline["ckpt"]),
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


@pytest.mark.parametrize("preset", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "2"},
    {"MKL_NUM_THREADS": "2"},
])
def test_import_pins_openblas_whatever_thread_count_is_set(preset):
    # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS when numpy loads
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import os, setkp, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


_NUMPY_OPENBLAS = sorted(
    (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


@pytest.mark.skipif(not _NUMPY_OPENBLAS, reason="numpy does not bundle OpenBLAS")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_import_after_numpy_pins_the_loaded_openblas(preset):
    # numpy is loaded, and its OpenBLAS has read the environment, before
    # setkp is imported; the pin overrides a thread count the user set
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import ctypes, sys, numpy, setkp\n"
            "lib = ctypes.CDLL(sys.argv[1])\n"
            "get = getattr(lib, 'scipy_openblas_get_num_threads64_', None) "
            "or lib.openblas_get_num_threads\n"
            "print(get())")
    proc = subprocess.run([sys.executable, "-c", code, str(_NUMPY_OPENBLAS[0])], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 1


def test_corpus_and_training_commands_load_no_scipy(tmp_path, pipeline):
    # slot-to-target assignment is solved in-repo; loading scipy.optimize
    # would cost a training process about 40 MB
    c = str(pipeline["cfg"])
    runs = [
        ["gen-corpus", "--config", c, "--out", str(tmp_path / "corpus.jsonl"), "--seed", "3"],
        ["train", "--config", c, "--corpus", str(tmp_path / "corpus.jsonl"),
         "--out-ckpt", str(tmp_path / "model.ckpt"), "--loss-csv", str(tmp_path / "loss.csv"),
         "--seed", "3"],
    ]
    code = ("import json, sys, setkp.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert setkp.cli.main(argv) == 0, argv[0]\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    for name in ("corpus", "ckpt", "loss"):
        assert (tmp_path / pipeline[name].name).read_bytes() == pipeline[name].read_bytes(), name


def test_inference_commands_leave_scipy_optimize_unloaded(tmp_path, pipeline):
    # no command needs scipy.optimize, which more than doubles the memory and
    # start-up time of an inference command
    runs = [_argv(cmd, pipeline, tmp_path / cmd)
            for cmd in ("generate", "eval", "portrait", "analyze")]
    code = ("import json, sys, setkp, setkp.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert setkp.cli.main(argv) == 0, argv[0]\n"
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / cmd).exists() for cmd in ("generate", "eval", "portrait", "analyze"))
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_eval_csv_has_macro_row(pipeline):
    lines = pipeline["eval"].read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("doc_id,")
    assert len(lines) == 1 + 6 + 1  # header, per-doc rows, macro
    assert lines[-1].startswith("MACRO,")
    for cell in lines[-1].split(",")[1:]:
        assert 0.0 <= float(cell) <= 1.0


def _eval_doc():
    """A document whose padding-keyword pool is [["epoxy"], ["coating"]]."""
    doc = MultiLevelDocument(doc_id="d", title="an epoxy resin binder",
                             abstract="the coating cures fast.", claims="a binder with a coating.",
                             present_keyphrases=["epoxy coating"], absent_keyphrases=[])
    build_segments(doc, 32)
    assert inference.padding_keyword_spans(doc) == [["epoxy"], ["coating"]]
    return doc


def _kept_row(*segments):
    """A predictions row whose segments keep the given (text, confidence) entries."""
    return {"id": "d", "segments": [
        {"level": i + 1, "slots": [],
         "kept": [{"text": t, "group": "present", "confidence": c} for t, c in kept]}
        for i, kept in enumerate(segments)]}


def test_eval_ranks_equal_confidences_in_entry_order():
    # segment 1's low-confidence "resin" shares its stem with segment 2's
    # "resins", which ties with "alpha" before it: the tie keeps file order
    row = _kept_row([("resin", 0.3)], [("alpha", 0.5), ("resins", 0.5)])
    assert _eval_record(_eval_doc(), row).predictions == [["alpha"], ["resins"]]


def test_eval_drops_a_padding_span_before_the_stem_dedup():
    # the top "coating" is a padding span; the same-stem "coatings" is not
    row = _kept_row([("coating", 0.9), ("binder", 0.6)], [("coatings", 0.4)])
    assert _eval_record(_eval_doc(), row).predictions == [["binder"], ["coatings"]]


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
    rc = main(["eval", "--predictions", str(bad),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}:1: predictions reference unknown document 'nope'\n"


def test_eval_names_a_malformed_predictions_line(tmp_path, pipeline, capsys):
    lines = pipeline["preds"].read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(lines[0] + "\n\n" + lines[1][:-1] + "\n", encoding="utf-8")  # line 3 cut short
    out = tmp_path / "e.csv"
    rc = main(["eval", "--predictions", str(bad),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:3: malformed JSON")
    assert not out.exists()


def test_eval_rejects_an_empty_predictions_file(tmp_path, pipeline, capsys):
    empty = tmp_path / "none.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "e.csv"
    rc = main(["eval", "--predictions", str(empty),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {empty}: no predictions to score\n"
    assert not out.exists()


def _drop_slot_null(row):
    del row["segments"][0]["slots"][0]["null"]


def _drop_keyphrases(row):
    del row["keyphrases"]


def _add_entry_without_level(row):
    row["keyphrases"].append({"text": "epoxy resin", "group": "present", "confidence": 0.5})


def _keep_an_unknown_phrase(row):
    row["levels"][0]["kept"].append("no such phrase")


def _slot_text_a_number(row):
    row["segments"][0]["slots"][0]["text"] = 5


def _id_a_list(row):
    row["id"] = ["x"]


def _add_entry_with_a_text_level(row):
    row["keyphrases"].append({"text": "epoxy resin", "level": "1", "group": "present"})


@pytest.mark.parametrize("cmd,source,spoil,message", [
    ("eval", "preds", _drop_slot_null, "missing field 'null'"),
    ("analyze", "portraits", _drop_keyphrases, "missing field 'keyphrases'"),
    ("analyze", "portraits", _add_entry_without_level, "missing field 'level'"),
    ("analyze", "portraits", _keep_an_unknown_phrase,
     "level 1 keeps 'no such phrase', which is no keyphrase of that level"),
    ("eval", "preds", _slot_text_a_number, "text must be a string"),
    ("eval", "preds", _id_a_list, "id must be a string"),
    ("analyze", "portraits", _id_a_list, "id must be a string"),
    ("analyze", "portraits", _add_entry_with_a_text_level, "level must be an integer"),
])
def test_malformed_input_names_file_and_line(tmp_path, pipeline, capsys, cmd, source, spoil,
                                             message):
    rows = [json.loads(line) for line in pipeline[source].read_text(encoding="utf-8").splitlines()]
    spoil(rows[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    flag = "--predictions" if cmd == "eval" else "--portraits"
    out = tmp_path / "out.csv"
    rc = main([cmd, flag, str(bad),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def outputs64(tmp_path_factory, pipeline):
    """The tiny model's `generate` and `portrait` outputs on a 64-document corpus."""
    root = tmp_path_factory.mktemp("pipe64")
    paths = {k: root / f"{k}.jsonl" for k in ("corpus", "preds", "portraits")}
    c, ckpt = str(pipeline["cfg"]), str(pipeline["ckpt"])
    assert main(["gen-corpus", "--config", c, "--n-docs", "64", "--seed", "3",
                 "--out", str(paths["corpus"])]) == 0
    for cmd, out in (("generate", "preds"), ("portrait", "portraits")):
        assert main([cmd, "--ckpt", ckpt, "--corpus", str(paths["corpus"]),
                     "--out", str(paths[out])]) == 0
    return paths


@pytest.mark.parametrize("cmd,source", [("eval", "preds"), ("analyze", "portraits")])
def test_repeated_document_id_names_both_lines(tmp_path, pipeline, outputs64, capsys, cmd,
                                               source):
    lines = outputs64[source].read_text(encoding="utf-8").splitlines()
    assert len(lines) == 64
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(line + "\n" for line in lines + [lines[1]]), encoding="utf-8")
    flag = "--predictions" if cmd == "eval" else "--portraits"
    out = tmp_path / "out.csv"
    rc = main([cmd, flag, str(bad),
               "--corpus", str(outputs64["corpus"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {bad}:65: document id 'doc-0001' "
                                       "already on line 2\n")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["generate", "portrait"])
def test_inference_commands_name_an_empty_segment_before_encoding(tmp_path, pipeline, capsys,
                                                                  monkeypatch, cmd):
    rows = [json.loads(line) for line in pipeline["corpus"].read_text(encoding="utf-8").splitlines()]
    rows[1].update(title="", abstract=" , ")  # level 1 tokenizes to nothing
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    encodes = []
    monkeypatch.setattr(Model, "encode", lambda self, ids: encodes.append(ids))
    out = tmp_path / "out.jsonl"
    rc = main([cmd, "--ckpt", str(pipeline["ckpt"]),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: document {rows[1]['id']!r} level 1: segment of 0 "
                                       "tokens, need 1 to max_encode_len=256\n")
    assert encodes == [] and not out.exists()


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


@pytest.mark.parametrize("value, level", [("99", 99), ("1,4,9", 4)])
def test_levels_flag_rejects_a_level_no_document_has(tmp_path, pipeline, capsys, value, level):
    assert max(len(d.segments) for d in load_jsonl(pipeline["corpus"])) < 4
    out = tmp_path / "a.csv"
    rc = main(["analyze", "--portraits", str(pipeline["portraits"]),
               "--corpus", str(pipeline["corpus"]), "--out", str(out), "--levels", value])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: --levels {value!r}: no corpus document has "
                                       f"level {level}\n")
    assert not out.exists()


def test_eval_rejects_predictions_that_leave_out_a_document(tmp_path, pipeline, capsys):
    lines = pipeline["preds"].read_text(encoding="utf-8").splitlines()
    part = tmp_path / "part.jsonl"
    part.write_text(lines[0] + "\n" + lines[3] + "\n", encoding="utf-8")
    out = tmp_path / "e.csv"
    rc = main(["eval", "--predictions", str(part), "--corpus", str(pipeline["corpus"]),
               "--out", str(out)])
    assert rc == 1
    second = load_jsonl(pipeline["corpus"])[1].doc_id
    assert capsys.readouterr().err == (f"error: predictions missing for 4 documents, "
                                       f"e.g. {second!r}\n")
    assert not out.exists()


def test_missing_checkpoint_fails(tmp_path, pipeline, capsys):
    rc = main(["generate", "--ckpt", str(tmp_path / "absent.ckpt"),
               "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "p.jsonl")])
    assert rc == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_portrait_rejects_max_levels_below_one(tmp_path, pipeline, capsys, value):
    out = tmp_path / "p.jsonl"
    rc = main(["portrait", "--ckpt", str(pipeline["ckpt"]),
               "--corpus", str(pipeline["corpus"]), "--out", str(out), "--max-levels", value])
    assert rc == 1
    assert f"--max-levels must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _rewrite_checkpoint(src, dst, edit_meta=None, drop=None, edit_param=None):
    store, meta = load_checkpoint(src)
    kept = ParamStore()
    for name, t in store.items():
        if name != drop:
            kept.create(name, edit_param(name, t.data.copy()) if edit_param else t.data)
    save_checkpoint(dst, kept, edit_meta(meta) if edit_meta else meta)
    return dst


@pytest.mark.parametrize("edit_meta, drop, message", [
    (lambda m: {k: v for k, v in m.items() if k != "model_config"}, None,
     "checkpoint metadata has no model_config"),
    (lambda m: {**m, "vocab": m["vocab"][:-5]}, None, "tokens, vocab_size is"),
    (None, "dec.L0.cq", "parameter 'dec.L0.cq': checkpoint has shape none"),
    # the last token replaced by a copy of id 5's, and by a number
    (lambda m: {**m, "vocab": [*m["vocab"][:-1], m["vocab"][5]]}, None,
     "is listed at ids 5 and "),
    (lambda m: {**m, "vocab": [*m["vocab"][:-1], 7]}, None, "is not a string: 7"),
], ids=["no-model-config", "short-vocab", "missing-parameter", "repeated-token",
        "non-string-token"])
def test_inconsistent_checkpoint_rejected_at_load(tmp_path, pipeline, capsys,
                                                  edit_meta, drop, message):
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.ckpt", edit_meta, drop)
    out = tmp_path / "p.jsonl"
    rc = main(["generate", "--ckpt", str(ckpt),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{ckpt}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected_at_load(tmp_path, pipeline, capsys, value):
    def poison(name, data):
        if name == "kg.w":
            data[3, 5] = value
        return data

    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.ckpt", edit_param=poison)
    out = tmp_path / "p.jsonl"
    rc = main(["generate", "--ckpt", str(ckpt),
               "--corpus", str(pipeline["corpus"]), "--out", str(out)])
    assert rc == 1
    assert f"{ckpt}: parameter 'kg.w' holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_large_finite_parameters_load(tmp_path, pipeline):
    # the benchmark's fresh decode checkpoint holds -100 in kg.b
    def bias_out(name, data):
        if name == "kg.b":
            data[:2] = -100.0
        return data

    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "biased.ckpt", edit_param=bias_out)
    assert main(["generate", "--ckpt", str(ckpt),
                 "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / "p.jsonl")]) == 0


def test_checkpoint_load_draws_no_model(tmp_path, pipeline, monkeypatch):
    def drawn(*args):
        raise AssertionError("Model.fresh called")

    monkeypatch.setattr(Model, "fresh", drawn)
    out = tmp_path / "p.jsonl"
    assert main(["generate", "--ckpt", str(pipeline["ckpt"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 0
    assert out.read_bytes() == pipeline["preds"].read_bytes()


def test_checkpoint_with_minimal_metadata_accepted(tmp_path, pipeline):
    keep = ("model_config", "vocab", "epoch")
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "min.ckpt",
                               lambda m: {k: m[k] for k in keep})
    out = tmp_path / "p.jsonl"
    assert main(["generate", "--ckpt", str(ckpt),
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


def test_config_precedence_flags_over_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("epochs = 5\ne1 = 2\nd = 16\n", encoding="utf-8")
    rc = load_run_config(p, {"epochs": 9})
    assert rc.epochs == 9  # flag wins
    assert rc.d == 16  # file beats default
    assert rc.batch_size == RunConfig().batch_size


def test_setkp_environment_leaves_the_checkpoint_unchanged(tmp_path, pipeline, monkeypatch):
    # a run's settings come from its config file and flags only
    monkeypatch.setenv("SETKP_EPOCHS", "4")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
                 "--out-ckpt", str(ckpt), "--seed", "3"]) == 0
    assert ckpt.read_bytes() == pipeline["ckpt"].read_bytes()


def test_config_none_flags_ignored():
    rc = load_run_config(None, {"epochs": None, "seed": 11})
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
    assert {f.name for f in fields(RunConfig)} == {f.name for f in keys} | {"n_docs"}
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
CONFIG_COMMANDS = ["gen-corpus", "train", "analyze"]


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("line, message", [
    ("n_slots = 5", "n_slots must be even"),
    ("e1 = 0", "need 0 < e1 <= epochs"),
    ("batch_size = 0", "batch_size must be >= 1"),
    ("ffn_width = 0", "ffn_width must be >= 1"),
    ("max_encode_len = 0", "max_encode_len must be >= 1"),
    ("n_docs = 0", "n_docs must be >= 1"),
    # one segment budget and one vocabulary rule for every command: not keys
    ("max_segment_tokens = 400", "unknown key 'max_segment_tokens'"),
    ("min_freq = 2", "unknown key 'min_freq'"),
    ("epochs = 30\nepochs = 12", "bad.cfg:2: epochs is already set on line 1"),
])
def test_invalid_config_rejected_on_every_command(tmp_path, pipeline, capsys, cmd, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [*_argv(cmd, pipeline, out), "--config", str(cfg)]
    if cmd in CONFIG_COMMANDS:
        assert main(argv) == 1
        assert message in capsys.readouterr().err
    else:  # a command that reads no setting takes no config file
        with pytest.raises(SystemExit):
            main(argv)
        assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["gen-corpus", "eval"])
def test_out_to_standard_output_carries_only_the_artifact(tmp_path, pipeline, cmd):
    # the summary line and eval's table go to standard error, so an artifact
    # written to /dev/stdout has the bytes the same command writes to a file
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(out):
        argv = _argv(cmd, pipeline, out)
        proc = subprocess.run([sys.executable, "-m", "setkp.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    to_file, to_stdout = run(tmp_path / "out"), run("/dev/stdout")
    assert to_file.stdout == b""
    assert to_stdout.stdout == (tmp_path / "out").read_bytes() != b""
    assert to_stdout.stderr.decode().endswith(" -> /dev/stdout\n")
    assert to_file.stderr.decode().endswith(f" -> {tmp_path / 'out'}\n")


def test_bad_config_file_value_names_file_line_and_key(tmp_path, pipeline, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 5\nd =\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*_argv("train", pipeline, out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {cfg}:2: d: '' is not an int"


@pytest.mark.parametrize("cmd", COMMANDS)
def test_seed_flag_only_on_commands_that_read_it(cmd, capsys):
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    out = capsys.readouterr().out
    assert ("--seed" in out) == (cmd in CONFIG_COMMANDS)
    assert ("--config" in out) == (cmd in CONFIG_COMMANDS)
    assert "--threads" not in out
