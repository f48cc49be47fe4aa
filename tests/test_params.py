import json
import math
import os
import struct
import threading

import numpy as np
import pytest

from setkp.params import (_MAGIC, _VERSION, ADAM_EPS, BETA1, BETA2, AdamW, Initializer,
                          ParamStore, load_checkpoint, save_checkpoint)


def _store_with(seed=0):
    store = ParamStore()
    init = Initializer(store, seed)
    init.embedding("enc.emb", (5, 3))
    init.projection("enc.w", (3, 4))
    init.ones("dec.g", (4,))
    init.zeros("dec.b", (4,))
    return store


def test_create_rejects_duplicates():
    store = ParamStore()
    store.create("w", np.zeros(2))
    with pytest.raises(ValueError):
        store.create("w", np.zeros(2))


def test_subset_by_prefix():
    store = _store_with()
    enc = store.subset(("enc.",))
    assert sorted(enc) == ["enc.emb", "enc.w"]
    both = store.subset(("enc.", "dec."))
    assert len(both) == 4


def test_initializer_deterministic():
    a = _store_with(seed=7)
    b = _store_with(seed=7)
    for name in a.names():
        np.testing.assert_array_equal(a[name].data, b[name].data)
    c = _store_with(seed=8)
    assert not np.array_equal(a["enc.emb"].data, c["enc.emb"].data)


def test_projection_std_scales_with_fan_in():
    store = ParamStore()
    init = Initializer(store, 0)
    w = init.projection("w", (400, 300))
    assert abs(w.data.std() - 1.0 / 20.0) < 0.002


def test_adamw_single_step_hand_oracle():
    store = ParamStore()
    p = store.create("w", np.array([1.0, -2.0]))
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.01)
    g = np.array([0.5, -1.0])
    p.grad = g.copy()
    opt.step()

    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / 0.1
    vhat = v / 0.001
    x0 = np.array([1.0, -2.0])
    expect = x0 - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.01 * x0)
    np.testing.assert_allclose(p.data, expect, atol=1e-12)


def test_adamw_rebinds_rather_than_mutates():
    store = ParamStore()
    p = store.create("w", np.array([1.0]))
    old = p.data
    opt = AdamW({"w": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data is not old
    np.testing.assert_array_equal(old, np.array([1.0]))  # forward-time value intact


def test_adamw_moments_update_in_place():
    # two steps: the moment arrays stay the same objects, and the parameters
    # equal the out-of-place formula bit for bit
    rng = np.random.default_rng(3)
    store = ParamStore()
    p = store.create("w", rng.standard_normal((3, 4)))
    opt = AdamW({"w": p}, lr=0.05)
    m_obj, v_obj = opt.m["w"], opt.v["w"]
    x, m, v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
    b1, b2 = BETA1, BETA2
    for t in (1, 2):
        g = rng.standard_normal((3, 4))
        p.grad = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat, vhat = m / (1 - b1**t), v / (1 - b2**t)
        x = x - opt.lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + opt.wd * x)
    assert opt.m["w"] is m_obj and opt.v["w"] is v_obj
    np.testing.assert_array_equal(m_obj, m)
    np.testing.assert_array_equal(v_obj, v)
    np.testing.assert_array_equal(p.data, x)


def test_adamw_skips_gradless_params():
    store = ParamStore()
    p = store.create("a", np.ones(2))
    q = store.create("b", np.ones(2))
    opt = AdamW({"a": p, "b": q}, lr=0.1)
    p.grad = np.ones(2)
    opt.step()
    np.testing.assert_array_equal(q.data, np.ones(2))
    assert not np.array_equal(p.data, np.ones(2))


def test_adamw_decay_decoupled_from_gradient():
    # zero gradient still shrinks weights through decay alone? no: gradless
    # params are skipped; a zero-valued gradient applies decay only
    store = ParamStore()
    p = store.create("w", np.array([2.0]))
    opt = AdamW({"w": p}, lr=0.5, weight_decay=0.1)
    p.grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(p.data, np.array([2.0 - 0.5 * 0.1 * 2.0]), atol=1e-12)


def test_checkpoint_roundtrip_exact(tmp_path):
    store = _store_with(seed=3)
    meta = {"model_config": {"d": 64}, "vocab": ["[pad]", "a"], "epoch": 9}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded[name].data, store[name].data)


def test_checkpoint_magic_guard(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"IMNOT a checkpoint")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_overwrite_is_clean(tmp_path):
    store = _store_with(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"epoch": 1})
    store["enc.emb"].data = store["enc.emb"].data + 1.0
    save_checkpoint(path, store, {"epoch": 2})
    loaded, meta = load_checkpoint(path)
    assert meta["epoch"] == 2
    np.testing.assert_array_equal(loaded["enc.emb"].data, store["enc.emb"].data)


def test_zero_grads():
    store = _store_with()
    store["enc.w"].grad = np.ones((3, 4))
    store.zero_grads()
    assert store["enc.w"].grad is None


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _store_with(seed=3), {"epoch": 1})
    return path


@pytest.mark.parametrize("keep, where", [
    (10, "header"),
    (20, "metadata"),
    (-8, "parameter 'dec.b'"),  # inside the last parameter's payload
])
def test_checkpoint_truncated_names_path_and_record(tmp_path, keep, where):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: checkpoint truncated in {where} (")


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="trailing bytes after the last parameter record") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(str(path))


def _container(blob: bytes, names: list[bytes]) -> bytes:
    """A checkpoint of metadata ``blob`` and one scalar record per name."""
    out = [_MAGIC, struct.pack("<II", _VERSION, len(names)), struct.pack("<I", len(blob)), blob]
    for nb in names:
        out += [struct.pack("<H", len(nb)), nb, struct.pack("<B", 0), struct.pack("<d", 0.5)]
    return b"".join(out)


@pytest.mark.parametrize("blob, names, message", [
    (b'{"epoch": 1,}', [b"a"], "checkpoint metadata is not UTF-8 JSON: Expecting property name"),
    (b'{"epoch": "\xff"}', [b"a"],
     "checkpoint metadata is not UTF-8 JSON: 'utf-8' codec can't decode"),
    (b'{"epoch": NaN}', [b"a"], "checkpoint metadata is not UTF-8 JSON: NaN is not a JSON number"),
    (b'{"lr": -Infinity}', [b"a"],
     "checkpoint metadata is not UTF-8 JSON: -Infinity is not a JSON number"),
    (b"[1, 2]", [b"a"], "checkpoint metadata is a list, not a JSON object"),
    (b"{}", [b"a", b"a"], "duplicate parameter 'a'"),
    (b"{}", [b"\xff"], "parameter record 1 of 1 has a name that is not UTF-8"),
], ids=["bad_json", "not_utf8", "nan_metadata", "infinite_metadata", "list_metadata",
        "repeated_record", "bad_name"])
def test_malformed_checkpoint_names_path(tmp_path, blob, names, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(_container(b'{"epoch": 1}', [b"a", b"b"]))
    store, meta = load_checkpoint(path)  # the well-formed container loads
    assert store.names() == ["a", "b"] and meta == {"epoch": 1}
    path.write_bytes(_container(blob, names))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_checkpoint_record_whose_element_count_wraps_is_truncated(tmp_path):
    # 2**31 * 2**31 * 4 elements: an int64 product wraps to 0, and the
    # record then failed to reshape with no file or parameter named
    shape = (2**31, 2**31, 4)
    record = [struct.pack("<H", 1), b"w", struct.pack("<B", len(shape)),
              *(struct.pack("<I", n) for n in shape), struct.pack("<d", 0.5)]
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"".join([_MAGIC, struct.pack("<II", _VERSION, 1), struct.pack("<I", 2), b"{}",
                               *record]))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: checkpoint truncated in parameter 'w' "
                              f"(8 of {8 * 2**64} bytes)")


def test_checkpoint_loads_from_a_pipe(tmp_path):
    # a pipe has no size to bound the reads by, and loads as the file does
    path = _saved_checkpoint(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    store, meta = load_checkpoint(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want, want_meta = load_checkpoint(path)
    assert meta == want_meta and store.names() == want.names()
    for name in want.names():
        assert np.array_equal(store[name].data, want[name].data)


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    store = _store_with(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"epoch": 1})
    before = path.read_bytes()
    # the last parameter cannot become float64, so the write fails after
    # the header and the earlier records are out
    store["dec.b"].data = np.array(["not", "a", "float", "!"], dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, store, {"epoch": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_metadata_is_saved_only_as_json(tmp_path):
    # finite metadata keeps the bytes of its plain sorted encoding; a NaN or
    # infinite number fails before the file is opened, naming the path
    store = _store_with(seed=1)
    path = tmp_path / "model.ckpt"
    meta = {"lr": 0.003, "epoch": 1, "name": "r\u00e9sum\u00e9"}
    save_checkpoint(path, store, meta)
    before = path.read_bytes()
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8")
    assert struct.unpack("<I", before[12:16]) == (len(blob),) and before[16:16 + len(blob)] == blob
    for bad in ({"epoch": math.nan, "lr": math.inf}, {"lr": -math.inf}):
        with pytest.raises(ValueError) as err:
            save_checkpoint(path, store, bad)
        assert str(err.value).startswith(f"{path}: checkpoint metadata: Out of range float")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
