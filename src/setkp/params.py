"""Named parameter store, seeded init, AdamW, and checkpoint round-trip.

Checkpoints are a small versioned binary container: magic, version, a
metadata blob in ``io``'s JSON rule (model config, vocabulary, anything the
caller wants carried), then one record per parameter with its name, shape,
and little-endian float64 payload. Loading restores bit-identical arrays.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .io import decode_json, encode_json, output_file

_MAGIC = b"SKPT"
_VERSION = 1
BETA1, BETA2 = 0.9, 0.999  # AdamW's moment decay rates
ADAM_EPS = 1e-8  # AdamW's denominator floor


class ParamStore:
    """Ordered name -> Tensor mapping. A parameter is a plain Tensor: a
    backward pass leaves it a gradient when its ``wrt`` names it, as the
    training passes name the parameters their optimizer steps."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def create(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(data)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def subset(self, prefixes: tuple[str, ...]) -> dict[str, Tensor]:
        return {n: t for n, t in self._params.items() if n.startswith(prefixes)}

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


class Initializer:
    """Seeded parameter factory.

    Embedding-like tables get uniform(-0.08, 0.08); projection matrices get
    normal with std 1/sqrt(fan_in); gains start at one, biases at zero.
    Creation order is fixed by the caller, which makes init reproducible
    from the seed alone.
    """

    def __init__(self, store: ParamStore, seed: int):
        self.store = store
        self.rng = np.random.default_rng(seed)

    def embedding(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self.store.create(name, self.rng.uniform(-0.08, 0.08, size=shape))

    def projection(self, name: str, shape: tuple[int, int]) -> Tensor:
        std = 1.0 / np.sqrt(shape[0])  # shape is (fan_in, fan_out)
        return self.store.create(name, self.rng.normal(0.0, std, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self.store.create(name, np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self.store.create(name, np.ones(shape))


class AdamW:
    """Decoupled-weight-decay Adam over a fixed parameter subset.

    Moments are keyed by parameter name and updated in place; stepping skips
    parameters without a gradient, so a single optimizer can serve a loss
    that only touches part of its subset.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 3e-4,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self) -> None:
        """p <- p - lr * (mhat / (sqrt(vhat) + eps) + wd * p) for every
        parameter with a gradient, evaluated in that order with in-place
        temporaries."""
        self.t += 1
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t
        for n, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[n], self.v[n]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            den = v / c2
            np.sqrt(den, out=den)
            den += ADAM_EPS
            upd = m / c1
            upd /= den
            upd += self.wd * p.data
            upd *= self.lr
            # rebind instead of mutating: backward closures alias the old
            # array, and stage-wise training re-differentiates older graphs
            p.data = p.data - upd


def save_checkpoint(path: str | Path, store: ParamStore, meta: dict) -> None:
    """Write the container through ``io.output_file``, float payloads
    little-endian. Metadata ``io.encode_json`` cannot hold, such as a NaN or
    infinite number, raises ValueError before the file is opened. A failed
    or interrupted write leaves a previous checkpoint file as it was."""
    try:
        blob = encode_json(meta).encode("utf-8")
    except ValueError as e:
        raise ValueError(f"{path}: checkpoint metadata: {e}") from e
    with output_file(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(store.names())))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name, t in store.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", t.data.ndim))
            for dim in t.data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict]:
    """Read a container; a malformed one raises ValueError naming the path:
    a short read or a record longer than the bytes left (and, inside a
    record, the parameter), metadata that is not a UTF-8 JSON object (NaN
    and infinite numbers are not JSON), a parameter name that is not UTF-8
    or comes twice, and bytes past the last record."""
    path = Path(path)
    store = ParamStore()
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        # a record's shape may claim any size, so a regular file is never
        # asked for more bytes than it has left; a pipe's size is unknown
        regular = stat.S_ISREG(st.st_mode)

        def read(n: int, what: str) -> bytes:
            b = fh.read(min(n, st.st_size - fh.tell()) if regular else n)
            if len(b) != n:
                raise ValueError(f"{path}: checkpoint truncated in {what} ({len(b)} of {n} bytes)")
            return b

        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (blen,) = struct.unpack("<I", read(4, "header"))
        blob = read(blen, "metadata")
        try:
            meta = decode_json(blob.decode("utf-8"))
        except ValueError as e:  # UnicodeDecodeError and decode_json's errors alike
            raise ValueError(f"{path}: checkpoint metadata is not UTF-8 JSON: {e}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: checkpoint metadata is a {type(meta).__name__}, "
                             "not a JSON object")
        for i in range(count):
            record = f"parameter record {i + 1} of {count}"
            (nlen,) = struct.unpack("<H", read(2, record))
            try:
                name = read(nlen, record).decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: {record} has a name that is not UTF-8: {e}") from None
            what = f"parameter {name!r}"
            (ndim,) = struct.unpack("<B", read(1, what))
            shape = tuple(struct.unpack("<I", read(4, what))[0] for _ in range(ndim))
            arr = np.frombuffer(read(8 * math.prod(shape), what), dtype="<f8").reshape(shape)
            try:
                store.create(name, arr.astype(np.float64))
            except ValueError as e:  # a name that came before
                raise ValueError(f"{path}: {e}") from None
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last parameter record")
    return store, meta
