"""Slot-parallel encoder-decoder over the autograd substrate.

The encoder is a pre-layer-norm transformer with learned bucketed relative
position biases (no absolute positions). The decoder runs N parallel slots
as a leading batch axis: all slots share weights, each attends causally
over its own prefix only ((N, T, T) self-attention under one (T, T) causal
mask and bucket table), and every slot attends freely over the encoder
states. Slot inputs add a sinusoidal step embedding and a per-slot control
row; a control row is the slot's learned code plus the summed token
embeddings of its guidance keyword, which is what lets two slots with the
same code specialize. ``decode_probs`` runs every pass on a DecodeCache of
per-layer keys and values: teacher forcing is one pass from an empty cache,
and ``Model.greedy_steps``, the one greedy decode loop, one step per call.

Training runs a batch of B segments through the same code: ``encode`` pads
them to (B, S_max, d) under a (B, 1, 1, S_max) key-padding mask, the
decoder takes B*N slot rows, and each segment's slots cross-attend to its
own states only. A single segment is the unbatched case: (S, d) states and
N slot rows. Inference encodes equal-length segments as one unpadded batch,
then decodes each segment on its own (S, d) states and N slot rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict, field
from typing import Iterator, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .params import Initializer, ParamStore
from .corpus import KeywordSpan, spans_from_bio

ENCODER_PREFIXES = ("enc.", "kwe.")
DECODER_PREFIXES = ("dec.", "kg.")


@dataclass(slots=True)
class ModelConfig:
    vocab_size: int = 0
    d: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_slots: int = 8  # N, half present group / half absent group
    assign_steps: int = 2  # free-running prefix length used for assignment
    n_control_keywords: int = 3  # keywords routed to leading slots of each group
    max_kp_len: int = 8  # decoding horizon per slot
    rpe_buckets: int = 32
    rpe_max_distance: int = 128
    ffn_width: int = 256
    max_encode_len: int = 256
    use_keyword_control: bool = True

    def __post_init__(self):
        if self.d % 2 or self.d % self.n_heads:
            raise ValueError("d must be even and divisible by n_heads")
        if self.n_slots % 2:
            raise ValueError("n_slots must be even")
        if self.n_control_keywords >= self.n_slots // 2:
            raise ValueError("n_control_keywords must be smaller than the group size")
        if self.assign_steps < 1 or self.max_kp_len < 1:
            raise ValueError("assign_steps and max_kp_len must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


# ------------------------------------------------------------ positions


def ape_vector(t: int, d: int) -> np.ndarray:
    """Sinusoidal step embedding: even dims sin(t/10000^(2i/d)), odd cos."""
    i = np.arange(d // 2, dtype=np.float64)
    freq = np.power(10000.0, 2.0 * i / d)
    v = np.empty(d, dtype=np.float64)
    v[0::2] = np.sin(t / freq)
    v[1::2] = np.cos(t / freq)
    return v


@functools.lru_cache(maxsize=None)
def _ape_rows(T: int, d: int) -> np.ndarray:
    """Rows for steps 1..T (the step-t input carries position t)."""
    return np.stack([ape_vector(t, d) for t in range(1, T + 1)])


def dope_rpe_bucket(u: int, v: int, n_buckets: int, max_distance: int,
                    bidirectional: bool) -> int:
    """Bucket index for the offset v-u.

    Half the buckets cover exact small offsets, the rest grow
    logarithmically out to max_distance; everything farther shares the
    terminal bucket. Bidirectional splits the range by sign; the
    unidirectional variant buckets only non-positive offsets (a query
    looking back at its own prefix).
    """
    rel = v - u
    if bidirectional:
        num = n_buckets // 2
        base = num if rel > 0 else 0
        rel = abs(rel)
    else:
        num = n_buckets
        base = 0
        rel = max(-rel, 0)
    max_exact = num // 2
    if rel < max_exact:
        val = rel
    else:
        val = max_exact + int(
            math.log(rel / max_exact) / math.log(max_distance / max_exact) * (num - max_exact)
        )
        val = min(val, num - 1)
    return base + val


_BUCKET_TABLES: dict[tuple[int, int, bool], np.ndarray] = {}


def _buckets(n: int, n_buckets: int, max_distance: int, bidirectional: bool) -> np.ndarray:
    """(n, n) bucket ids of position u seen from position t, read-only.

    A bucket depends only on the offset u - t, so one table per setting,
    grown to the largest n asked for, serves every smaller n as its
    leading (n, n) block; it indexes one per-offset lookup by t - u.
    """
    key = (n_buckets, max_distance, bidirectional)
    table = _BUCKET_TABLES.get(key)
    if table is None or table.shape[0] < n:
        by_offset = np.array(
            [dope_rpe_bucket(j, 0, n_buckets, max_distance, bidirectional) for j in range(1 - n, n)],
            dtype=np.intp,
        )
        pos = np.arange(n)
        table = by_offset[np.subtract.outer(pos, pos) + n - 1]
        table.flags.writeable = False
        _BUCKET_TABLES[key] = table
    return table[:n, :n]


def padding_mask(lengths: Sequence[int]) -> np.ndarray | None:
    """(B, 1, 1, S_max) additive key mask for a batch of segment lengths:
    0 over each segment's tokens, -inf over its padding; None when no
    segment is padded."""
    S = max(lengths)
    if min(lengths) == S:
        return None
    mask = np.zeros((len(lengths), 1, 1, S))
    for b, n in enumerate(lengths):
        mask[b, ..., n:] = -np.inf
    return mask


@functools.lru_cache(maxsize=None)
def _causal_mask(T: int) -> np.ndarray:
    """(T, T): 0 on and below the diagonal, -inf above it."""
    return np.triu(np.full((T, T), -np.inf), k=1)


@dataclass(slots=True)
class DecodeCache:
    """Incremental decode state for one greedy decode of one encoder input
    (one segment or one batch).

    ``steps`` counts the positions decoded so far. ``self_kv[i]`` holds
    decoder layer i's self-attention keys and values, each (R, steps, d)
    for R slot rows; ``cross_kv[i]`` holds the layer's projected encoder
    keys and values, computed on the first call. The teacher-forced pass
    runs on an empty cache and drops it; otherwise a cache belongs to one
    decode loop: create it there, never share it between threads.
    """

    steps: int = 0
    enc_states: Tensor | None = None
    self_kv: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    cross_kv: list[tuple[Tensor, Tensor]] = field(default_factory=list)


# ---------------------------------------------------------------- the model


class Model:
    """Parameter container plus forward passes; no training state."""

    def __init__(self, cfg: ModelConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        self._inv_scale = 1.0 / math.sqrt(cfg.d)

    @classmethod
    def fresh(cls, cfg: ModelConfig, seed: int) -> "Model":
        store = ParamStore()
        init = Initializer(store, seed)
        d, V = cfg.d, cfg.vocab_size

        def norm(name: str) -> None:
            init.ones(name + ".g", (d,)); init.zeros(name + ".b", (d,))

        def stack(name: str, tables: dict, n_layers: int, attentions: list, head: str, width: int):
            """Tables, position biases, pre-LN layers, final norm, output head."""
            for table, shape in tables.items():
                init.embedding(f"{name}.{table}", shape)
            for h in range(cfg.n_heads):
                init.embedding(f"{name}.rpe.h{h}", (cfg.rpe_buckets,))
            for i in range(n_layers):
                p = f"{name}.L{i}."
                for j, weights in enumerate(attentions, 1):
                    norm(f"{p}ln{j}")
                    for w in weights:
                        init.projection(p + w, d, d)
                norm(f"{p}ln{len(attentions) + 1}")
                init.projection(p + "w1", d, cfg.ffn_width)
                init.zeros(p + "b1", (cfg.ffn_width,))
                init.projection(p + "w2", cfg.ffn_width, d)
                init.zeros(p + "b2", (d,))
            norm(f"{name}.final")
            init.projection(head + ".w", d, width)
            init.zeros(head + ".b", (width,))

        self_att = ("wq", "wk", "wv", "wo")
        stack("enc", {"emb": (V, d)}, cfg.n_enc_layers, [self_att], "kwe", 3)
        stack("dec", {"emb": (V, d), "ctrl": (cfg.n_slots, d)}, cfg.n_dec_layers,
              [self_att, ("cq", "ck", "cv", "co")], "kg", V)
        return cls(cfg, store)

    def encoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(ENCODER_PREFIXES)

    def decoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(DECODER_PREFIXES)

    # ------------------------------------------------------------- encoder

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ag.layer_norm(x, self.store[prefix + ".g"], self.store[prefix + ".b"])

    def _ffn(self, x: Tensor, p: str) -> Tensor:
        h = ag.linear(x, self.store[p + "w1"], self.store[p + "b1"])
        return ag.linear(ag.relu(h), self.store[p + "w2"], self.store[p + "b2"])

    def _self_attention(self, x: Tensor, prefix: str, bias: Tensor, mask: np.ndarray | None,
                        past: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, tuple]:
        """Pre-LN self-attention sublayer of layer ``prefix``. Returns x plus
        the attention output, and the (keys, values) attended over: ``past``'s
        earlier steps, if given, then x's own, joined off the tape."""
        h = self._ln(x, prefix + "ln1")
        q = ag.matmul(h, self.store[prefix + "wq"])
        k = ag.matmul(h, self.store[prefix + "wk"])
        v = ag.matmul(h, self.store[prefix + "wv"])
        if past is not None:
            k = Tensor(np.concatenate([past[0].data, k.data], axis=-2))
            v = Tensor(np.concatenate([past[1].data, v.data], axis=-2))
        att = ag.multi_head_attention(q, k, v, bias, self.cfg.n_heads, self._inv_scale, mask=mask)
        return ag.add(x, ag.matmul(att, self.store[prefix + "wo"])), (k, v)

    def encode(self, token_ids: Sequence[int] | Sequence[Sequence[int]]) -> Tensor:
        """(S,) token ids -> (S, d) contextual states.

        A batch of B id lists gives (B, S_max, d): each segment's rows past
        its own length are padding, which ``padding_mask`` keeps out of
        every attention, so a segment's rows match its own (S, d) encode up
        to float round-off.
        """
        cfg = self.cfg
        batched = len(token_ids) > 0 and not np.isscalar(token_ids[0])
        lengths = [len(s) for s in token_ids] if batched else [len(token_ids)]
        for S in lengths:
            if S < 1:
                raise ValueError("cannot encode an empty sequence")
            if S > cfg.max_encode_len:
                raise ValueError(f"input of {S} tokens exceeds max_encode_len={cfg.max_encode_len}")
        S = max(lengths)
        if batched:
            ids = np.zeros((len(lengths), S), dtype=np.intp)
            for b, seq in enumerate(token_ids):
                ids[b, : len(seq)] = seq
            mask = padding_mask(lengths)
        else:
            ids, mask = np.asarray(token_ids, dtype=np.intp), None
        buckets = _buckets(S, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=True)
        bias = ag.gather_heads([self.store[f"enc.rpe.h{h}"] for h in range(cfg.n_heads)], buckets)

        x = ag.gather(self.store["enc.emb"], ids)
        for i in range(cfg.n_enc_layers):
            p = f"enc.L{i}."
            x, _ = self._self_attention(x, p, bias, mask)
            x = ag.add(x, self._ffn(self._ln(x, p + "ln2"), p))
        return self._ln(x, "enc.final")

    def kwe_probs(self, states: Tensor) -> Tensor:
        """(..., S, d) -> (..., S, 3) tag distribution (O/B/I) per token."""
        logits = ag.linear(states, self.store["kwe.w"], self.store["kwe.b"])
        return ag.softmax(logits, axis=-1)

    def predict_keywords(self, tag_probs: np.ndarray, segment: list[str]) -> list[KeywordSpan]:
        """Greedy tag decode to spans; confidence is the mean winning-tag
        probability over the span. Ranked by confidence, earliest start
        breaking ties."""
        labels = tag_probs.argmax(axis=1).tolist()
        spans = []
        for start, end in spans_from_bio(segment, labels):
            conf = float(np.mean([tag_probs[i, labels[i]] for i in range(start, end)]))
            spans.append(KeywordSpan(tokens=segment[start:end], start=start, confidence=conf))
        return sorted(spans, key=lambda s: (-s.confidence, s.start))

    # ------------------------------------------------------------- decoder

    def control_rows(self, keyword_ids: list[list[int] | None]) -> Tensor:
        """Control row per slot: learned slot code + summed keyword token
        embeddings (skipped when keyword control is disabled).

        One entry per slot row: N for one segment, B*N for a batch, segment
        b's slots being rows b*N..(b+1)*N-1. Returns (rows, d).
        """
        cfg = self.cfg
        R = len(keyword_ids)
        if R == 0 or R % cfg.n_slots:
            raise ValueError(f"need a multiple of n_slots={cfg.n_slots} keyword entries, got {R}")
        rows = ag.gather(self.store["dec.ctrl"], np.arange(R) % cfg.n_slots)
        keywords = [ids or [] for ids in keyword_ids] if cfg.use_keyword_control else []
        K = max(map(len, keywords), default=0)
        if K:
            idx = np.zeros((R, K), dtype=np.intp)
            mask = np.zeros((R, K))
            for r, ids in enumerate(keywords):
                idx[r, : len(ids)] = ids
                mask[r, : len(ids)] = 1.0
            rows = ag.add(rows, ag.gather_sum(self.store["dec.emb"], idx, mask))
        return rows

    def decode_probs(
        self,
        prev_ids: np.ndarray,
        control: Tensor,
        enc_states: Tensor,
        cache: DecodeCache | None = None,
        enc_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Decode: prev_ids (R, T) holds w^{t-1} per slot row and step.

        For one segment, enc_states is (S, d) and R = N. For a batch of B,
        enc_states is (B, S_max, d) from ``encode``, enc_mask its
        ``padding_mask``, and R = B*N rows laid out as in ``control_rows``;
        each segment's N*T queries attend only to its own states.

        prev_ids holds the T steps after the cache's ``steps`` earlier ones;
        their keys and values are appended to the cache, and the result is
        (R*T, vocab) next-token distributions, row r*T + t being slot row r's
        distribution for step ``steps`` + t + 1. Without a cache the pass
        runs on a fresh one: that is the teacher-forced pass over steps
        1..T, which training records on the tape, and a cached step's rows
        equal the matching rows of it up to float round-off. A caller's
        cache is tape-free: passing one while a Tape records raises
        RuntimeError.
        """
        cfg = self.cfg
        R, T = prev_ids.shape
        B = enc_states.data.shape[0] if enc_states.data.ndim == 3 else None
        if R != (B or 1) * cfg.n_slots:
            raise ValueError(f"{R} slot rows for {B or 1} segment(s) of {cfg.n_slots} slots")
        if cache is None:
            cache = DecodeCache()
        elif ag.recording():
            raise RuntimeError("a DecodeCache cannot be used while a Tape is recording")
        if not cache.cross_kv:  # keys and values shaped like the encoder states
            cache.enc_states = enc_states
            cache.cross_kv = [(ag.matmul(enc_states, self.store[f"dec.L{i}.ck"]),
                               ag.matmul(enc_states, self.store[f"dec.L{i}.cv"]))
                              for i in range(cfg.n_dec_layers)]
        elif cache.enc_states is not enc_states:
            raise ValueError("a DecodeCache serves the encoder states it was filled from")
        t0 = cache.steps
        L = cache.steps = t0 + T

        x = ag.add(
            ag.add(ag.gather(self.store["dec.emb"], prev_ids), Tensor(_ape_rows(L, cfg.d)[t0:])),
            ag.reshape(control, (R, 1, cfg.d)),
        )

        # one new step's causal-mask row is all zeros: it sees every key
        mask = _causal_mask(L)[t0:] if T > 1 else None
        buckets = _buckets(L, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=False)[t0:]
        bias = ag.gather_heads([self.store[f"dec.rpe.h{h}"] for h in range(cfg.n_heads)], buckets)

        for i in range(cfg.n_dec_layers):
            p = f"dec.L{i}."
            x, kv = self._self_attention(x, p, bias, mask, cache.self_kv[i] if t0 else None)
            cache.self_kv[i:i + 1] = [kv]  # replaces layer i's entry; appends it from empty
            q = ag.matmul(self._ln(x, p + "ln2"), self.store[p + "cq"])
            if B is not None:  # (B*N, T, d) slot rows -> (B, N*T, d) per-segment queries
                q = ag.reshape(q, (B, -1, cfg.d))
            catt = ag.multi_head_attention(
                q, *cache.cross_kv[i], None, cfg.n_heads, self._inv_scale, mask=enc_mask,
            )
            if B is not None:
                catt = ag.reshape(catt, (R, T, cfg.d))
            x = ag.add(x, ag.matmul(catt, self.store[p + "co"]))
            x = ag.add(x, self._ffn(self._ln(x, p + "ln3"), p))
        x = ag.reshape(self._ln(x, "dec.final"), (R * T, cfg.d))
        logits = ag.linear(x, self.store["kg.w"], self.store["kg.b"])
        return ag.softmax(logits, axis=-1)

    def greedy_steps(self, control: Tensor, enc_states: Tensor, bos_id: int,
                     steps: int, enc_mask: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Greedy decode from BOS: yields each step's (R, vocab) distributions,
        one row per control row, and feeds every row's argmax back in.
        Arguments are as for ``decode_probs``. Callers decode under
        ``no_grad``: a generator that suspended recording itself would leave
        it suspended for its consumer between steps."""
        cache = DecodeCache()
        prev = np.full((control.data.shape[0], 1), bos_id, dtype=np.intp)
        for _ in range(steps):
            probs = self.decode_probs(prev, control, enc_states, cache=cache, enc_mask=enc_mask).data
            yield probs
            prev = probs.argmax(axis=1)[:, None]
