"""Slot-parallel encoder-decoder over the autograd substrate.

The encoder is a pre-layer-norm transformer with learned bucketed relative
position biases (no absolute positions). The decoder runs N parallel slots
as a leading batch axis: all slots share weights, each attends causally
over its own prefix only ((N, T, T) self-attention under one (T, T) causal
mask and bucket table), and every slot attends freely over the encoder
states. Slot inputs add a sinusoidal step embedding and a per-slot control
row; a control row is the slot's learned code plus the summed token
embeddings of its guidance keyword, which is what lets two slots with the
same code specialize. ``Model.greedy_steps`` is the one greedy decode loop,
one cached step per call on a DecodeCache of per-layer keys and values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict, field
from typing import Iterator

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


@functools.lru_cache(maxsize=None)
def _buckets(n: int, n_buckets: int, max_distance: int, bidirectional: bool) -> np.ndarray:
    """(n, n) bucket ids of position u seen from position t."""
    out = np.empty((n, n), dtype=np.intp)
    for t in range(n):
        for u in range(n):
            out[t, u] = dope_rpe_bucket(t, u, n_buckets, max_distance, bidirectional)
    return out


@functools.lru_cache(maxsize=None)
def _causal_mask(T: int) -> np.ndarray:
    """(T, T): 0 on and below the diagonal, -inf above it."""
    return np.triu(np.full((T, T), -np.inf), k=1)


@dataclass(slots=True)
class DecodeCache:
    """Incremental decode state for one greedy decode of one encoder input.

    ``steps`` counts the positions decoded so far. ``self_kv[i]`` holds
    decoder layer i's self-attention keys and values, each (N, steps, d);
    ``cross_kv[i]`` holds the layer's projected encoder keys and values,
    computed on the first call. A cache belongs to one decode loop: create
    it there and drop it afterwards, never share it between threads.
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

    @classmethod
    def fresh(cls, cfg: ModelConfig, seed: int) -> "Model":
        store = ParamStore()
        init = Initializer(store, seed)
        d, V = cfg.d, cfg.vocab_size

        init.embedding("enc.emb", (V, d))
        for h in range(cfg.n_heads):
            init.embedding(f"enc.rpe.h{h}", (cfg.rpe_buckets,))
        for i in range(cfg.n_enc_layers):
            p = f"enc.L{i}."
            init.ones(p + "ln1.g", (d,)); init.zeros(p + "ln1.b", (d,))
            for w in ("wq", "wk", "wv", "wo"):
                init.projection(p + w, d, d)
            init.ones(p + "ln2.g", (d,)); init.zeros(p + "ln2.b", (d,))
            init.projection(p + "w1", d, cfg.ffn_width)
            init.zeros(p + "b1", (cfg.ffn_width,))
            init.projection(p + "w2", cfg.ffn_width, d)
            init.zeros(p + "b2", (d,))
        init.ones("enc.final.g", (d,)); init.zeros("enc.final.b", (d,))

        init.projection("kwe.w", d, 3)
        init.zeros("kwe.b", (3,))

        init.embedding("dec.emb", (V, d))
        init.embedding("dec.ctrl", (cfg.n_slots, d))
        for h in range(cfg.n_heads):
            init.embedding(f"dec.rpe.h{h}", (cfg.rpe_buckets,))
        for i in range(cfg.n_dec_layers):
            p = f"dec.L{i}."
            init.ones(p + "ln1.g", (d,)); init.zeros(p + "ln1.b", (d,))
            for w in ("wq", "wk", "wv", "wo"):
                init.projection(p + w, d, d)
            init.ones(p + "ln2.g", (d,)); init.zeros(p + "ln2.b", (d,))
            for w in ("cq", "ck", "cv", "co"):
                init.projection(p + w, d, d)
            init.ones(p + "ln3.g", (d,)); init.zeros(p + "ln3.b", (d,))
            init.projection(p + "w1", d, cfg.ffn_width)
            init.zeros(p + "b1", (cfg.ffn_width,))
            init.projection(p + "w2", cfg.ffn_width, d)
            init.zeros(p + "b2", (d,))
        init.ones("dec.final.g", (d,)); init.zeros("dec.final.b", (d,))

        init.projection("kg.w", d, V)
        init.zeros("kg.b", (V,))
        return cls(cfg, store)

    def encoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(ENCODER_PREFIXES)

    def decoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(DECODER_PREFIXES)

    # ------------------------------------------------------------- encoder

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ag.layer_norm(x, self.store[prefix + ".g"], self.store[prefix + ".b"])

    def _ffn(self, x: Tensor, p: str) -> Tensor:
        h = ag.add(ag.matmul(x, self.store[p + "w1"]), self.store[p + "b1"])
        return ag.add(ag.matmul(ag.relu(h), self.store[p + "w2"]), self.store[p + "b2"])

    def encode(self, token_ids: list[int]) -> Tensor:
        """(S,) token ids -> (S, d) contextual states."""
        cfg = self.cfg
        S = len(token_ids)
        if S < 1:
            raise ValueError("cannot encode an empty sequence")
        if S > cfg.max_encode_len:
            raise ValueError(f"input of {S} tokens exceeds max_encode_len={cfg.max_encode_len}")
        ids = np.asarray(token_ids, dtype=np.intp)
        buckets = _buckets(S, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=True)
        biases = [ag.gather(self.store[f"enc.rpe.h{h}"], buckets) for h in range(cfg.n_heads)]
        inv_scale = 1.0 / math.sqrt(cfg.d)

        x = ag.gather(self.store["enc.emb"], ids)
        for i in range(cfg.n_enc_layers):
            p = f"enc.L{i}."
            h = self._ln(x, p + "ln1")
            att = ag.multi_head_attention(
                ag.matmul(h, self.store[p + "wq"]),
                ag.matmul(h, self.store[p + "wk"]),
                ag.matmul(h, self.store[p + "wv"]),
                biases, cfg.n_heads, inv_scale,
            )
            x = ag.add(x, ag.matmul(att, self.store[p + "wo"]))
            x = ag.add(x, self._ffn(self._ln(x, p + "ln2"), p))
        return self._ln(x, "enc.final")

    def kwe_probs(self, states: Tensor) -> Tensor:
        """(S,d) -> (S,3) tag distribution (O/B/I) per token."""
        logits = ag.add(ag.matmul(states, self.store["kwe.w"]), self.store["kwe.b"])
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
        """Per-slot control row: learned slot code + summed keyword token
        embeddings (skipped when keyword control is disabled)."""
        cfg = self.cfg
        assert len(keyword_ids) == cfg.n_slots
        parts = []
        for n in range(cfg.n_slots):
            vec = ag.gather(self.store["dec.ctrl"], n)
            ids = keyword_ids[n]
            if ids and cfg.use_keyword_control:
                kw = ag.sum_rows(ag.gather(self.store["dec.emb"], np.asarray(ids, dtype=np.intp)))
                vec = ag.add(vec, kw)
            parts.append(vec)
        return ag.stack_rows(parts)

    def _cross_kv(self, enc_states: Tensor) -> list[tuple[Tensor, Tensor]]:
        """Each decoder layer's cross-attention keys and values, (S, d) each."""
        return [
            (ag.matmul(enc_states, self.store[f"dec.L{i}.ck"]),
             ag.matmul(enc_states, self.store[f"dec.L{i}.cv"]))
            for i in range(self.cfg.n_dec_layers)
        ]

    def decode_probs(
        self,
        prev_ids: np.ndarray,
        control: Tensor,
        enc_states: Tensor,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Decode: prev_ids (N, T) holds w^{t-1} per slot and step.

        Without a cache this is the teacher-forced pass over steps 1..T; it
        returns (N*T, vocab) next-token distributions, row n*T + t being
        slot n's distribution for step t+1. With a cache, prev_ids holds only
        the T steps after the cache's ``steps`` earlier ones: their keys and
        values are appended to the cache, and the (N*T, vocab) rows returned
        cover the new steps only, equal to the matching rows of the full pass
        up to float round-off. A cache is tape-free: passing one while a Tape
        records raises RuntimeError.
        """
        cfg = self.cfg
        N, T = prev_ids.shape
        assert N == cfg.n_slots
        if cache is None:
            t0, cross_kv = 0, self._cross_kv(enc_states)
        else:
            if ag.recording():
                raise RuntimeError("a DecodeCache cannot be used while a Tape is recording")
            if not cache.cross_kv:
                cache.enc_states = enc_states
                cache.cross_kv = self._cross_kv(enc_states)
            elif cache.enc_states is not enc_states:
                raise ValueError("a DecodeCache serves the encoder states it was filled from")
            t0, cross_kv = cache.steps, cache.cross_kv
        L = t0 + T

        x = ag.add(
            ag.add(ag.gather(self.store["dec.emb"], prev_ids), Tensor(_ape_rows(L, cfg.d)[t0:])),
            ag.gather(control, np.arange(N)[:, None]),
        )

        mask = _causal_mask(L)[t0:]
        buckets = _buckets(L, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=False)[t0:]
        biases = [ag.gather(self.store[f"dec.rpe.h{h}"], buckets) for h in range(cfg.n_heads)]
        inv_scale = 1.0 / math.sqrt(cfg.d)

        for i in range(cfg.n_dec_layers):
            p = f"dec.L{i}."
            h = self._ln(x, p + "ln1")
            k = ag.matmul(h, self.store[p + "wk"])
            v = ag.matmul(h, self.store[p + "wv"])
            if cache is not None:
                if t0:
                    pk, pv = cache.self_kv[i]
                    k = Tensor(np.concatenate([pk.data, k.data], axis=1))
                    v = Tensor(np.concatenate([pv.data, v.data], axis=1))
                    cache.self_kv[i] = (k, v)
                else:
                    cache.self_kv.append((k, v))
            att = ag.multi_head_attention(
                ag.matmul(h, self.store[p + "wq"]), k, v,
                biases, cfg.n_heads, inv_scale, mask=mask,
            )
            x = ag.add(x, ag.matmul(att, self.store[p + "wo"]))
            h = self._ln(x, p + "ln2")
            catt = ag.multi_head_attention(
                ag.matmul(h, self.store[p + "cq"]), *cross_kv[i], None, cfg.n_heads, inv_scale,
            )
            x = ag.add(x, ag.matmul(catt, self.store[p + "co"]))
            x = ag.add(x, self._ffn(self._ln(x, p + "ln3"), p))
        if cache is not None:
            cache.steps = L
        x = ag.reshape(self._ln(x, "dec.final"), (N * T, cfg.d))
        logits = ag.add(ag.matmul(x, self.store["kg.w"]), self.store["kg.b"])
        return ag.softmax(logits, axis=-1)

    def greedy_steps(self, control: Tensor, enc_states: Tensor, bos_id: int,
                     steps: int) -> Iterator[np.ndarray]:
        """Greedy decode from BOS: yields each step's (N, vocab) distributions
        and feeds every slot's argmax back in. Callers decode under
        ``no_grad``: a generator that suspended recording itself would leave
        it suspended for its consumer between steps."""
        cache = DecodeCache()
        prev = np.full((self.cfg.n_slots, 1), bos_id, dtype=np.intp)
        for _ in range(steps):
            probs = self.decode_probs(prev, control, enc_states, cache=cache).data
            yield probs
            prev = probs.argmax(axis=1)[:, None]
