"""Slot-parallel encoder-decoder over the autograd substrate.

The encoder is a pre-layer-norm transformer with learned bucketed relative
position biases (no absolute positions). The decoder runs N parallel slots
as a leading batch axis: all slots share weights, each attends causally
over its own prefix only ((N, T, T) self-attention under one (T, T) causal
mask and bucket table), and every slot attends freely over the encoder
states. Slot inputs add a sinusoidal step embedding and a per-slot control
row; a control row is the slot's learned code plus the summed token
embeddings of its guidance keyword, which is what lets two slots with the
same code specialize. Decoding has two methods over the same formulas,
one body each. ``teacher_probs`` is the teacher-forced pass, on Tensors,
which training records on the tape. ``decode_probs`` is one step of
``greedy_decode``, the one greedy decode loop: plain numpy on the arrays of
a ``DecodeCache`` that ``decode_cache`` builds before the loop's first
step, running the operations of the taped nodes' forwards in their order,
so it has their bits without a Tensor or tape node.

Every pass runs on a batch of B segments: ``encode`` pads them to
(B, S_max, d) under a (B, 1, 1, S_max) key-padding mask, the decoder takes
B*N slot rows, and each segment's slots cross-attend to its own states
only. One segment is a batch of one: (1, S, d) states, N slot rows.
Inference encodes equal-length segments as one unpadded batch, then still
decodes each segment's N slot rows on their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .params import Initializer, ParamStore
from .corpus import KeywordSpan, spans_from_bio

ENCODER_PREFIXES = ("enc.", "kwe.")
DECODER_PREFIXES = ("dec.", "kg.")
# a decoder layer's parameters in the order ``Model.decode_probs`` unpacks them
_STEP_LAYER_PARAMS = ("ln1.g", "ln1.b", "wq", "wk", "wv", "wo", "ln2.g", "ln2.b", "cq", "co",
                      "ln3.g", "ln3.b", "w1", "b1", "w2", "b2")


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
        if self.d < 2 or self.n_heads < 1:
            raise ValueError("need d >= 2 and n_heads >= 1")
        if self.d % 2 or self.d % self.n_heads:
            raise ValueError("d must be even and divisible by n_heads")
        if self.n_slots % 2:
            raise ValueError("n_slots must be even")
        if self.n_control_keywords >= self.n_slots // 2:
            raise ValueError("n_control_keywords must be smaller than the group size")
        for name in ("n_enc_layers", "n_dec_layers", "ffn_width", "max_encode_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.assign_steps < 1 or self.max_kp_len < 1:
            raise ValueError("assign_steps and max_kp_len must be >= 1")
        # the decoder's exact-offset bucket count, at least the encoder's
        if self.rpe_buckets < 4 or self.rpe_max_distance <= self.rpe_buckets // 2:
            raise ValueError("need rpe_buckets >= 4 and rpe_max_distance > rpe_buckets // 2")

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


def padded(seqs: Sequence[Sequence[int]], fill: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Ragged rows as one (R, T_max) ``intp`` array, each row filled with
    ``fill`` past its own length, and the (R, T_max) float mask that is 1.0
    over a row's entries and 0.0 elsewhere: the layout of every padded
    batch array."""
    T = max(map(len, seqs), default=0)
    ids = np.full((len(seqs), T), fill, dtype=np.intp)
    live = np.zeros((len(seqs), T))
    for r, seq in enumerate(seqs):
        ids[r, : len(seq)] = seq
        live[r, : len(seq)] = 1.0
    return ids, live


@functools.lru_cache(maxsize=None)
def _causal_mask(T: int) -> np.ndarray:
    """(T, T): 0 on and below the diagonal, -inf above it."""
    return np.triu(np.full((T, T), -np.inf), k=1)


@dataclass(slots=True)
class DecodeCache:
    """Array state of one greedy decode loop over a batch of B segments,
    built whole by ``Model.decode_cache``, all in head layout (H heads of
    width d/H).

    ``control`` holds the (R, d) control rows of R = B*N slot rows and
    ``enc_mask`` the encoder states' ``padding_mask``. ``capacity`` is the
    number of positions the loop may decode, and each ``decode_probs``
    call on the cache decodes one of them: ``steps`` counts the positions
    decoded so far. ``params`` holds the step's parameter arrays
    (``Model._step_names``), ``bias`` the (H, capacity, capacity)
    self-attention position biases, ``cross_kv[i]`` decoder layer i's
    (B, H, S_max, d/H) encoder keys and values, and ``self_kv[i]`` its
    (R, H, capacity, d/H) self-attention key and value buffers, of which
    each step writes position ``steps`` and reads the first ``steps``. A
    step writes nothing else here: its in-place work is on arrays it made
    itself. Every step of the loop runs on the parameter arrays the cache
    took; ``AdamW`` rebinds a parameter's array and never writes into it,
    so those stay the arrays they were. Build a cache in the decode loop it
    serves, and never share it between threads.
    """

    control: np.ndarray
    enc_mask: np.ndarray | None
    B: int
    capacity: int
    params: list[list[np.ndarray]]
    bias: np.ndarray
    cross_kv: list[tuple[np.ndarray, np.ndarray]]
    self_kv: list[tuple[np.ndarray, np.ndarray]]
    steps: int = 0


# ---------------------------------------------------------------- the model


def param_spec(cfg: ModelConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, ``Initializer`` method, shape) of every parameter, in the order
    ``Model.fresh`` draws them: each stack's tables, position biases, pre-LN
    layers, final norm and output head, the encoder's before the decoder's."""
    d, V = cfg.d, cfg.vocab_size
    spec: list[tuple[str, str, tuple[int, ...]]] = []

    def norm(name: str) -> None:
        spec.extend([(name + ".g", "ones", (d,)), (name + ".b", "zeros", (d,))])

    def stack(name: str, tables: dict, n_layers: int, attentions: list, head: str, width: int):
        for table, shape in tables.items():
            spec.append((f"{name}.{table}", "embedding", shape))
        for h in range(cfg.n_heads):
            spec.append((f"{name}.rpe.h{h}", "embedding", (cfg.rpe_buckets,)))
        for i in range(n_layers):
            p = f"{name}.L{i}."
            for j, weights in enumerate(attentions, 1):
                norm(f"{p}ln{j}")
                spec.extend((p + w, "projection", (d, d)) for w in weights)
            norm(f"{p}ln{len(attentions) + 1}")
            spec.extend([(p + "w1", "projection", (d, cfg.ffn_width)),
                         (p + "b1", "zeros", (cfg.ffn_width,)),
                         (p + "w2", "projection", (cfg.ffn_width, d)),
                         (p + "b2", "zeros", (d,))])
        norm(f"{name}.final")
        spec.extend([(head + ".w", "projection", (d, width)), (head + ".b", "zeros", (width,))])

    self_att = ("wq", "wk", "wv", "wo")
    stack("enc", {"emb": (V, d)}, cfg.n_enc_layers, [self_att], "kwe", 3)
    stack("dec", {"emb": (V, d), "ctrl": (cfg.n_slots, d)}, cfg.n_dec_layers,
          [self_att, ("cq", "ck", "cv", "co")], "kg", V)
    return spec


class Model:
    """Parameter container plus forward passes; no training state."""

    def __init__(self, cfg: ModelConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store
        self._inv_scale = 1.0 / math.sqrt(cfg.d)
        # the cached step's parameters: the embedding and output head, then each layer's
        self._step_names = (("dec.emb", "dec.final.g", "dec.final.b", "kg.w", "kg.b"),
                            *(tuple(f"dec.L{i}.{n}" for n in _STEP_LAYER_PARAMS)
                              for i in range(cfg.n_dec_layers)))

    @classmethod
    def fresh(cls, cfg: ModelConfig, seed: int) -> "Model":
        """A model drawn from ``seed``, every parameter in ``param_spec`` order."""
        store = ParamStore()
        init = Initializer(store, seed)
        for name, kind, shape in param_spec(cfg):
            getattr(init, kind)(name, shape)
        return cls(cfg, store)

    def encoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(ENCODER_PREFIXES)

    def decoder_params(self) -> dict[str, Tensor]:
        return self.store.subset(DECODER_PREFIXES)

    # ------------------------------------------------------------- encoder

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return ag.layer_norm(x, self.store[prefix + ".g"], self.store[prefix + ".b"])

    def _ffn(self, x: Tensor, p: str, ln: str) -> Tensor:
        """Pre-LN feed-forward sublayer of layer ``p`` under its norm ``ln``:
        x plus the FFN of the normed x, as one node."""
        return ag.ffn(x, *(self.store[p + n]
                           for n in (ln + ".g", ln + ".b", "w1", "b1", "w2", "b2")))

    def _self_attention(self, x: Tensor, prefix: str, bias: Tensor, mask: np.ndarray | None
                        ) -> Tensor:
        """Pre-LN self-attention sublayer of layer ``prefix``: x plus the
        attention output, as one node."""
        return ag.self_attention(
            x, *(self.store[prefix + n] for n in ("ln1.g", "ln1.b", "wq", "wk", "wv", "wo")),
            bias, self.cfg.n_heads, self._inv_scale, mask=mask)

    def encode(self, token_ids: Sequence[Sequence[int]]) -> Tensor:
        """A batch of B id lists -> (B, S_max, d) contextual states; one
        segment is a batch of one.

        Each segment's rows past its own length are padding, which
        ``padding_mask`` keeps out of every attention, so a segment's rows
        match its own encode up to float round-off.
        """
        cfg = self.cfg
        lengths = [len(s) for s in token_ids]
        if not lengths or min(lengths) < 1:
            raise ValueError("cannot encode an empty batch or an empty sequence")
        if max(lengths) > cfg.max_encode_len:
            raise ValueError(f"input of {max(lengths)} tokens exceeds "
                             f"max_encode_len={cfg.max_encode_len}")
        ids, _ = padded(token_ids)
        mask = padding_mask(lengths)
        buckets = _buckets(ids.shape[1], cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=True)
        bias = ag.gather_heads([self.store[f"enc.rpe.h{h}"] for h in range(cfg.n_heads)], buckets)

        x = ag.gather(self.store["enc.emb"], ids)
        for i in range(cfg.n_enc_layers):
            p = f"enc.L{i}."
            x = self._self_attention(x, p, bias, mask)
            x = self._ffn(x, p, "ln2")
        return self._ln(x, "enc.final")

    def kwe_probs(self, states: Tensor) -> Tensor:
        """(..., S, d) -> (..., S, 3) tag distribution (O/B/I) per token."""
        return ag.softmax_head(states, self.store["kwe.w"], self.store["kwe.b"])

    def predict_keywords(self, tag_probs: np.ndarray, segment: list[str]) -> list[KeywordSpan]:
        """Greedy tag decode to spans; confidence is the mean winning-tag
        probability over the span. Ranked by confidence, earliest start
        breaking ties."""
        labels = tag_probs.argmax(axis=1).tolist()
        winning = np.maximum.reduce(tag_probs, axis=1)
        spans = []
        for start, end in spans_from_bio(segment, labels):
            # the bits np.mean gives, without its per-call overhead
            conf = float(np.add.reduce(winning[start:end]) / (end - start))
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
        idx, mask = padded([ids or [] for ids in keyword_ids] if cfg.use_keyword_control else [])
        if idx.size:
            rows = ag.add(rows, ag.gather_sum(self.store["dec.emb"], idx, mask))
        return rows

    def _check_rows(self, R: int, B: int) -> None:
        if R != B * self.cfg.n_slots:
            raise ValueError(f"{R} slot rows for {B} segment(s) of {self.cfg.n_slots} slots")

    def teacher_probs(self, prev_ids: np.ndarray, control: Tensor, enc_states: Tensor,
                      enc_mask: np.ndarray | None = None) -> Tensor:
        """Teacher-forced decode over steps 1..T, which training records on
        the tape: prev_ids (R, T) holds w^{t-1} per slot row and step.

        enc_states is (B, S_max, d) from ``encode``, enc_mask its
        ``padding_mask``, and R = B*N rows laid out as in ``control_rows``;
        each segment's N*T queries attend only to its own states. Returns
        (R*T, vocab) next-token distributions, row r*T + t being slot row
        r's distribution for step t + 1.
        """
        cfg = self.cfg
        R, T = prev_ids.shape
        self._check_rows(R, enc_states.shape[0])
        cross_kv = [(ag.matmul(enc_states, self.store[f"dec.L{i}.ck"]),
                     ag.matmul(enc_states, self.store[f"dec.L{i}.cv"]))
                    for i in range(cfg.n_dec_layers)]
        x = ag.add(
            ag.add(ag.gather(self.store["dec.emb"], prev_ids), Tensor(_ape_rows(T, cfg.d))),
            ag.reshape(control, (R, 1, cfg.d)),
        )
        mask = _causal_mask(T)
        buckets = _buckets(T, cfg.rpe_buckets, cfg.rpe_max_distance, bidirectional=False)
        bias = ag.gather_heads([self.store[f"dec.rpe.h{h}"] for h in range(cfg.n_heads)], buckets)

        for i in range(cfg.n_dec_layers):
            p = f"dec.L{i}."
            x = self._self_attention(x, p, bias, mask)
            # each segment's N slot rows attend over its own states
            x = ag.cross_attention(
                x, *(self.store[p + n] for n in ("ln2.g", "ln2.b", "cq")), *cross_kv[i],
                self.store[p + "co"], cfg.n_heads, self._inv_scale, mask=enc_mask)
            x = self._ffn(x, p, "ln3")
        x = ag.reshape(self._ln(x, "dec.final"), (R * T, cfg.d))
        return ag.softmax_head(x, self.store["kg.w"], self.store["kg.b"])

    def decode_cache(self, control: np.ndarray, enc_states: np.ndarray, steps: int,
                     enc_mask: np.ndarray | None = None) -> DecodeCache:
        """The cache of a greedy decode loop of ``steps`` positions over the
        (R, d) control rows and (B, S_max, d) encoder states, with
        R = B*N as for ``teacher_probs``: the step's parameter arrays, the
        position biases of its positions, each layer's encoder keys and
        values split into heads, and each layer's self-attention key and
        value buffers for the R slot rows."""
        cfg = self.cfg
        d, H = cfg.d, cfg.n_heads
        R, B = len(control), len(enc_states)
        self._check_rows(R, B)
        store = self.store
        rpe = np.stack([store[f"dec.rpe.h{h}"].data for h in range(H)])
        shape = (R, H, steps, d // H)
        return DecodeCache(
            control=control, enc_mask=enc_mask, B=B, capacity=steps,
            # lists: a tuple built from a generator is grown to its size, and the
            # interpreter keeps such freed tuples for reuse that never comes (~0.5 MB)
            params=[[store[n].data for n in names] for names in self._step_names],
            bias=rpe[:, _buckets(steps, cfg.rpe_buckets, cfg.rpe_max_distance,
                                 bidirectional=False)],
            cross_kv=[(ag.split_heads(ag.gemm(enc_states, store[f"dec.L{i}.ck"].data), H),
                       ag.split_heads(ag.gemm(enc_states, store[f"dec.L{i}.cv"].data), H))
                      for i in range(cfg.n_dec_layers)],
            self_kv=[(np.empty(shape), np.empty(shape)) for _ in range(cfg.n_dec_layers)],
        )

    def decode_probs(self, prev_ids: np.ndarray, cache: DecodeCache) -> np.ndarray:
        """One greedy decode step on ``cache``: prev_ids (R, 1) holds the
        token each slot row is fed after the cache's ``steps`` earlier ones,
        and the result is the (R, vocab) next-token distributions of step
        ``steps`` + 1, equal to the matching rows of ``teacher_probs`` up to
        float round-off.

        It runs as plain numpy over the (R, d) slot rows of the one new
        position and the cache's arrays. Per layer: the self-attention
        sublayer, which writes the position's keys and values into the
        cache's head-layout buffers and attends over their first ``steps``
        positions under the position bias (a single new position sees every
        key, so it needs no causal mask); the cross-attention sublayer,
        whose R rows split into B blocks of N, each attending over its own
        segment's encoder heads under the cache's ``enc_mask``; and the FFN
        sublayer. Then the final norm and the softmax head.

        It runs the operations of the taped nodes' forwards (those of
        ``ag.self_attention``, ``ag.cross_attention``, ``ag.ffn``,
        ``ag.layer_norm`` and ``ag.softmax_head``) on the same operands in
        the same order, so every distribution has their bits; on (R, d) rows
        a ``gemm`` is a plain ``@``. Its norms are ``ag.layer_norm_array``'s
        output and its softmaxes ``ag.softmax_array``, which overwrites the
        logits it is given. It keeps none of the intermediates the backward
        rules read, and it, like those two functions, works in place only on
        arrays it made itself, never on a cache buffer or a parameter: the
        softmaxes run on logits the step has just made, and the residuals
        are summed into its own slot rows. ``tests/test_model.py``'s
        greedy-decode oracle, built from ``ag``'s array functions, pins the
        bits."""
        cfg = self.cfg
        R = len(prev_ids)
        d, H, scale = cfg.d, cfg.n_heads, self._inv_scale
        dh = d // H
        t0 = cache.steps
        L = cache.steps = t0 + 1
        (emb, final_g, final_b, head_w, head_b), *layers = cache.params
        pos_bias = cache.bias[:, t0:L, :L]

        x = emb[prev_ids[:, 0]]
        x += _ape_rows(cache.capacity, d)[t0]
        x += cache.control
        for (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, cq, co, ln3_g, ln3_b, w1, b1, w2, b2
             ), (kb, vb), (ck, cv) in zip(layers, cache.self_kv, cache.cross_kv):
            h = ag.layer_norm_array(x, ln1_g, ln1_b)[0]
            kb[:, :, t0] = (h @ wk).reshape(R, H, dh)
            vb[:, :, t0] = (h @ wv).reshape(R, H, dh)
            a = (h @ wq).reshape(R, H, 1, dh) @ kb[:, :, :L].swapaxes(-1, -2)
            a += pos_bias
            a *= scale
            # (R, H, 1, dh) heads are laid out as their merged (R, d) rows
            x += (ag.softmax_array(a) @ vb[:, :, :L]).reshape(R, d) @ wo

            q = ag.layer_norm_array(x, ln2_g, ln2_b)[0] @ cq
            a = q.reshape(cache.B, -1, H, dh).swapaxes(1, 2) @ ck.swapaxes(-1, -2)
            a *= scale
            if cache.enc_mask is not None:
                a += cache.enc_mask
            x += (ag.softmax_array(a) @ cv).swapaxes(1, 2).reshape(R, d) @ co

            h = ag.layer_norm_array(x, ln3_g, ln3_b)[0] @ w1
            h += b1
            np.maximum(h, 0.0, out=h)
            h = h @ w2
            h += b2
            x += h
        z = ag.layer_norm_array(x, final_g, final_b)[0] @ head_w
        z += head_b
        return ag.softmax_array(z)

    def greedy_decode(self, control: np.ndarray, enc_states: np.ndarray, bos_id: int, steps: int,
                      enc_mask: np.ndarray | None = None, stop_id: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy decode from BOS, each step's argmax fed back in: the one
        greedy decode loop. Arguments are arrays, as for ``decode_cache``;
        it runs one ``decode_probs`` step per position on a DecodeCache of
        ``steps`` positions, and records nothing on any tape.

        Returns the (t, R, vocab) distributions and the (t, R) tokens chosen
        from them, one row per control row. It stops after the first step by
        which every row has emitted ``stop_id``; with None it runs all ``steps``.
        """
        cache = self.decode_cache(control, enc_states, steps, enc_mask)
        prev = np.full((len(control), 1), bos_id, dtype=np.intp)
        stopped = np.zeros(len(prev), dtype=bool)
        probs, tokens = [], []
        for _ in range(steps):
            probs.append(self.decode_probs(prev, cache))
            tokens.append(probs[-1].argmax(axis=1))
            prev = tokens[-1][:, None]
            if stop_id is not None:
                stopped |= tokens[-1] == stop_id
                if stopped.all():
                    break
        return np.stack(probs), np.stack(tokens)
