"""Decoder-only model assembly: build, forward, and greedy decode.

Blocks are pre-normalized residuals: x += Attn(RMSNorm(x)) then
x += FFN(RMSNorm(x)), with a final RMSNorm before the output projection.
The forward pass and cached decoding run the same block loop; only the
attention call differs.
When embeddings are tied the output projection *is* the embedding matrix
(same array object, no copy).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, InputError, NumericError
from .layers import (
    KvCache,
    SwigluWeights,
    cached_attention,
    gqa_attention,
    rms_norm,
    rope_freqs,
    swiglu_ffn,
)
from .longctx import dca_attention, yarn_adjust
from .moe import ExpertBank, MoeConfig, moe_forward, upcycle_from_dense
from .ops import Rng, sample_normal

INIT_STD = 0.02
# Prompt rows fed to the cache per batched call: long prompts go in chunks
# so the attention scores of one call stay small.
PREFILL_CHUNK = 128


@dataclass
class LayerWeights:
    attn_gamma: np.ndarray
    wq: np.ndarray  # [n_q_heads * head_dim, hidden]
    bq: np.ndarray | None
    wk: np.ndarray  # [n_kv_heads * head_dim, hidden]
    bk: np.ndarray | None
    wv: np.ndarray
    bv: np.ndarray | None
    wo: np.ndarray  # [hidden, n_q_heads * head_dim]
    ffn_gamma: np.ndarray
    ffn: SwigluWeights | None = None
    moe_bank: ExpertBank | None = None

    def __post_init__(self):
        if (self.ffn is None) == (self.moe_bank is None):
            raise ConfigError("layer must hold exactly one of a dense FFN or an expert bank")


@dataclass
class ModelWeights:
    embedding: np.ndarray  # [vocab, hidden]
    layers: list[LayerWeights]
    final_gamma: np.ndarray
    lm_head: np.ndarray | None  # None when tied: the embedding is the projection

    def output_matrix(self) -> np.ndarray:
        return self.embedding if self.lm_head is None else self.lm_head


def _draw(rng: Rng, *shape: int) -> np.ndarray:
    n = int(np.prod(shape))
    return sample_normal(rng, n, 0.0, INIT_STD).reshape(shape)


def _fresh_bank(rng: Rng, moe: MoeConfig) -> ExpertBank:
    router = _draw(rng, moe.n_routed, moe.hidden)
    routed = [
        SwigluWeights(
            _draw(rng, moe.expert_dim, moe.hidden),
            _draw(rng, moe.expert_dim, moe.hidden),
            _draw(rng, moe.hidden, moe.expert_dim),
        )
        for _ in range(moe.n_routed)
    ]
    shared = [
        SwigluWeights(
            _draw(rng, moe.expert_dim, moe.hidden),
            _draw(rng, moe.expert_dim, moe.hidden),
            _draw(rng, moe.hidden, moe.expert_dim),
        )
        for _ in range(moe.n_shared)
    ]
    return ExpertBank(routed=routed, shared=shared, router=router)


def build_model(
    cfg: ModelConfig, seed: int, dense_source: ModelWeights | None = None
) -> ModelWeights:
    """Draw all weights from Normal(0, 0.02) deterministically from ``seed``.

    With ``dense_source`` set (requires a MoE config), attention, norm, and
    embedding weights are taken from the source model and every FFN is
    replaced by an upcycled expert bank; only the upcycling draws consume the
    seed. Otherwise the draw order is: embedding, then per layer the
    attention norm, q/k/v projections with biases, output projection, FFN
    norm, and the FFN (dense triple, or router then routed then shared
    experts), then the final norm and the untied output projection.
    """
    cfg.validate()
    if dense_source is not None:
        return _upcycled_model(cfg, seed, dense_source)
    rng = Rng(seed)
    q_width = cfg.n_q_heads * cfg.head_dim
    kv_width = cfg.n_kv_heads * cfg.head_dim
    embedding = _draw(rng, cfg.vocab_size, cfg.hidden)
    layers = []
    for _ in range(cfg.n_layers):
        attn_gamma = _draw(rng, cfg.hidden)
        wq = _draw(rng, q_width, cfg.hidden)
        bq = _draw(rng, q_width) if cfg.use_qkv_bias else None
        wk = _draw(rng, kv_width, cfg.hidden)
        bk = _draw(rng, kv_width) if cfg.use_qkv_bias else None
        wv = _draw(rng, kv_width, cfg.hidden)
        bv = _draw(rng, kv_width) if cfg.use_qkv_bias else None
        wo = _draw(rng, cfg.hidden, q_width)
        ffn_gamma = _draw(rng, cfg.hidden)
        if cfg.moe is None:
            ffn = SwigluWeights(
                _draw(rng, cfg.ffn_intermediate, cfg.hidden),
                _draw(rng, cfg.ffn_intermediate, cfg.hidden),
                _draw(rng, cfg.hidden, cfg.ffn_intermediate),
            )
            layers.append(LayerWeights(attn_gamma, wq, bq, wk, bk, wv, bv, wo,
                                       ffn_gamma, ffn=ffn))
        else:
            bank = _fresh_bank(rng, cfg.moe)
            layers.append(LayerWeights(attn_gamma, wq, bq, wk, bk, wv, bv, wo,
                                       ffn_gamma, moe_bank=bank))
    final_gamma = _draw(rng, cfg.hidden)
    lm_head = None if cfg.tie_embeddings else _draw(rng, cfg.vocab_size, cfg.hidden)
    return ModelWeights(embedding, layers, final_gamma, lm_head)


def _upcycled_model(cfg: ModelConfig, seed: int, source: ModelWeights) -> ModelWeights:
    if cfg.moe is None:
        raise ConfigError("dense_source requires a MoE target config")
    if len(source.layers) != cfg.n_layers:
        raise ConfigError(
            f"source has {len(source.layers)} layers, target wants {cfg.n_layers}"
        )
    rng = Rng(seed)
    layers = []
    for li, src in enumerate(source.layers):
        if src.ffn is None:
            raise ConfigError(f"source layer {li} is not dense; cannot upcycle")
        bank = upcycle_from_dense(
            src.ffn.w_gate, src.ffn.w_up, src.ffn.w_down, cfg.moe, rng
        )
        layers.append(LayerWeights(src.attn_gamma, src.wq, src.bq, src.wk, src.bk,
                                   src.wv, src.bv, src.wo, src.ffn_gamma,
                                   moe_bank=bank))
    return ModelWeights(source.embedding, layers, source.final_gamma, source.lm_head)


def upcycle_model(
    weights: ModelWeights,
    dense_cfg: ModelConfig,
    moe: MoeConfig,
    seed: int,
) -> tuple[ModelWeights, ModelConfig]:
    """Convert a dense model into a MoE model with upcycled expert banks."""
    if moe.hidden != dense_cfg.hidden:
        raise ConfigError(
            f"moe hidden {moe.hidden} does not match model hidden {dense_cfg.hidden}"
        )
    target = replace(dense_cfg, moe=moe, ffn_intermediate=moe.expert_dim)
    target.validate()
    return build_model(target, seed, dense_source=weights), target


def _validate_ids(cfg: ModelConfig, token_ids: Sequence[int]) -> list[int]:
    ids = [int(t) for t in token_ids]
    for t in ids:
        if not 0 <= t < cfg.vocab_size:
            raise InputError(f"token id {t} outside vocabulary of {cfg.vocab_size}")
    return ids


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    # [seq, n_heads * head_dim] -> [n_heads, seq, head_dim]
    return x.reshape(x.shape[0], n_heads, head_dim).transpose(1, 0, 2)


def _rotary(cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """Rotary frequencies and attention-logit multiplier, YaRN-adjusted if set."""
    rope = cfg.rope_params()
    if cfg.yarn is not None:
        return yarn_adjust(rope, cfg.yarn)
    return rope_freqs(rope), 1.0


def _blocks(
    weights: ModelWeights,
    cfg: ModelConfig,
    ids: list[int],
    position: int,
    cache: KvCache | None,
    inv_freq: np.ndarray,
    scale_mult: float,
) -> np.ndarray:
    """Hidden states [rows, hidden] of ``ids`` after every decoder block.

    Without a cache the rows are the whole sequence from position 0. With a
    cache they continue it at ``position``, attend to the cached history,
    and are appended to it.
    """
    params = cfg.attention_params()
    rope = cfg.rope_params()
    rows = len(ids)
    x = weights.embedding[ids]
    for li, lw in enumerate(weights.layers):
        h = rms_norm(x, lw.attn_gamma, cfg.rms_eps)
        q = h @ lw.wq.T
        k = h @ lw.wk.T
        v = h @ lw.wv.T
        if lw.bq is not None:
            q, k, v = q + lw.bq, k + lw.bk, v + lw.bv
        q3 = _split_heads(q, cfg.n_q_heads, cfg.head_dim)
        k3 = _split_heads(k, cfg.n_kv_heads, cfg.head_dim)
        v3 = _split_heads(v, cfg.n_kv_heads, cfg.head_dim)
        if cache is not None:
            attn = cached_attention(cache, q3, k3, v3, params, rope, position=position,
                                    layer=li, scale_mult=scale_mult, inv_freq=inv_freq)
        elif cfg.dca is not None:
            attn = dca_attention(q3, k3, v3, params, cfg.dca, rope, cfg.yarn)
        else:
            attn = gqa_attention(q3, k3, v3, params, list(range(rows)), rope,
                                 scale_mult=scale_mult, inv_freq=inv_freq)
        x = x + attn @ lw.wo.T
        h2 = rms_norm(x, lw.ffn_gamma, cfg.rms_eps)
        if lw.ffn is not None:
            x = x + swiglu_ffn(h2, *lw.ffn)
        else:
            x = x + moe_forward(h2, cfg.moe, lw.moe_bank)
    return x


def _logits(weights: ModelWeights, cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    h = rms_norm(x, weights.final_gamma, cfg.rms_eps)
    return h @ weights.output_matrix().T


def forward(weights: ModelWeights, cfg: ModelConfig, token_ids: Sequence[int]) -> np.ndarray:
    """Logits for every position, [seq, vocab_size]."""
    ids = _validate_ids(cfg, token_ids)
    if not ids:
        raise InputError("token_ids must be nonempty")
    if len(ids) > cfg.max_ctx:
        raise InputError(f"sequence length {len(ids)} exceeds max_ctx {cfg.max_ctx}")
    inv_freq, scale_mult = _rotary(cfg)
    return _logits(weights, cfg, _blocks(weights, cfg, ids, 0, None, inv_freq, scale_mult))


def _cached_logits(
    weights: ModelWeights,
    cfg: ModelConfig,
    ids: list[int],
    position: int,
    cache: KvCache,
    inv_freq: np.ndarray,
    scale_mult: float,
) -> np.ndarray:
    """Feed ``ids`` at ``position`` through all layers via the cache; return
    the logits of the last one."""
    x = _blocks(weights, cfg, ids, position, cache, inv_freq, scale_mult)
    return _logits(weights, cfg, x[-1])


def _decode_token(
    weights: ModelWeights,
    cfg: ModelConfig,
    token: int,
    position: int,
    cache: KvCache,
    inv_freq: np.ndarray,
    scale_mult: float,
) -> np.ndarray:
    """Feed one token through all layers via the cache; return its logits."""
    return _cached_logits(weights, cfg, [token], position, cache, inv_freq, scale_mult)


def greedy_decode(
    weights: ModelWeights, cfg: ModelConfig, prompt: Sequence[int], max_new: int
) -> list[int]:
    """Extend ``prompt`` by up to ``max_new`` argmax tokens using the KV cache.

    The cache is preallocated for the prompt and ``max_new`` tokens. The
    prompt is fed in chunks of :data:`PREFILL_CHUNK` rows, each one batched
    call through the blocks, then every new token is fed as one row; only
    the last row of each call is projected to logits. Deterministic; argmax
    ties resolve to the lower token id. Generation stops early after
    emitting the configured end-of-text id. Non-finite logits raise
    :class:`NumericError`. Incremental decoding supports the vanilla
    attention path only (no dual-chunk remapping).
    """
    ids = _validate_ids(cfg, prompt)
    if not ids:
        raise InputError("prompt must be nonempty")
    if max_new < 0:
        raise InputError(f"max_new must be >= 0, got {max_new}")
    if cfg.dca is not None:
        raise ConfigError("greedy_decode does not support dual-chunk attention configs")
    if len(ids) + max_new > cfg.max_ctx:
        raise InputError(
            f"prompt length {len(ids)} + max_new {max_new} exceeds max_ctx {cfg.max_ctx}"
        )
    if max_new == 0:
        return ids
    inv_freq, scale_mult = _rotary(cfg)
    cache = KvCache(cfg.n_layers, capacity=len(ids) + max_new)
    for start in range(0, len(ids), PREFILL_CHUNK):
        logits = _cached_logits(weights, cfg, ids[start:start + PREFILL_CHUNK], start,
                                cache, inv_freq, scale_mult)
    out = list(ids)
    while True:
        nxt = int(np.argmax(logits))
        # argmax returns the first NaN if there is one, else +inf if there is
        # one, so checking the chosen logit catches both.
        if not np.isfinite(logits[nxt]):
            raise NumericError(
                f"non-finite logit {logits[nxt]} at position {len(out)}; "
                f"are the weights finite?"
            )
        out.append(nxt)
        if nxt == cfg.effective_eot_id or len(out) == len(ids) + max_new:
            return out
        logits = _decode_token(weights, cfg, nxt, len(out) - 1, cache, inv_freq, scale_mult)
