"""Decoder-only model assembly: build, forward, and greedy decode.

Blocks are pre-normalized residuals: x += Attn(RMSNorm(x)) then
x += FFN(RMSNorm(x)), with a final RMSNorm before the output projection.
The forward pass and cached decoding run the same block loop and the same
attention kernel, with or without dual-chunk attention: ``forward``
prefills a fresh KV cache with the whole sequence, exactly as
``greedy_decode`` prefills its prompt. Decoding then drafts tokens by
copying the text after the latest earlier occurrence of its last tokens,
verifies the draft in one block call, one logit row at a time, and rolls
the cache back to the accepted tokens. Both check the weights against the
layout of the config once per call, so the loop runs the unchecked
kernels and one rotary table serves every layer. A call of enough rows
runs each block, and ``forward`` its logits, in two halves on two threads
where the process may use two CPUs, bit for bit as on one.
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
    RMS_EPS,
    KvCache,
    SwigluWeights,
    _cached_attention,
    _ffn_shapes,
    _rms_norm,
    _swiglu_ffn,
)
from .longctx import _rotary_table
from .moe import (
    ExpertBank,
    MoeConfig,
    _empty_stack,
    _moe_forward,
    _upcycle_draws,
    upcycle_from_dense,
)
from .ops import (
    Rng,
    _check_int,
    _check_type,
    _draw_halves,
    _halves,
    _is_int,
    _items,
    _normal_draws,
    _on_halves,
)

INIT_STD = 0.02
# Most draft tokens one speculative call of greedy_decode feeds after the
# emitted token.
MAX_DRAFT = 8


@dataclass
class LayerWeights:
    """One decoder block's weights; shapes are [out, in] as annotated.

    Models that :func:`build_model`, :func:`upcycle_model` and
    ``serialize.load_weights`` return store every matrix here column-major
    (Fortran order): ``wq.T`` and the others are C-contiguous, so the
    ``x @ w.T`` projections of the blocks are plain GEMMs. At the 2 to 9
    rows of a speculative decode call, BLAS runs the transposed form of a
    row-major matrix up to 4x slower. Expert banks are stored the same way
    (see :class:`~qwenkit.moe.ExpertBank`). Row-major weights built by hand
    give the same results, only slower.
    """

    attn_gamma: np.ndarray
    wq: np.ndarray  # [n_q_heads * head_dim, hidden]
    bq: np.ndarray  # [n_q_heads * head_dim]
    wk: np.ndarray  # [n_kv_heads * head_dim, hidden]
    bk: np.ndarray  # [n_kv_heads * head_dim]
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray  # [hidden, n_q_heads * head_dim]
    ffn_gamma: np.ndarray
    ffn: SwigluWeights | None = None
    moe_bank: ExpertBank | None = None

    def __post_init__(self):
        if (self.ffn is None) == (self.moe_bank is None):
            raise ConfigError("layer must hold exactly one of a dense FFN or an expert bank")


@dataclass
class ModelWeights:
    """Every weight of a model. The embedding is row-major, as its rows are
    gathered; an untied ``lm_head`` is column-major like the block matrices
    (see :class:`LayerWeights`)."""

    embedding: np.ndarray  # [vocab, hidden]
    layers: list[LayerWeights]
    final_gamma: np.ndarray
    lm_head: np.ndarray | None  # None when tied: the embedding is the projection

    def output_matrix(self) -> np.ndarray:
        return self.embedding if self.lm_head is None else self.lm_head


# LayerWeights arrays in draw order; container names are ``layers.{i}.{field}``.
_LAYER_ARRAYS = ("attn_gamma", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "ffn_gamma")


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every weight-container tensor name with its shape, in draw order.

    This is the one statement of the weight layout: :func:`build_model`
    draws these tensors in this order, the container stores exactly these
    names, and :func:`_check_weights` holds weights to it. Expert e of a
    stacked bank is named ``layers.{i}.moe.routed.{e}.*`` (or ``shared``).
    """
    q_width = cfg.n_q_heads * cfg.head_dim
    kv_width = cfg.n_kv_heads * cfg.head_dim
    # A MoE config's ffn_intermediate is its expert_dim.
    ffn = tuple(zip(SwigluWeights._fields, _ffn_shapes(cfg.ffn_intermediate, cfg.hidden)))
    shapes: dict[str, tuple[int, ...]] = {"embedding": (cfg.vocab_size, cfg.hidden)}
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes[p + "attn_gamma"] = (cfg.hidden,)
        for x, width in (("q", q_width), ("k", kv_width), ("v", kv_width)):
            shapes[f"{p}w{x}"] = (width, cfg.hidden)
            shapes[f"{p}b{x}"] = (width,)
        shapes[p + "wo"] = (cfg.hidden, q_width)
        shapes[p + "ffn_gamma"] = (cfg.hidden,)
        if cfg.moe is None:
            triples = [p + "ffn."]
        else:
            shapes[p + "moe.router"] = (cfg.moe.n_routed, cfg.hidden)
            triples = _expert_prefixes(p, cfg.moe.n_routed, cfg.moe.n_shared)
        for t in triples:
            for part, shape in ffn:
                shapes[t + part] = shape
    shapes["final_norm.gamma"] = (cfg.hidden,)
    if not cfg.tie_embeddings:
        shapes["lm_head"] = (cfg.vocab_size, cfg.hidden)
    return shapes


def _expert_prefixes(layer: str, n_routed: int, n_shared: int) -> list[str]:
    return ([f"{layer}moe.routed.{e}." for e in range(n_routed)]
            + [f"{layer}moe.shared.{s}." for s in range(n_shared)])


def _check_weights(weights: ModelWeights, cfg: ModelConfig) -> dict[str, np.ndarray]:
    """The entry check of :func:`forward`, :func:`greedy_decode`,
    :func:`upcycle_model` and ``serialize.save_weights``: weights of the
    config's layout (:func:`_tensor_shapes`) held as float32 arrays, else
    :class:`ConfigError` naming the first tensor missing, extra, of
    another shape or of another dtype. Returns their :func:`_tensors`."""
    _check_type("weights", weights, ModelWeights, ConfigError)
    _check_type("cfg", cfg, ModelConfig, ConfigError)
    tensors = _tensors(weights)
    expected = _tensor_shapes(cfg)
    if tensors.keys() != expected.keys():
        missing = sorted(expected.keys() - tensors.keys())
        extra = sorted(tensors.keys() - expected.keys())
        raise ConfigError(f"tensor set mismatch: missing {missing}, extra {extra}")
    for name, arr in tensors.items():
        if np.shape(arr) != expected[name]:
            raise ConfigError(
                f"tensor {name} has shape {np.shape(arr)}, expected {expected[name]}")
        dtype = getattr(arr, "dtype", None)
        if dtype != np.float32:
            raise ConfigError(f"tensor {name} must be a float32 array, got dtype {dtype}")
    return tensors


def _tensors(weights: ModelWeights) -> dict[str, np.ndarray]:
    """Every tensor ``weights`` holds, keyed by container name.

    Read from the object, not from a config, so a tensor the config does
    not expect (an untied ``lm_head``) still shows up, and every layer
    array is listed, even a None one, which :func:`_check_weights` names.
    """
    out = {"embedding": weights.embedding}
    for i, lw in enumerate(weights.layers):
        p = f"layers.{i}."
        out.update((p + name, getattr(lw, name)) for name in _LAYER_ARRAYS)
        bank = lw.moe_bank
        if bank is None:
            triples = [(p + "ffn.", lw.ffn)]
        else:
            out[p + "moe.router"] = bank.router
            # zip(*stack) unstacks: one (gate, up, down) view per expert.
            triples = zip(_expert_prefixes(p, len(bank.routed.w_gate), len(bank.shared.w_gate)),
                          [*zip(*bank.routed), *zip(*bank.shared)])
        for prefix, triple in triples:
            out.update((prefix + part, arr) for part, arr in zip(SwigluWeights._fields, triple))
    out["final_norm.gamma"] = weights.final_gamma
    if weights.lm_head is not None:
        out["lm_head"] = weights.lm_head
    return out


def _from_tensors(arrays: dict[str, np.ndarray], cfg: ModelConfig) -> ModelWeights:
    """The :class:`ModelWeights` whose :func:`_tensors` are ``arrays``, which
    must hold the names of :func:`_tensor_shapes` for ``cfg``.

    This sets the storage order of :class:`LayerWeights`: every matrix but
    the embedding is made column-major, and experts are copied into
    :func:`~qwenkit.moe._empty_stack`. ``arrays`` is consumed: each tensor
    leaves it as it is placed, so at most one tensor (or one expert stack)
    is held twice.
    """

    def take(name: str) -> np.ndarray | None:
        arr = arrays.pop(name, None)
        return None if arr is None else np.asfortranarray(arr)

    def triple(prefix: str) -> SwigluWeights:
        return SwigluWeights(*(take(prefix + part) for part in SwigluWeights._fields))

    def stack(prefix: str, n: int) -> SwigluWeights:
        out = _empty_stack(n, cfg.moe)
        for e in range(n):
            for w, part in zip(out, SwigluWeights._fields):
                w[e] = arrays.pop(f"{prefix}{e}.{part}")
        return out

    # Rows of the embedding are gathered, so it stays row-major; tied, it is
    # also the output matrix.
    embedding = arrays.pop("embedding")
    layers = []
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        if cfg.moe is None:
            ffn, bank = triple(p + "ffn."), None
        else:
            ffn = None
            bank = ExpertBank(routed=stack(p + "moe.routed.", cfg.moe.n_routed),
                              shared=stack(p + "moe.shared.", cfg.moe.n_shared),
                              router=take(p + "moe.router"))
        layers.append(LayerWeights(*(take(p + name) for name in _LAYER_ARRAYS),
                                   ffn=ffn, moe_bank=bank))
    return ModelWeights(embedding, layers, take("final_norm.gamma"), take("lm_head"))


def build_model(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Draw all weights from Normal(0, 0.02) deterministically from ``seed``.

    Every tensor of the weight layout is drawn in its order: embedding,
    then per layer the attention norm, q/k/v projections with biases,
    output projection, FFN norm, and the FFN (dense triple, or router then
    routed then shared experts), then the final norm and the untied output
    projection. A tensor of n scalars consumes n + n % 2 raw outputs of
    ``Rng(seed)``, so each starts at the sum of those before it. A large
    enough model is drawn as two groups of whole tensors on two threads,
    each group from the stream advanced to its first tensor's offset
    (:func:`~qwenkit.ops._draw_halves`), into arrays this thread
    allocates; one thread or two give the same bytes.
    """
    _check_type("cfg", cfg, ModelConfig, ConfigError)
    rng = Rng(seed)
    arrays = {name: np.empty(shape, np.float32) for name, shape in _tensor_shapes(cfg).items()}
    # Names, not arrays: _from_tensors frees each array as it places it.
    names = list(arrays)

    def draw(part: tuple[slice, int]) -> None:
        tensors, offset = part
        part_rng = rng._ahead(offset)
        for name in names[tensors]:
            part_rng._fill_normals(arrays[name].reshape(-1), 0.0, INIT_STD)

    _on_halves(draw, _draw_halves([_normal_draws(arrays[name].size) for name in names]))
    return _from_tensors(arrays, cfg)


def upcycle_model(
    weights: ModelWeights,
    dense_cfg: ModelConfig,
    moe: MoeConfig,
    seed: int,
) -> tuple[ModelWeights, ModelConfig]:
    """Convert a dense model into a MoE model with upcycled expert banks.

    Attention, norm and embedding weights are taken from ``weights``; every
    FFN is replaced by the bank :func:`~qwenkit.moe.upcycle_from_dense`
    draws from it, all from one ``Rng(seed)``, so only the upcycling draws
    consume the seed. Every layer draws
    :func:`~qwenkit.moe._upcycle_draws` raw outputs, so with enough layers
    and draws the first and second half of the layers are upcycled on two
    threads, each from the stream advanced to its first layer's offset
    (:func:`~qwenkit.ops._draw_halves`); one thread or two give the same
    bytes. Returns the weights and ``dense_cfg`` with ``moe`` set.

    The source is checked once, at entry, as :func:`forward` checks it:
    weights that are not float32 arrays of the layout ``dense_cfg`` implies
    raise :class:`ConfigError` naming the tensor, and so does a
    ``dense_cfg`` that already holds a MoE model.
    """
    _check_weights(weights, dense_cfg)
    if dense_cfg.moe is not None:
        raise ConfigError("dense_cfg already holds a MoE model; cannot upcycle")
    _check_type("moe", moe, MoeConfig, ConfigError)
    target = replace(dense_cfg, moe=moe, ffn_intermediate=moe.expert_dim)
    rng = Rng(seed)
    banks: list[ExpertBank | None] = [None] * len(weights.layers)

    def upcycle(part: tuple[slice, int]) -> None:
        layers, offset = part
        part_rng = rng._ahead(offset)
        for li in range(len(banks))[layers]:
            ffn = weights.layers[li].ffn
            banks[li] = upcycle_from_dense(ffn.w_gate, ffn.w_up, ffn.w_down, moe, part_rng)

    _on_halves(upcycle, _draw_halves([_upcycle_draws(moe, dense_cfg.ffn_intermediate)]
                                     * len(banks)))
    # The stored layout of _from_tensors, made here, so a row-major source
    # gives it too; the banks come column-major from upcycle_from_dense.
    layers = [LayerWeights(*(np.asfortranarray(getattr(src, name)) for name in _LAYER_ARRAYS),
                           moe_bank=bank)
              for src, bank in zip(weights.layers, banks)]
    lm_head = None if weights.lm_head is None else np.asfortranarray(weights.lm_head)
    return ModelWeights(weights.embedding, layers, np.asfortranarray(weights.final_gamma),
                        lm_head), target


def _checked_ids(weights: ModelWeights, cfg: ModelConfig, token_ids, name: str) -> list[int]:
    """The entry check of :func:`forward` and :func:`greedy_decode`: the
    weights by :func:`_check_weights`, then the ids ``token_ids`` yields, as
    a list. Input that is not iterable, text, a mapping or a set
    (:func:`~qwenkit.ops._items`), or that yields no id or one outside the
    vocabulary, is an :class:`InputError`."""
    _check_weights(weights, cfg)
    ids = []
    for t in _items(token_ids, name, "token ids"):
        if not _is_int(t):
            raise InputError(f"token id {t!r} is not an integer")
        if not 0 <= t < cfg.vocab_size:
            raise InputError(f"token id {t} outside vocabulary of {cfg.vocab_size}")
        ids.append(int(t))
    if not ids:
        raise InputError(f"{name} must be nonempty")
    return ids


def _split_heads(x: np.ndarray, n_heads: int, head_dim: int) -> np.ndarray:
    # [seq, n_heads * head_dim] -> a [n_heads, seq, head_dim] view; the
    # attention kernel copies q and k as it rotates them, v as it caches it
    return x.reshape(x.shape[0], n_heads, head_dim).transpose(1, 0, 2)


def _rotary(cfg: ModelConfig, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`~qwenkit.longctx._rotary_table` of the config, for ``n``
    positions."""
    return _rotary_table(cfg.rope_params(), cfg.yarn, cfg.dca, n)


def _blocks(
    weights: ModelWeights,
    cfg: ModelConfig,
    ids: list[int],
    cache: KvCache,
    rotary: tuple[np.ndarray, np.ndarray, float],
) -> np.ndarray:
    """Hidden states [rows, hidden] of ``ids`` after every decoder block.

    The rows continue the sequence ``cache`` holds, at position
    ``cache.length()``: they attend to the cached history and are appended
    to it, with or without dual-chunk attention (whose keys the cache holds
    rotated at their position mod chunk_size). ``rotary`` is :func:`_rotary`
    over at least the positions the rows reach. The weights must have
    passed :func:`_check_weights`: every layer runs the unchecked kernels.

    Enough rows run in two halves (:func:`~qwenkit.ops._halves`): the norms,
    projections, residuals and dense FFN by rows, attention by KV heads once
    this thread has appended the new keys and values. An expert bank runs
    on all rows at once, on this thread.
    """
    params = cfg.attention_params()
    cos, sin, scale_mult = rotary
    x = weights.embedding[ids]  # a copy, so the residuals add in place
    halves = _halves(len(ids))
    # Each layer's halves write their rows of q, k and v here.
    q = np.empty((len(ids), params.q_values_per_token), np.float32)
    k = np.empty((len(ids), params.kv_values_per_token), np.float32)
    v = np.empty_like(k)

    def project(s: slice, lw: LayerWeights) -> None:
        h = _rms_norm(x[s], lw.attn_gamma, RMS_EPS)
        for w, b, out in ((lw.wq, lw.bq, q[s]), (lw.wk, lw.bk, k[s]), (lw.wv, lw.bv, v[s])):
            np.matmul(h, w.T, out=out)
            out += b

    def mix(s: slice, lw: LayerWeights, attn: np.ndarray) -> None:
        xs = x[s]
        xs += attn[s] @ lw.wo.T
        if lw.ffn is not None:
            xs += _swiglu_ffn(_rms_norm(xs, lw.ffn_gamma, RMS_EPS), *lw.ffn)

    q3 = _split_heads(q, cfg.n_q_heads, cfg.head_dim)
    k3 = _split_heads(k, cfg.n_kv_heads, cfg.head_dim)
    v3 = _split_heads(v, cfg.n_kv_heads, cfg.head_dim)
    for li, lw in enumerate(weights.layers):
        _on_halves(project, halves, lw)
        attn = _cached_attention(cache, q3, k3, v3, params, cos, sin, li, scale_mult, cfg.dca)
        _on_halves(mix, halves, lw, attn)
        if lw.moe_bank is not None:
            x += _moe_forward(_rms_norm(x, lw.ffn_gamma, RMS_EPS), cfg.moe, lw.moe_bank)
    return x


def _logits(weights: ModelWeights, cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Logits of the rows of ``x`` [rows, hidden], or of one row [hidden];
    enough rows are projected in two halves."""
    out = np.empty(x.shape[:-1] + (cfg.vocab_size,), np.float32)

    def project(s) -> None:
        o = out[s]
        np.matmul(_rms_norm(x[s], weights.final_gamma, RMS_EPS),
                  weights.output_matrix().T, out=o)
        if not np.isfinite(o).all():
            raise NumericError("logits hold non-finite values; are the weights finite?")

    # One row is projected whole: ``...`` indexes all of it.
    _on_halves(project, _halves(len(x)) if x.ndim == 2 else (...,))
    return out


def forward(weights: ModelWeights, cfg: ModelConfig, token_ids: Sequence[int]) -> np.ndarray:
    """Logits for every position, [seq, vocab_size].

    The sequence prefills a fresh KV cache through the blocks, as
    :func:`greedy_decode` prefills its prompt. Token ids must be Python or
    numpy integers (not bool) inside the vocabulary, else
    :class:`InputError`. Weights that are not float32 arrays of the layout
    ``cfg`` implies raise :class:`ConfigError` naming the tensor. A
    dual-chunk config whose remapped positions overrun the YaRN range
    raises :class:`~qwenkit.errors.ParameterError`. Non-finite logits raise
    :class:`NumericError`.
    """
    ids = _checked_ids(weights, cfg, token_ids, "token_ids")
    if len(ids) > cfg.max_ctx:
        raise InputError(f"sequence length {len(ids)} exceeds max_ctx {cfg.max_ctx}")
    x = _blocks(weights, cfg, ids, KvCache(cfg.n_layers, capacity=len(ids)),
                _rotary(cfg, len(ids)))
    return _logits(weights, cfg, x)


def greedy_decode(
    weights: ModelWeights, cfg: ModelConfig, prompt: Sequence[int], max_new: int
) -> list[int]:
    """Extend ``prompt`` by up to ``max_new`` argmax tokens using the KV cache.

    The cache is preallocated for the prompt and ``max_new`` tokens, and
    one rotary table covers them all. The whole prompt goes through the
    blocks in one call, as in :func:`forward`; only its last row is
    projected to logits. Each later call is speculative (prompt lookup
    decoding): it feeds the last emitted token followed by a draft copied
    from after the latest earlier occurrence of the last two tokens (else
    the last one) in prompt + output. Rows are projected to logits one at
    a time, and the first argmax that differs from its draft token ends the
    call; the cache is then rolled back to the accepted tokens. The draft
    starts at one token, doubles after a fully accepted draft up to
    :data:`MAX_DRAFT` and halves after a miss; with no earlier occurrence
    there is no draft and the call is one row. So the output is the argmax
    loop over :func:`forward`, with ties within 1e-5 as before, whatever
    the drafts were. Deterministic; argmax ties resolve to the lower token
    id. Generation stops early after emitting the configured end-of-text
    id, also inside an accepted draft. Token ids and weights are checked
    as in :func:`forward`, ``max_new`` must be a Python or numpy integer
    (not bool) >= 0, else :class:`InputError`, and non-finite logits raise
    :class:`NumericError`. A dual-chunk config decodes through the same
    cache, whose keys are then rotated at their position mod chunk_size,
    and gives the argmax loop over :func:`forward` on that config.
    """
    ids = _checked_ids(weights, cfg, prompt, "prompt")
    _check_int("max_new", max_new, 0, error=InputError)
    if len(ids) + max_new > cfg.max_ctx:
        raise InputError(
            f"prompt length {len(ids)} + max_new {max_new} exceeds max_ctx {cfg.max_ctx}"
        )
    total = len(ids) + int(max_new)
    rotary = _rotary(cfg, total)  # first: it also refuses a DCA overrun of the YaRN range
    if max_new == 0:
        return ids
    cache = KvCache(cfg.n_layers, capacity=total)
    out = list(ids)
    x = _blocks(weights, cfg, ids, cache, rotary)[-1:]
    draft: list[int] = []
    # Each unigram and bigram of out[:-1] -> the index just past its latest
    # occurrence; out[:indexed] is indexed.
    latest: dict[int | tuple[int, int], int] = {}
    indexed = 0
    n_draft = 1
    while True:
        # Row i follows draft[:i]; stop at the first row whose argmax is not
        # the next draft token, so rejected rows are never projected.
        for i, row in enumerate(x):
            nxt = int(np.argmax(_logits(weights, cfg, row)))
            out.append(nxt)
            if nxt == cfg.effective_eot_id or len(out) == total:
                return out
            if i == len(draft) or nxt != draft[i]:
                break
        if draft:
            cache._truncate(len(out) - 1)
            n_draft = min(2 * n_draft, MAX_DRAFT) if i == len(draft) else max(n_draft // 2, 1)
        for j in range(indexed, len(out) - 1):
            latest[out[j]] = j + 1
            if j:
                latest[out[j - 1], out[j]] = j + 1
        indexed = len(out) - 1
        start = latest.get((out[-2], out[-1]), latest.get(out[-1]))
        draft = [] if start is None else _copy_forward(out, start, min(n_draft, total - len(out)))
        x = _blocks(weights, cfg, [out[-1], *draft], cache, rotary)


def _copy_forward(out: list[int], start: int, n: int) -> list[int]:
    """The ``n`` tokens that continue ``out`` by copying it from ``start``
    on with overlap, as LZ77 does: past the end of ``out`` the copy reads
    its own output, so a run or a cycle extends periodically."""
    run = out[start:start + n]
    return [run[m % len(run)] for m in range(n)]
