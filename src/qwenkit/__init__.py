"""Desk-scale building blocks of a grouped-query transformer family.

Numeric kernel, dense attention blocks with KV caching, long-context
frequency rescaling and dual-chunk remapping, fine-grained mixture-of-experts
with dense-to-MoE upcycling, byte-level BPE, and dataset decontamination.
Everything runs on float32 numpy arrays and is deterministic given a seed.
"""

from .config import ModelConfig, format_config, parse_config, preset, preset_names
from .decontam import (
    ContaminationReport,
    NgramIndex,
    TokenSeq,
    filter_corpus,
    lcs_contaminated,
    lcs_len,
    normalize,
)
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    InputError,
    NumericError,
    ParameterError,
    QwenKitError,
    StateError,
)
from .layers import (
    AttentionParams,
    KvCache,
    RopeParams,
    SwigluWeights,
    apply_rope,
    cached_attention,
    decode_step,
    gqa_attention,
    rms_norm,
    rope_freqs,
    swiglu_ffn,
)
from .longctx import DcaParams, YarnParams, dca_attention, dca_relpos, yarn_adjust
from .model import (
    LayerWeights,
    ModelWeights,
    build_model,
    forward,
    greedy_decode,
    upcycle_model,
)
from .moe import (
    ExpertBank,
    MoeConfig,
    gate_probs,
    moe_forward,
    replication_count,
    topk_select,
    upcycle_from_dense,
)
from .ops import Rng, sample_normal, silu, softmax_rows
from .serialize import load_weights, save_weights
from .tokenizer import (
    BpeVocab,
    base_vocab,
    bpe_train,
    compression_rate,
    decode,
    encode,
    load_vocab,
    save_vocab,
)

__version__ = "0.1.0"
