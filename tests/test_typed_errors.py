"""Hostile arguments at the public boundary get a typed error.

Each row feeds one public call one hostile value: a float where an int is
due, NaN, text where an array or a token sequence is due, or a value that
is not iterable (or not a mapping) where a collection is due. The call must
raise exactly the named :class:`~qwenkit.errors.QwenKitError` subclass,
never a bare ``TypeError``, a NaN array or a wrong answer. Tokens that are
not hashable are covered in ``test_decontam``.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import qwenkit as qk
from qwenkit.errors import ConfigError, FormatError, InputError, ParameterError, QwenKitError

NAN = float("nan")
_X = np.ones((2, 8), np.float32)
_GAMMA = np.ones(8, np.float32)
_INV_FREQ = qk.rope_freqs(qk.RopeParams(1e4, 8))
_SETS = {"s": [qk.TokenSeq(("a", "b", "c"), "e0")]}
_NANO = qk.preset("nano")
_NANO_WEIGHTS = qk.build_model(_NANO, 0)
_ATTN = qk.AttentionParams(2, 1, 8)
_ROPE = qk.RopeParams(1e4, 8)
_Q, _KV = np.ones((2, 3, 8), np.float32), np.ones((1, 3, 8), np.float32)
_NANO_MOE = qk.preset("nano-moe").moe
_FFN = _NANO_WEIGHTS.layers[0].ffn
_W2 = np.ones((2, 2), np.float32)
_ROW = np.ones(64, np.float32)
_BANK = qk.upcycle_model(_NANO_WEIGHTS, _NANO, _NANO_MOE, 1)[0].layers[0].moe_bank


def _attend(scale_mult=1.0, layer=0):
    return qk.cached_attention(qk.KvCache(1), _Q, _KV, _KV, _ATTN, _ROPE, position=0,
                               layer=layer, scale_mult=scale_mult)


def _decode(scale_mult=1.0, layer=0):
    return qk.decode_step(qk.KvCache(1), _Q[:, 0], _KV[:, 0], _KV[:, 0], _ATTN, _ROPE,
                          position=0, layer=layer, scale_mult=scale_mult)


HOSTILE = [
    # Integer arguments.
    ("KvCache-n_layers", lambda: qk.KvCache(1.5), ParameterError),
    ("KvCache-capacity", lambda: qk.KvCache(1, 2.5), ParameterError),
    ("Rng-seed", lambda: qk.Rng(1.5), ParameterError),
    ("Rng-permutation", lambda: qk.Rng(1).permutation(2.5), ParameterError),
    ("Rng-uint64s", lambda: qk.Rng(1).uint64s(2.5), ParameterError),
    ("Rng-normals", lambda: qk.Rng(1).normals(2.5), ParameterError),
    ("sample_normal-count", lambda: qk.sample_normal(qk.Rng(1), 2.5, 0.0, 1.0), ParameterError),
    ("topk_select-k", lambda: qk.topk_select(np.array([0.5, 0.5]), 1.5), ParameterError),
    ("AttentionParams-heads", lambda: qk.AttentionParams(8.0, 2, 32), ParameterError),
    ("RopeParams-head_dim", lambda: qk.RopeParams(1e4, 8.0), ParameterError),
    ("replication_count-h_ffn", lambda: qk.replication_count(8, 32, 1.5), ParameterError),
    ("apply_rope-positions",
     lambda: qk.apply_rope(np.ones((1, 3, 8)), [0, 1, 2.5], _INV_FREQ), ParameterError),
    ("KvCache-length-layer", lambda: qk.KvCache(1, 4).length(0.0), ParameterError),
    ("KvCache-keys-layer", lambda: qk.KvCache(1, 4).keys("0"), ParameterError),
    ("KvCache-values-layer", lambda: qk.KvCache(1, 4).values(np.float32(0)), ParameterError),
    ("cached_attention-layer", lambda: _attend(layer="0"), ParameterError),
    ("decode_step-layer", lambda: _decode(layer=0.0), ParameterError),
    ("dca_relpos-float", lambda: qk.dca_relpos(1.5, 0, qk.DcaParams(4)), ParameterError),
    ("dca_relpos-bool", lambda: qk.dca_relpos(True, 0, qk.DcaParams(4)), ParameterError),
    # Reals.
    ("rms_norm-eps", lambda: qk.rms_norm(_X, _GAMMA, eps=NAN), ParameterError),
    ("sample_normal-mean", lambda: qk.sample_normal(qk.Rng(1), 4, NAN, 1.0), ParameterError),
    ("sample_normal-std", lambda: qk.sample_normal(qk.Rng(1), 4, 0.0, NAN), ParameterError),
    ("RopeParams-base", lambda: qk.rope_freqs(qk.RopeParams(base=NAN, head_dim=8)),
     ParameterError),
    ("gqa_attention-scale_mult-text",
     lambda: qk.gqa_attention(_Q, _KV, _KV, _ATTN, [0, 1, 2], _ROPE, scale_mult="2"),
     ParameterError),
    ("gqa_attention-scale_mult-nan",
     lambda: qk.gqa_attention(_Q, _KV, _KV, _ATTN, [0, 1, 2], _ROPE, scale_mult=NAN),
     ParameterError),
    ("cached_attention-scale_mult-inf", lambda: _attend(scale_mult=float("inf")),
     ParameterError),
    ("decode_step-scale_mult-nan", lambda: _decode(scale_mult=NAN), ParameterError),
    # Arrays and text.
    ("silu-text", lambda: qk.silu("a"), InputError),
    ("softmax_rows-text", lambda: qk.softmax_rows("a"), InputError),
    ("rms_norm-ragged", lambda: qk.rms_norm([[1.0], [1.0, 2.0]], _GAMMA), InputError),
    # numpy reads None as NaN, which would give a NaN answer.
    ("silu-None", lambda: qk.silu(None), InputError),
    ("silu-None-item", lambda: qk.silu([None, 1.0]), InputError),
    ("rms_norm-None-item", lambda: qk.rms_norm([None, 1.0], [1.0, 1.0]), InputError),
    ("softmax_rows-None-item", lambda: qk.softmax_rows([[None, 1.0]]), InputError),
    ("swiglu_ffn-None-item", lambda: qk.swiglu_ffn([None, 1.0], _W2, _W2, _W2), InputError),
    ("gate_probs-None-item", lambda: qk.gate_probs([None, 1.0], _W2), InputError),
    ("parse_config-None", lambda: qk.parse_config(None), InputError),
    # Inputs that are not iterable at all.
    ("forward-None", lambda: qk.forward(_NANO_WEIGHTS, _NANO, None), InputError),
    ("greedy_decode-None", lambda: qk.greedy_decode(_NANO_WEIGHTS, _NANO, None, 2), InputError),
    ("bpe_train-None", lambda: qk.bpe_train(None, 300), InputError),
    ("bpe_train-int", lambda: qk.bpe_train(5, 300), InputError),
    ("compression_rate-None", lambda: qk.compression_rate(qk.base_vocab(), None), InputError),
    ("filter_corpus-train-None",
     lambda: qk.filter_corpus(None, _SETS, qk.decontam.MODE_TRAIN_LCS), InputError),
    ("filter_corpus-set-int",
     lambda: qk.filter_corpus([("a",)], {"s": 5}, qk.decontam.MODE_TRAIN_LCS), InputError),
    ("filter_corpus-sets-list",
     lambda: qk.filter_corpus([("a",)], [["a"]], qk.decontam.MODE_TRAIN_LCS), ParameterError),
    # Parameter groups of another type.
    ("ModelConfig-moe-int", lambda: replace(_NANO, moe=1), ConfigError),
    ("ModelConfig-yarn-float", lambda: replace(_NANO, yarn=2.0), ConfigError),
    ("ModelConfig-dca-dict", lambda: replace(_NANO, dca={"chunk_size": 4}), ConfigError),
    ("gqa_attention-params-None",
     lambda: qk.gqa_attention(_Q, _KV, _KV, None, [0, 1, 2], _ROPE), ParameterError),
    ("gqa_attention-rope-None",
     lambda: qk.gqa_attention(_Q, _KV, _KV, _ATTN, [0, 1, 2], None), ParameterError),
    ("cached_attention-params-tuple",
     lambda: qk.cached_attention(qk.KvCache(1), _Q, _KV, _KV, (2, 1, 8), _ROPE, position=0,
                                 layer=0), ParameterError),
    ("decode_step-rope-float",
     lambda: qk.decode_step(qk.KvCache(1), _Q[:, 0], _KV[:, 0], _KV[:, 0], _ATTN, 1e4,
                            position=0, layer=0), ParameterError),
    ("dca_attention-dca-None",
     lambda: qk.dca_attention(_Q, _KV, _KV, _ATTN, None, _ROPE), ParameterError),
    ("dca_attention-yarn-float",
     lambda: qk.dca_attention(_Q, _KV, _KV, _ATTN, qk.DcaParams(4), _ROPE, 2.0), ParameterError),
    ("yarn_adjust-yarn-None", lambda: qk.yarn_adjust(_ROPE, None), ParameterError),
    ("build_model-cfg-None", lambda: qk.build_model(None, 1), ConfigError),
    ("upcycle_model-weights-None", lambda: qk.upcycle_model(None, _NANO, _NANO_MOE, 1),
     ConfigError),
    ("upcycle_model-dense_cfg-None",
     lambda: qk.upcycle_model(_NANO_WEIGHTS, None, _NANO_MOE, 1), ConfigError),
    ("upcycle_model-moe-None", lambda: qk.upcycle_model(_NANO_WEIGHTS, _NANO, None, 1),
     ConfigError),
    ("upcycle_from_dense-rng-None",
     lambda: qk.upcycle_from_dense(_FFN.w_gate, _FFN.w_up, _FFN.w_down, _NANO_MOE, None),
     ParameterError),
    ("rope_freqs-params-None", lambda: qk.rope_freqs(None), ParameterError),
    ("yarn_adjust-rope-None", lambda: qk.yarn_adjust(None, qk.YarnParams(2.0, 8)),
     ParameterError),
    ("dca_relpos-dca-None", lambda: qk.dca_relpos(5, 3, None), ParameterError),
    ("sample_normal-rng-None", lambda: qk.sample_normal(None, 3, 0.0, 1.0), ParameterError),
    ("replicate_and_slice-rng-None",
     lambda: qk.moe.replicate_and_slice(*_FFN, _NANO_MOE, None), ParameterError),
    ("replicate_and_slice-cfg-None",
     lambda: qk.moe.replicate_and_slice(*_FFN, None, qk.Rng(1)), ConfigError),
    ("upcycle_from_dense-cfg-None",
     lambda: qk.upcycle_from_dense(*_FFN, None, qk.Rng(1)), ConfigError),
    ("moe_forward-cfg-None", lambda: qk.moe_forward(_ROW, None, _BANK), ConfigError),
    ("moe_forward-bank-None", lambda: qk.moe_forward(_ROW, _NANO_MOE, None),
     ConfigError),
    ("validate_bank-cfg-None", lambda: qk.moe.validate_bank(None, _BANK), ConfigError),
    ("encode-vocab-None", lambda: qk.encode(None, "a"), ParameterError),
    ("decode-vocab-None", lambda: qk.decode(None, [1]), ParameterError),
    ("compression_rate-vocab-None", lambda: qk.compression_rate(None, ["a"]), ParameterError),
    ("save_vocab-vocab-None", lambda: qk.save_vocab(None, os.devnull), ParameterError),
    ("format_config-None", lambda: qk.format_config(None), ConfigError),
    ("forward-weights-None", lambda: qk.forward(None, _NANO, [1, 2]), ConfigError),
    ("forward-cfg-None", lambda: qk.forward(_NANO_WEIGHTS, None, [1, 2]), ConfigError),
    ("save_weights-weights-None", lambda: qk.save_weights(None, _NANO, os.devnull),
     FormatError),
    ("save_weights-cfg-None", lambda: qk.save_weights(_NANO_WEIGHTS, None, os.devnull),
     ConfigError),
    # One text where a corpus of documents is due would read as one
    # document per character or byte.
    ("bpe_train-str", lambda: qk.bpe_train("hello hello", 300), InputError),
    ("bpe_train-bytes", lambda: qk.bpe_train(b"hello hello", 300), InputError),
    ("compression_rate-str", lambda: qk.compression_rate(qk.base_vocab(), "abc"), InputError),
    ("compression_rate-bytearray",
     lambda: qk.compression_rate(qk.base_vocab(), bytearray(b"abc")), InputError),
    # Config fields that only a bool, or only text, can fill.
    ("ModelConfig-tie_embeddings-str",
     lambda: replace(qk.preset("nano"), tie_embeddings="no"), ConfigError),
    ("ModelConfig-trained_tokens-int", lambda: replace(qk.preset("nano"), trained_tokens=12),
     ConfigError),
    # An int too long to write as text passes validate; writing it fails.
    ("save_weights-huge-int",
     lambda: qk.save_weights(qk.build_model(qk.preset("nano"), 0),
                             replace(qk.preset("nano"), max_ctx=10**5000), os.devnull),
     ConfigError),
    ("topk_select-text", lambda: qk.topk_select(["a", "b"], 1), InputError),
    # Text where a token sequence is due would read as one token per character.
    ("TokenSeq-text", lambda: qk.TokenSeq("abc"), InputError),
    ("lcs_len-text", lambda: qk.lcs_len("hello world", "hello"), InputError),
    ("lcs_contaminated-text", lambda: qk.lcs_contaminated("a" * 20, "a" * 20), InputError),
    ("NgramIndex-text", lambda: qk.NgramIndex(["abcdefgh"], n=3), InputError),
    ("find_ngram_match-text",
     lambda: qk.decontam.find_ngram_match("xbcd", qk.NgramIndex([qk.TokenSeq(tuple("abcd"))], 3)),
     InputError),
    ("filter_corpus-text-train-side",
     lambda: qk.filter_corpus(["abc"], _SETS, qk.decontam.MODE_TRAIN_LCS), InputError),
    ("filter_corpus-text-test-side",
     lambda: qk.filter_corpus(["abc"], _SETS, qk.decontam.MODE_TEST_NGRAM), InputError),
]


@pytest.mark.parametrize("call, error", [pytest.param(call, error, id=name)
                                         for name, call, error in HOSTILE])
def test_hostile_call_raises_its_typed_error(call, error):
    with pytest.raises(QwenKitError) as info:
        call()
    assert type(info.value) is error


def test_save_vocab_of_another_type_writes_no_file(tmp_path):
    with pytest.raises(ParameterError):
        qk.save_vocab(None, tmp_path / "v.txt")
    assert not (tmp_path / "v.txt").exists()
