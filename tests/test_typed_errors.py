"""Hostile arguments at the public boundary get a typed error.

Each row feeds one public call one hostile value: a float where an int is
due, NaN, text where an array, a token sequence or token ids are due, a
value that is not iterable (or not a mapping) where a collection is due, or
a path that cannot be read or written. One more table crosses every slot
that takes a collection of items with text, a mapping, a set and None.
The call must raise exactly the named
:class:`~qwenkit.errors.QwenKitError` subclass, never a bare ``TypeError``
or ``OSError``, a NaN array or a wrong answer. Tokens that are not
hashable are covered in ``test_decontam``.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

import qwenkit as qk
from qwenkit.errors import ConfigError, InputError, ParameterError, QwenKitError

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
# A directory, and a file in it that does not exist.
_HERE = os.path.dirname(os.path.abspath(__file__))
_MISSING = os.path.join(_HERE, "no-such-file.safetensors")


def _attend(scale_mult=1.0, layer=0):
    return qk.cached_attention(qk.KvCache(1), _Q, _KV, _KV, _ATTN, _ROPE, layer=layer,
                               scale_mult=scale_mult)


def _decode(scale_mult=1.0, layer=0):
    return qk.decode_step(qk.KvCache(1), _Q[:, 0], _KV[:, 0], _KV[:, 0], _ATTN, _ROPE,
                          layer=layer, scale_mult=scale_mult)


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
    ("apply_rope-zero-width",
     lambda: qk.apply_rope(np.ones((1, 3, 0)), [0, 1, 2], np.ones(0)), ParameterError),
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
     lambda: qk.cached_attention(qk.KvCache(1), _Q, _KV, _KV, (2, 1, 8), _ROPE, layer=0),
     ParameterError),
    ("cached_attention-cache-None",
     lambda: qk.cached_attention(None, _Q, _KV, _KV, _ATTN, _ROPE), ParameterError),
    ("decode_step-rope-float",
     lambda: qk.decode_step(qk.KvCache(1), _Q[:, 0], _KV[:, 0], _KV[:, 0], _ATTN, 1e4,
                            layer=0), ParameterError),
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
     ConfigError),
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
    # Token ids given as text or a mapping iterate as ints or keys, and would
    # be read as ids 1 and 2.
    ("forward-bytes", lambda: qk.forward(_NANO_WEIGHTS, _NANO, b"\x01\x02"), InputError),
    ("forward-bytearray", lambda: qk.forward(_NANO_WEIGHTS, _NANO, bytearray(b"\x01\x02")),
     InputError),
    ("forward-dict", lambda: qk.forward(_NANO_WEIGHTS, _NANO, {1: "a", 2: "b"}), InputError),
    ("greedy_decode-bytes", lambda: qk.greedy_decode(_NANO_WEIGHTS, _NANO, b"\x01\x02", 2),
     InputError),
    ("greedy_decode-memoryview",
     lambda: qk.greedy_decode(_NANO_WEIGHTS, _NANO, memoryview(b"\x01\x02"), 2), InputError),
    ("greedy_decode-dict", lambda: qk.greedy_decode(_NANO_WEIGHTS, _NANO, {1: 0, 2: 0}, 2),
     InputError),
    # A path that cannot be read or written, or is not a path at all.
    ("load_weights-missing", lambda: qk.load_weights(_MISSING), InputError),
    ("load_weights-None", lambda: qk.load_weights(None), InputError),
    ("load_weights-int", lambda: qk.load_weights(0), InputError),
    ("load_weights-nul", lambda: qk.load_weights(b"m\0.safetensors"), InputError),
    ("load_docs-nul", lambda: qk.decontam.load_docs("docs\0.txt"), InputError),
    ("save_weights-directory", lambda: qk.save_weights(_NANO_WEIGHTS, _NANO, _HERE),
     InputError),
    ("load_vocab-None", lambda: qk.load_vocab(None), InputError),
    ("load_vocab-directory", lambda: qk.load_vocab(_HERE), InputError),
    ("save_vocab-None", lambda: qk.save_vocab(qk.base_vocab(), None), InputError),
    ("load_docs-None", lambda: qk.decontam.load_docs(None), InputError),
    ("load_test_sets-None", lambda: qk.decontam.load_test_sets(None), InputError),
]


@pytest.mark.parametrize("call, error", [pytest.param(call, error, id=name)
                                         for name, call, error in HOSTILE])
def test_hostile_call_raises_its_typed_error(call, error):
    with pytest.raises(QwenKitError) as info:
        call()
    assert type(info.value) is error


def _below(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _above(x: float) -> float:
    return math.nextafter(x, math.inf)


def _moe(**changes):
    return qk.MoeConfig(**{**dict(n_routed=4, k_active=2, n_shared=1, expert_dim=8, hidden=8),
                           **changes})


_LCS = dict(train_docs=[("a", "b")], test_sets=_SETS, mode=qk.decontam.MODE_TRAIN_LCS)

# Every scalar bound checked by ops._check_int or ops._check_real: a call of
# one value, the field the message names, the value at the bound, which is
# accepted, the value one step past it (the next integer, or the next
# float), and the class that raises.
EDGES = [
    ("sample_normal-std", lambda v: qk.sample_normal(qk.Rng(1), 2, 0.0, v), "std",
     0.0, _below(0.0), ParameterError),
    ("ModelConfig-regular_tokens", lambda v: replace(_NANO, regular_tokens=v),
     "regular_tokens", 1, 0, ConfigError),
    ("ModelConfig-control_tokens", lambda v: replace(_NANO, control_tokens=v),
     "control_tokens", 0, -1, ConfigError),
    ("ModelConfig-eot_id-low", lambda v: replace(_NANO, eot_id=v), "eot_id", 0, -1,
     ConfigError),
    ("ModelConfig-eot_id-high", lambda v: replace(_NANO, eot_id=v), "eot_id", 511, 512,
     ConfigError),
    ("MoeConfig-n_routed", lambda v: _moe(n_routed=v, k_active=1), "n_routed", 1, 0,
     ConfigError),
    ("MoeConfig-k_active-low", lambda v: _moe(k_active=v), "k_active", 1, 0, ConfigError),
    ("MoeConfig-k_active-high", lambda v: _moe(k_active=v), "k_active", 4, 5, ConfigError),
    ("MoeConfig-n_shared", lambda v: _moe(n_shared=v), "n_shared", 0, -1, ConfigError),
    ("MoeConfig-expert_dim", lambda v: _moe(expert_dim=v), "expert_dim", 1, 0, ConfigError),
    ("MoeConfig-hidden", lambda v: _moe(hidden=v), "hidden", 1, 0, ConfigError),
    ("topk_select-k-low", lambda v: qk.topk_select([0.2, 0.3, 0.5], v), "k", 1, 0,
     ParameterError),
    ("topk_select-k-high", lambda v: qk.topk_select([0.2, 0.3, 0.5], v), "k", 3, 4,
     ParameterError),
    ("RopeParams-base", lambda v: qk.RopeParams(v, 8), "rope_base", 1.0, _below(1.0),
     ParameterError),
    ("rms_norm-eps", lambda v: qk.rms_norm(_X, _GAMMA, eps=v), "eps", 0.0, _below(0.0),
     ParameterError),
    ("YarnParams-scale", lambda v: qk.YarnParams(v, 8), "scale", 1.0, _below(1.0),
     ParameterError),
    ("DcaParams-local_window-low", lambda v: qk.DcaParams(4, v), "local_window", 1, 0,
     ParameterError),
    ("DcaParams-local_window-high", lambda v: qk.DcaParams(4, v), "local_window", 4, 5,
     ParameterError),
    ("dca_relpos-j-low", lambda v: qk.dca_relpos(5, v, qk.DcaParams(4)), "j", 0, -1,
     ParameterError),
    ("dca_relpos-j-high", lambda v: qk.dca_relpos(5, v, qk.DcaParams(4)), "j", 5, 6,
     ParameterError),
    ("KvCache-layer-low", lambda v: qk.KvCache(2).length(v), "layer", 0, -1, ParameterError),
    ("KvCache-layer-high", lambda v: qk.KvCache(2).length(v), "layer", 1, 2, ParameterError),
    ("greedy_decode-max_new", lambda v: qk.greedy_decode(_NANO_WEIGHTS, _NANO, [1, 2], v),
     "max_new", 0, -1, InputError),
    ("bpe_train-target_vocab", lambda v: qk.bpe_train(["a b"], v), "target_vocab", 259, 258,
     ParameterError),
    ("lcs_contaminated-min_frac-low",
     lambda v: qk.lcs_contaminated(("a",), ("a",), min_frac=v), "min_frac", 0.0, _below(0.0),
     ParameterError),
    ("lcs_contaminated-min_frac-high",
     lambda v: qk.lcs_contaminated(("a",), ("a",), min_frac=v), "min_frac", 1.0, _above(1.0),
     ParameterError),
    ("filter_corpus-lcs_min_frac-low", lambda v: qk.filter_corpus(**_LCS, lcs_min_frac=v),
     "lcs_min_frac", 0.0, _below(0.0), ParameterError),
    ("filter_corpus-lcs_min_frac-high", lambda v: qk.filter_corpus(**_LCS, lcs_min_frac=v),
     "lcs_min_frac", 1.0, _above(1.0), ParameterError),
]


@pytest.mark.parametrize("call, field, at, past, error",
                         [pytest.param(*row[1:], id=row[0]) for row in EDGES])
def test_bound_is_accepted_and_one_step_past_it_is_refused(call, field, at, past, error):
    call(at)
    with pytest.raises(QwenKitError) as info:
        call(past)
    assert type(info.value) is error
    assert field in str(info.value)


_VOCAB = qk.base_vocab()
_INDEX = qk.NgramIndex([("a", "b")], 1)

# Every slot that takes a collection of items (ops._items): the name its
# message gives, and a call of one value.
COLLECTION_SLOTS = [
    ("forward", "token_ids", lambda v: qk.forward(_NANO_WEIGHTS, _NANO, v)),
    ("greedy_decode", "prompt", lambda v: qk.greedy_decode(_NANO_WEIGHTS, _NANO, v, 2)),
    ("decode", "ids", lambda v: qk.decode(_VOCAB, v)),
    ("bpe_train", "corpus", lambda v: qk.bpe_train(v, 300)),
    ("compression_rate", "corpus", lambda v: qk.compression_rate(_VOCAB, v)),
    ("TokenSeq", "tokens", qk.TokenSeq),
    ("lcs_len", "tokens", lambda v: qk.lcs_len(v, ["a"])),
    ("lcs_contaminated", "tokens", lambda v: qk.lcs_contaminated(v, ["a"])),
    ("find_ngram_match", "tokens", lambda v: qk.decontam.find_ngram_match(v, _INDEX)),
    ("contains_run", "tokens", lambda v: _INDEX.contains_run(v)),
    ("NgramIndex", "docs", lambda v: qk.NgramIndex(v, 1)),
    ("filter_corpus-train_docs", "train_docs",
     lambda v: qk.filter_corpus(v, _SETS, qk.decontam.MODE_TRAIN_LCS)),
    ("filter_corpus-samples", "test set 's'",
     lambda v: qk.filter_corpus([("a",)], {"s": v}, qk.decontam.MODE_TEST_NGRAM)),
]
# Values that iterate, if at all, as keys, in a set's own order, or as
# ints or characters: none is a collection of items.
NOT_COLLECTIONS = [("mapping", {"a": 1}), ("set", {1, 2}), ("memoryview", memoryview(b"ab")),
                   ("str", "ab"), ("None", None)]


@pytest.mark.parametrize("slot, call, value", [
    pytest.param(slot, call, value, id=f"{name}-{kind}")
    for name, slot, call in COLLECTION_SLOTS for kind, value in NOT_COLLECTIONS])
def test_value_that_is_not_a_collection_is_refused_naming_its_slot(slot, call, value):
    with pytest.raises(QwenKitError) as info:
        call(value)
    assert type(info.value) is InputError
    assert str(info.value).startswith(f"{slot} must be an iterable of ")


def test_save_vocab_of_another_type_writes_no_file(tmp_path):
    with pytest.raises(ParameterError):
        qk.save_vocab(None, tmp_path / "v.txt")
    assert not (tmp_path / "v.txt").exists()
