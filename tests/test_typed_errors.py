"""Hostile arguments at the public boundary get a typed error.

Each row feeds one public call one hostile value: a float where an int is
due, NaN, or text where an array is due. The call must raise exactly the
named :class:`~qwenkit.errors.QwenKitError` subclass, never a bare
``TypeError`` or a NaN array. Tokens that are not hashable are covered in
``test_decontam``.
"""

import numpy as np
import pytest

import qwenkit as qk
from qwenkit.errors import InputError, ParameterError, QwenKitError

NAN = float("nan")
_X = np.ones((2, 8), np.float32)
_GAMMA = np.ones(8, np.float32)
_INV_FREQ = qk.rope_freqs(qk.RopeParams(1e4, 8))

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
    # Reals.
    ("rms_norm-eps", lambda: qk.rms_norm(_X, _GAMMA, eps=NAN), ParameterError),
    ("sample_normal-mean", lambda: qk.sample_normal(qk.Rng(1), 4, NAN, 1.0), ParameterError),
    ("sample_normal-std", lambda: qk.sample_normal(qk.Rng(1), 4, 0.0, NAN), ParameterError),
    ("RopeParams-base", lambda: qk.rope_freqs(qk.RopeParams(base=NAN, head_dim=8)),
     ParameterError),
    # Arrays and text.
    ("silu-text", lambda: qk.silu("a"), InputError),
    ("softmax_rows-text", lambda: qk.softmax_rows("a"), InputError),
    ("rms_norm-ragged", lambda: qk.rms_norm([[1.0], [1.0, 2.0]], _GAMMA), InputError),
    ("parse_config-None", lambda: qk.parse_config(None), InputError),
]


@pytest.mark.parametrize("call, error", [pytest.param(call, error, id=name)
                                         for name, call, error in HOSTILE])
def test_hostile_call_raises_its_typed_error(call, error):
    with pytest.raises(QwenKitError) as info:
        call()
    assert type(info.value) is error
