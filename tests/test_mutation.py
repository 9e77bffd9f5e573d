"""Bounded mutation tests: a corrupted input to a reader ends in a QwenKitError.

Each reader gets a valid input with one byte flipped, the input truncated,
a few bytes inserted, or a run of bytes deleted or duplicated. A mutant may
still parse; what it must not do is raise anything but a
:class:`QwenKitError` (no ``UnicodeDecodeError``, ``ValueError``,
``struct.error`` or ``KeyError`` from inside the reader). A container
mutant that loads is run through ``forward``, which must return finite
logits or raise a ``QwenKitError`` too. Since such a mutant nearly always
fails the payload checksum, the container also gets mutants with one
payload byte flipped and the checksum sealed again, which load unless the
byte makes a NaN or inf.

Each test draws 150 examples, or more under a Hypothesis profile that asks
for more: ``--hypothesis-profile=mutation`` (see ``conftest.py``) draws
1,000.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwenkit.config import ModelConfig, format_config, parse_config
from qwenkit.errors import QwenKitError
from qwenkit.longctx import DcaParams, YarnParams
from qwenkit.model import build_model, forward
from qwenkit.moe import MoeConfig
from qwenkit.serialize import load_weights, save_weights
from qwenkit.tokenizer import bpe_train, load_vocab, save_vocab

# A tiny config that sets every optional group, so the config text holds
# every kind of key.
CFG = ModelConfig(hidden=4, n_layers=1, n_q_heads=2, n_kv_heads=1, head_dim=2,
                  ffn_intermediate=2, vocab_size=8, regular_tokens=5, max_ctx=32,
                  moe=MoeConfig(n_routed=2, k_active=1, n_shared=1, expert_dim=2, hidden=4),
                  yarn=YarnParams(2.0, 16), dca=DcaParams(8, 2))
EXAMPLES = max(150, settings().max_examples)
# Longest run a mutation deletes or duplicates.
MAX_RUN = 64


@st.composite
def _mutant(draw, blob: bytes) -> bytes:
    kind = draw(st.sampled_from(["flip", "truncate", "insert", "delete", "duplicate"]))
    if kind == "insert":
        i = draw(st.integers(0, len(blob)))
        return blob[:i] + draw(st.binary(min_size=1, max_size=8)) + blob[i:]
    i = draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return blob[:i]
    if kind in ("delete", "duplicate"):
        j = draw(st.integers(i + 1, min(i + MAX_RUN, len(blob))))
        return blob[:i] + blob[j:] if kind == "delete" else blob[:j] + blob[i:j] + blob[j:]
    return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]


@st.composite
def _resealed(draw, blob: bytes) -> bytes:
    """The container ``blob`` with one payload byte flipped and the payload
    CRC32 in its header written again, as ``save_weights`` writes it."""
    (header_len,) = struct.unpack("<Q", blob[:8])
    start = 8 + header_len
    out = bytearray(blob)
    out[draw(st.integers(start, len(blob) - 1))] ^= draw(st.integers(1, 255))
    at = blob.index(b'"crc32":"') + len(b'"crc32":"')
    out[at:at + 8] = f"{zlib.crc32(out[start:]):08x}".encode("ascii")
    return bytes(out)


def _reads_or_raises_typed(read, *args) -> None:
    try:
        read(*args)
    except QwenKitError:
        pass


def _loads_and_runs_or_raises_typed(path) -> None:
    try:
        weights, cfg = load_weights(path)
        logits = forward(weights, cfg, [1, 2, 3])
    except QwenKitError:
        return
    assert np.isfinite(logits).all()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutation")
    save_weights(build_model(CFG, 0), CFG, d / "valid.qw2t")
    docs = ["the cat sat on the mat", "the dog sat on the log", "a cat and a dog"]
    save_vocab(bpe_train(docs, 256 + 3 + 12), d / "valid.vocab")
    return d


def test_weights_container(files):
    valid = (files / "valid.qw2t").read_bytes()
    path = files / "mutant.qw2t"

    @given(st.one_of(_mutant(valid), _resealed(valid)))
    @settings(max_examples=EXAMPLES, deadline=None)
    def check(blob):
        path.write_bytes(blob)
        _loads_and_runs_or_raises_typed(path)

    check()


def test_vocab_file(files):
    valid = (files / "valid.vocab").read_bytes()
    path = files / "mutant.vocab"

    @given(_mutant(valid))
    @settings(max_examples=EXAMPLES, deadline=None)
    def check(blob):
        path.write_bytes(blob)
        _reads_or_raises_typed(load_vocab, path)

    check()


@given(_mutant(format_config(CFG).encode("utf-8")))
@settings(max_examples=EXAMPLES, deadline=None)
def test_config_text(blob):
    # surrogateescape keeps every mutant, valid UTF-8 or not, as a str.
    _reads_or_raises_typed(parse_config, blob.decode("utf-8", "surrogateescape"))
