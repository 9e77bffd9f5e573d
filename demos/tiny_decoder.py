"""A complete decoder-only model at desk scale: build, run, decode, persist.

Run: python demos/tiny_decoder.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from qwenkit import (
    FormatError,
    build_model,
    forward,
    format_config,
    greedy_decode,
    load_weights,
    preset,
    save_weights,
)

# The nano preset is a 2-layer, 64-wide model with the same block structure as
# the published rows: pre-norm residuals, grouped-query attention with QKV
# bias, SwiGLU FFN, tied embeddings.
# Its config prints in the JSON format that the weight container also stores.
cfg = preset("nano")
print(format_config(cfg))

weights = build_model(cfg, seed=0)
n_params = weights.embedding.size + weights.final_gamma.size
for lw in weights.layers:
    parts = [lw.attn_gamma, lw.wq, lw.bq, lw.wk, lw.bk, lw.wv, lw.bv, lw.wo,
             lw.ffn_gamma, *lw.ffn]
    n_params += sum(arr.size for arr in parts if arr is not None)
print(f"parameters: {n_params:,}")

# Logits come back per position; only the last row matters for decoding.
prompt = [11, 42, 7]
logits = forward(weights, cfg, prompt)
print(f"forward: {logits.shape}, next-token argmax = {int(np.argmax(logits[-1]))}")

# Greedy decoding uses the per-layer KV cache, and verifies tokens copied
# from earlier in the text several at a time; rerunning the full forward at
# every step produces the same ids, just slower.
N_NEW = 32
ids = greedy_decode(weights, cfg, prompt, max_new=N_NEW)
print(f"greedy continuation: {ids}")

check = list(prompt)
for _ in range(N_NEW):
    check.append(int(np.argmax(forward(weights, cfg, check)[-1])))
    if check[-1] == cfg.effective_eot_id:
        break
print(f"full-recompute agrees: {check == ids}")
if check != ids:
    sys.exit(1)

# The weight container is a safetensors file with the config in its metadata;
# it roundtrips bit-exactly and refuses corrupted files.
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "nano.safetensors"
    save_weights(weights, cfg, path)
    restored, cfg2 = load_weights(path)
    print(f"container: {path.stat().st_size:,} bytes, "
          f"bit-exact={np.array_equal(weights.embedding, restored.embedding)}, "
          f"config equal={cfg2 == cfg}")
    path.write_bytes(path.read_bytes()[:-1000])
    try:
        load_weights(path)
        sys.exit("a truncated container was read")
    except FormatError as exc:
        print(f"truncated container refused: {exc}")
