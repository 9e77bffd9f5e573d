"""Length extrapolation: frequency rescaling and dual-chunk remapping.

Run: python demos/long_context.py  (exits 1 if DCA decoding disagrees with forward)
"""

import sys
from dataclasses import replace

import numpy as np

from qwenkit import (
    AttentionParams,
    DcaParams,
    RopeParams,
    Rng,
    YarnParams,
    build_model,
    dca_attention,
    dca_relpos,
    forward,
    gqa_attention,
    greedy_decode,
    preset,
    rope_freqs,
    yarn_adjust,
)

# --- frequency rescaling ------------------------------------------------------
# Extending a 4096-token model to 4x its native context divides slow rotary
# frequencies by the scale, keeps fast ones, and blends in between. The logit
# multiplier compensates the entropy shift at long range.
rope = RopeParams(base=10_000.0, head_dim=64)
yarn = YarnParams(scale=4.0, native_ctx=4096)
base = rope_freqs(rope)
adjusted, attn_mult = yarn_adjust(rope, yarn)

print("dim  base_freq    adjusted     ratio")
for i in (0, 8, 16, 24, 31):
    ratio = adjusted[i] / base[i]
    print(f"{i:3d}  {base[i]:.3e}  {adjusted[i]:.3e}  {ratio:.3f}")
print(f"attention multiplier: {attn_mult:.5f} "
      f"(sqrt = {np.sqrt(attn_mult):.5f})\n")

# scale 1 is a strict no-op: same frequencies, multiplier 1.
same, mult1 = yarn_adjust(rope, YarnParams(scale=1.0, native_ctx=4096))
print(f"scale=1 keeps frequencies bit-identical: {np.array_equal(same, base)}, "
      f"multiplier {mult1}\n")

# --- dual-chunk position remapping ---------------------------------------------
# With chunk size 8 and local window 4, nearby pairs keep their true distance
# and far pairs collapse to an intra-chunk-sized index, so nothing ever asks
# the rotary embedding for a position past 2 * chunk_size - 1.
dca = DcaParams(chunk_size=8, local_window=4)
print("effective relative distance (query 14, varying key):")
print("  j : " + "  ".join(f"{j:2d}" for j in range(15)))
print("  M : " + "  ".join(f"{dca_relpos(14, j, dca):2d}" for j in range(15)))
print()

# Sequences that fit inside one chunk reproduce vanilla attention exactly;
# that is the property making the remap safe to deploy.
rng = Rng(1)


def rand(*shape):
    return rng.normals(int(np.prod(shape))).astype(np.float32).reshape(shape)


params = AttentionParams(4, 2, 16)
rope16 = RopeParams(10_000.0, 16)
seq = 64
q, k, v = rand(4, seq, 16), rand(2, seq, 16), rand(2, seq, 16)
vanilla = gqa_attention(q, k, v, params, list(range(seq)), rope16)
single = dca_attention(q, k, v, params, DcaParams(chunk_size=64), rope16)
print(f"single-chunk max |dca - vanilla|: {np.max(np.abs(single - vanilla)):.2e}")

# Past one chunk the outputs differ (that is the point: positions are
# remapped), but they stay finite, causal, and properly normalized.
multi = dca_attention(q, k, v, params, DcaParams(chunk_size=16), rope16)
print(f"four-chunk output finite: {np.isfinite(multi).all()}, "
      f"differs from vanilla: {np.max(np.abs(multi - vanilla)) > 1e-3}")

# The two mechanisms compose: rescaled frequencies and multiplier feed the
# chunked scores.
composed = dca_attention(q, k, v, params, DcaParams(chunk_size=16), rope16,
                         yarn=YarnParams(scale=2.0, native_ctx=64))
print(f"with rescaling on top  : finite={np.isfinite(composed).all()}")

# --- decoding under DCA + YaRN -------------------------------------------------
# greedy_decode runs dual-chunk attention through the KV cache: each key is
# cached rotated at its position mod chunk_size, and each new token scores
# the cache with the same kernel forward uses. Here a prompt of 80 tokens
# spans three chunks of 32, and the 24 new tokens cross into a fourth. The
# result must be the argmax loop over forward on the same config.
# (Untied: with tied embeddings and these weights the last token repeats.)
cfg = replace(preset("nano"), tie_embeddings=False, max_ctx=128,
              yarn=YarnParams(scale=4.0, native_ctx=32),
              dca=DcaParams(chunk_size=32, local_window=8))
weights = build_model(cfg, seed=1)
for layer in weights.layers:  # unit norm gains, as in a trained model
    layer.attn_gamma[:] = 1.0
    layer.ffn_gamma[:] = 1.0
weights.final_gamma[:] = 1.0
prompt = [int(t) % cfg.regular_tokens for t in Rng(9).uint64s(80)]
decoded = greedy_decode(weights, cfg, prompt, max_new=24)
loop = list(prompt)
while len(loop) < len(decoded):
    loop.append(int(np.argmax(forward(weights, cfg, loop)[-1])))
print(f"\nDCA+YaRN greedy decode, chunk 32, context {len(prompt)} -> {len(decoded)}:")
print(f"  new tokens        : {decoded[len(prompt):]}")
print(f"  argmax of forward : {'same' if decoded == loop else loop[len(prompt):]}")
if decoded != loop:
    sys.exit(1)
