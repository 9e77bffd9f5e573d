"""Reference seeded generator.

The straightforward forms of ``qwenkit.ops.Rng`` and ``sample_normal``:
every draw is computed in one shot over the whole request, with a fresh
array for each step, and the permutation is the Fisher-Yates swap loop
itself. Kept as oracles for the vectorised permutation and the sliced
normal draws in ``qwenkit.ops``; the two must agree bit for bit and leave
the stream at the same position.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class RefRng:
    """splitmix64 stream: the i-th raw output after seeding is
    ``mix(seed + i * golden)``."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def uint64s(self, n: int) -> np.ndarray:
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + np.uint64(_GOLDEN) * idx
        self.state = (self.state + _GOLDEN * n) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        return (self.uint64s(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Box-Muller over pairs (u1, u2): ``r = sqrt(-2 ln(1 - u1))``,
        outputs ``r cos(2 pi u2)``, ``r sin(2 pi u2)`` interleaved; an odd
        count discards the last sine."""
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = (2.0 * np.pi) * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates: for i = n-1 down to 1, swap i with raw % (i + 1)."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        raw = self.uint64s(n - 1).tolist()
        perm = list(range(n))
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = raw[step] % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def sample_normal(rng: RefRng, count: int, mean: float, std: float) -> np.ndarray:
    """``count`` draws from Normal(mean, std), computed in float64 and
    rounded once to float32."""
    return (mean + std * rng.normals(count)).astype(np.float32)
