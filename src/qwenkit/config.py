"""Model configurations, named presets, and the key = value config format.

Presets cover the five published architecture rows (qwen2-0.5b through
qwen2-57b-a14b) plus two desk-scale smoke models (nano, nano-moe). The
vocabulary is stored twice on purpose: ``vocab_size`` is the embedding row
count while ``regular_tokens`` + ``control_tokens`` is the token inventory;
the former may be padded larger, never smaller. A ``ModelConfig`` checks
itself when it is constructed, so every instance is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, FormatError, InputError
from .layers import AttentionParams, RopeParams
from .longctx import DcaParams, YarnParams
from .moe import MoeConfig
from .ops import _check_ints, _check_reals


@dataclass(frozen=True)
class ModelConfig:
    hidden: int
    n_layers: int
    n_q_heads: int
    n_kv_heads: int
    head_dim: int
    ffn_intermediate: int
    vocab_size: int
    regular_tokens: int
    control_tokens: int = 3
    tie_embeddings: bool = False
    use_qkv_bias: bool = True
    rope_base: float = 1_000_000.0
    rms_eps: float = 1e-6
    max_ctx: int = 32_768
    eot_id: int | None = None
    trained_tokens: str | None = None  # metadata only, e.g. "12T"
    moe: MoeConfig | None = None
    yarn: YarnParams | None = None
    dca: DcaParams | None = None

    @property
    def effective_eot_id(self) -> int:
        """End-of-text id; defaults to the last control token."""
        if self.eot_id is not None:
            return self.eot_id
        return self.regular_tokens + self.control_tokens - 1

    def __post_init__(self):
        self.validate()

    def attention_params(self) -> AttentionParams:
        return AttentionParams(self.n_q_heads, self.n_kv_heads, self.head_dim)

    def rope_params(self) -> RopeParams:
        return RopeParams(self.rope_base, self.head_dim)

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first broken rule; run on
        construction, so every ``ModelConfig`` (``dataclasses.replace``
        included) is valid."""
        sizes = ("hidden", "n_layers", "n_q_heads", "n_kv_heads", "head_dim",
                 "ffn_intermediate", "vocab_size", "max_ctx")
        _check_ints(self, sizes + ("regular_tokens", "control_tokens"), ConfigError)
        _check_reals(self, ("rope_base", "rms_eps"), ConfigError)
        for name in sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_q_heads ({self.n_q_heads}) not divisible by "
                f"n_kv_heads ({self.n_kv_heads})"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even, got {self.head_dim}")
        if self.rope_base < 1:
            raise ConfigError(f"rope_base must be >= 1, got {self.rope_base}")
        if self.rms_eps <= 0:
            raise ConfigError(f"rms_eps must be > 0, got {self.rms_eps}")
        if self.regular_tokens < 1 or self.control_tokens < 0:
            raise ConfigError(
                f"token inventory invalid: {self.regular_tokens} regular, "
                f"{self.control_tokens} control"
            )
        if self.regular_tokens + self.control_tokens > self.vocab_size:
            raise ConfigError(
                f"regular + control tokens "
                f"({self.regular_tokens} + {self.control_tokens}) exceed "
                f"vocab_size {self.vocab_size}"
            )
        if self.eot_id is not None:
            _check_ints(self, ("eot_id",), ConfigError)
        if not 0 <= self.effective_eot_id < self.vocab_size:
            raise ConfigError(f"eot id {self.effective_eot_id} outside vocabulary")
        if self.moe is not None:
            if self.moe.hidden != self.hidden:
                raise ConfigError(
                    f"moe hidden {self.moe.hidden} does not match model hidden "
                    f"{self.hidden}"
                )
            if self.ffn_intermediate != self.moe.expert_dim:
                raise ConfigError(
                    f"ffn_intermediate {self.ffn_intermediate} must equal the "
                    f"per-expert intermediate {self.moe.expert_dim} on MoE models"
                )


_PUBLISHED_VOCAB = dict(vocab_size=151_646, regular_tokens=151_643, control_tokens=3)
_NANO_COMMON = dict(hidden=64, n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=16,
                    vocab_size=512, regular_tokens=509, control_tokens=3,
                    tie_embeddings=True, rope_base=10_000.0, max_ctx=128)

_PRESETS = {
    "qwen2-0.5b": ModelConfig(hidden=896, n_layers=24, n_q_heads=14, n_kv_heads=2,
                              head_dim=64, ffn_intermediate=4_864, tie_embeddings=True,
                              trained_tokens="12T", **_PUBLISHED_VOCAB),
    "qwen2-1.5b": ModelConfig(hidden=1_536, n_layers=28, n_q_heads=12, n_kv_heads=2,
                              head_dim=128, ffn_intermediate=8_960, tie_embeddings=True,
                              trained_tokens="7T", **_PUBLISHED_VOCAB),
    "qwen2-7b": ModelConfig(hidden=3_584, n_layers=28, n_q_heads=28, n_kv_heads=4,
                            head_dim=128, ffn_intermediate=18_944,
                            trained_tokens="7T", **_PUBLISHED_VOCAB),
    "qwen2-72b": ModelConfig(hidden=8_192, n_layers=80, n_q_heads=64, n_kv_heads=8,
                             head_dim=128, ffn_intermediate=29_568,
                             trained_tokens="7T", **_PUBLISHED_VOCAB),
    "qwen2-57b-a14b": ModelConfig(hidden=3_584, n_layers=28, n_q_heads=28, n_kv_heads=4,
                                  head_dim=128, ffn_intermediate=2_560,
                                  trained_tokens="4.5T",
                                  moe=MoeConfig(n_routed=64, k_active=8, n_shared=8,
                                                expert_dim=2_560, hidden=3_584),
                                  **_PUBLISHED_VOCAB),
    "nano": ModelConfig(ffn_intermediate=128, **_NANO_COMMON),
    "nano-moe": ModelConfig(ffn_intermediate=32,
                            moe=MoeConfig(n_routed=4, k_active=2, n_shared=1,
                                          expert_dim=32, hidden=64),
                            **_NANO_COMMON),
}


def preset(name: str) -> ModelConfig:
    """Named configuration; published rows plus nano smoke models."""
    try:
        return _PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def preset_names() -> list[str]:
    return list(_PRESETS)


# --- key = value config file format ------------------------------------------
# One "key = value" line per set field. Nested groups use dotted keys
# (moe.n_routed, yarn.scale, dca.chunk_size); unset optional groups are
# omitted entirely. Unknown keys are errors.

_SCALAR_TYPES = {
    "hidden": int, "n_layers": int, "n_q_heads": int, "n_kv_heads": int,
    "head_dim": int, "ffn_intermediate": int, "vocab_size": int,
    "regular_tokens": int, "control_tokens": int, "max_ctx": int, "eot_id": int,
    "tie_embeddings": bool, "use_qkv_bias": bool,
    "rope_base": float, "rms_eps": float, "trained_tokens": str,
}
_GROUP_TYPES = {
    "moe": {"n_routed": int, "k_active": int, "n_shared": int, "expert_dim": int},
    "yarn": {"scale": float, "native_ctx": int, "beta_fast": float,
             "beta_slow": float, "mscale_coeff": float},
    "dca": {"chunk_size": int, "local_window": int},
}
_REQUIRED = ("hidden", "n_layers", "n_q_heads", "n_kv_heads", "head_dim",
             "ffn_intermediate", "vocab_size", "regular_tokens")


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(cfg: ModelConfig) -> str:
    lines = []
    for name in _SCALAR_TYPES:
        value = getattr(cfg, name)
        if value is None:
            continue
        lines.append(f"{name} = {_render(value)}")
    for group in ("moe", "yarn", "dca"):
        obj = getattr(cfg, group)
        if obj is None:
            continue
        for sub in _GROUP_TYPES[group]:
            lines.append(f"{group}.{sub} = {_render(getattr(obj, sub))}")
    return "\n".join(lines) + "\n"


def _parse_value(key: str, raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise FormatError(f"key {key}: expected true/false, got {raw!r}")
    if typ is str:
        return raw
    try:
        return typ(raw)
    except ValueError:
        raise FormatError(f"key {key}: cannot parse {raw!r} as {typ.__name__}") from None


def parse_config(text: str) -> ModelConfig:
    """Parse the key = value format back into a validated ModelConfig."""
    if not isinstance(text, str):
        raise InputError(f"config text must be a str, got {type(text).__name__}")
    scalars: dict = {}
    groups: dict[str, dict] = {g: {} for g in _GROUP_TYPES}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if "." in key:
            group, _, sub = key.partition(".")
            if group not in _GROUP_TYPES or sub not in _GROUP_TYPES[group]:
                raise FormatError(f"line {lineno}: unknown key {key!r}")
            if sub in groups[group]:
                raise FormatError(f"line {lineno}: duplicate key {key!r}")
            groups[group][sub] = _parse_value(key, raw, _GROUP_TYPES[group][sub])
        else:
            if key not in _SCALAR_TYPES:
                raise FormatError(f"line {lineno}: unknown key {key!r}")
            if key in scalars:
                raise FormatError(f"line {lineno}: duplicate key {key!r}")
            scalars[key] = _parse_value(key, raw, _SCALAR_TYPES[key])
    missing = [k for k in _REQUIRED if k not in scalars]
    if missing:
        raise FormatError(f"missing required keys: {', '.join(missing)}")
    kwargs = dict(scalars)
    try:
        if groups["moe"]:
            kwargs["moe"] = MoeConfig(hidden=scalars["hidden"], **groups["moe"])
        if groups["yarn"]:
            kwargs["yarn"] = YarnParams(**groups["yarn"])
        if groups["dca"]:
            kwargs["dca"] = DcaParams(**groups["dca"])
    except TypeError as exc:
        raise FormatError(f"incomplete nested group: {exc}") from None
    return ModelConfig(**kwargs)
