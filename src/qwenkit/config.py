"""Model configurations, named presets, and the JSON config format.

Presets cover the five published architecture rows (qwen2-0.5b through
qwen2-57b-a14b) plus two desk-scale smoke models (nano, nano-moe). The
vocabulary is stored twice on purpose: ``vocab_size`` is the embedding row
count while ``regular_tokens`` + ``control_tokens`` is the token inventory;
the former may be padded larger, never smaller. A ``ModelConfig`` checks
itself when it is constructed, so every instance is valid.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError, InputError, ParameterError
from .layers import AttentionParams, RopeParams
from .longctx import DcaParams, YarnParams
from .moe import MoeConfig
from .ops import _check_int, _check_ints, _check_real, _check_type

# The optional parameter groups of a ModelConfig and their types. In the
# JSON config format a set group is an object of its fields, an unset one
# null.
_GROUPS = {"moe": MoeConfig, "yarn": YarnParams, "dca": DcaParams}


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
        included) is valid. The head layout is
        :class:`~qwenkit.layers.AttentionParams`' rule and ``rope_base``
        :class:`~qwenkit.layers.RopeParams`': this builds both and raises
        their error as a ``ConfigError``. Each group checks its own fields
        and must be of its type or None; the rest are checked here."""
        for name in ("hidden", "n_layers", "ffn_intermediate", "vocab_size", "max_ctx"):
            _check_int(name, getattr(self, name), 1, ConfigError)
        _check_ints(self, ("regular_tokens", "control_tokens"), ConfigError)
        _check_real("rms_eps", self.rms_eps, ConfigError)
        if not isinstance(self.tie_embeddings, bool):
            raise ConfigError(f"tie_embeddings must be a bool, got {self.tie_embeddings!r}")
        if not isinstance(self.trained_tokens, (str, type(None))):
            raise ConfigError(f"trained_tokens must be a str or None, got {self.trained_tokens!r}")
        for name, cls in _GROUPS.items():
            _check_type(name, getattr(self, name), cls, ConfigError, optional=True)
        try:
            self.attention_params()
            self.rope_params()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from None
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


def format_config(cfg: ModelConfig) -> str:
    """``cfg`` in the JSON config format. An integer field too long for
    Python to write as text (over 4,300 digits by default) is a
    :class:`ConfigError`, as is a ``cfg`` that is not a :class:`ModelConfig`."""
    _check_type("cfg", cfg, ModelConfig, ConfigError)
    try:
        # A numpy scalar is a valid field value; .item() makes it a Python one.
        return json.dumps(asdict(cfg), indent=2, default=np.generic.item)
    except ValueError as exc:
        raise ConfigError(f"config cannot be written as JSON: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise FormatError(f"duplicate key in an object with keys {[k for k, _ in pairs]}")
    return obj


def _fields(obj, cls, where: str) -> dict:
    """``obj`` if it is a dict with exactly the field names of ``cls``."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object, got {type(obj).__name__}")
    names = {f.name for f in fields(cls)}
    if obj.keys() != names:
        raise FormatError(f"{where}: unknown keys {sorted(obj.keys() - names)}, "
                          f"missing keys {sorted(names - obj.keys())}")
    return obj


def parse_config(text: str) -> ModelConfig:
    """Parse the JSON config format back into a validated ModelConfig.

    Text that is not JSON, and an unknown, missing or duplicate key, is a
    :class:`FormatError`; a value the dataclasses refuse raises their
    :class:`ConfigError` or :class:`ParameterError`.
    """
    if not isinstance(text, str):
        raise InputError(f"config text must be a str, got {type(text).__name__}")
    try:
        kwargs = _fields(json.loads(text, object_pairs_hook=_unique_keys), ModelConfig, "config")
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"config is not JSON: {exc}") from None
    for group, cls in _GROUPS.items():
        if kwargs[group] is not None:
            kwargs[group] = cls(**_fields(kwargs[group], cls, group))
    return ModelConfig(**kwargs)
