"""Exception hierarchy shared by all qwenkit modules."""


class QwenKitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(QwenKitError):
    """Operand shapes or lengths are inconsistent with each other."""


class ParameterError(QwenKitError):
    """An argument value lies outside its valid range."""


class StateError(QwenKitError):
    """A stateful object was driven out of its allowed sequence."""


class ConfigError(QwenKitError):
    """A model or expert-bank configuration is internally inconsistent."""


class FormatError(QwenKitError):
    """A serialized file violates its declared format."""


class InputError(QwenKitError):
    """Runtime input (token ids, documents) outside the valid domain."""


class NumericError(QwenKitError):
    """A computation produced a non-finite value, e.g. from NaN or inf weights."""
