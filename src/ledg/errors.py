"""Exception types shared across the package."""


class LedgError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LedgError):
    """Operands have incompatible or invalid shapes."""


class ContractError(LedgError):
    """An operation was called outside its documented contract."""


class ValidationError(LedgError):
    """Input values violate a documented precondition."""


class ParseError(LedgError):
    """A text input could not be parsed."""


class DatasetError(LedgError):
    """A serialized dataset or checkpoint is missing or malformed."""


class ConfigError(LedgError):
    """A run configuration is invalid or inconsistent."""


class NumericalError(LedgError):
    """A computation produced a non-finite value: a runtime failure of the
    run, not a fault in its inputs."""
