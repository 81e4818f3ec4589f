"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError (and
subclasses), LeakageError and FileNotFoundError -> 2, NumericFault -> 3,
and any other exception -> 4, with its traceback on stderr.
"""


class ConfigError(ValueError):
    """Invalid configuration (bad preset name, out-of-range hyperparameter)."""


class DataError(ValueError):
    """Problem with input data."""


class ParseError(DataError):
    """Malformed CSV row; message carries the 1-based row number."""


class IntegrityError(DataError):
    """A claim violates a structural invariant (names the claim_no)."""


class FactorError(DataError):
    """Development-factor computation hit a zero denominator column."""


class InitError(DataError):
    """Initialisation tables cannot be built (e.g. no settled claims)."""


class LeakageError(AssertionError):
    """A split or fold exposes information from beyond its boundary."""


class NumericFault(ArithmeticError):
    """Non-finite values encountered during training or evaluation."""
