"""Exception taxonomy shared across the package, and the one config-number rule.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError (and
subclasses), LeakageError and FileNotFoundError -> 2, NumericFault -> 3,
and any other exception -> 4, with its traceback on stderr.

``check_number`` is the rule for every configured number: it has its
declared kind (an int field takes an int, a float field an int or a float,
a bool field only a bool, and a bool is no number), it is finite, and it
lies inside its interval. ``check_config`` applies it to each int, float
and bool field of a config dataclass.
"""

import dataclasses
import numbers
from sys import float_info


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


# Each kind's accepted types (numpy scalars count) and its name in messages.
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
          "bool": (bool, "a bool")}
_LIMIT_WORDS = {"(": "above", "[": ">=", ")": "below", "]": "<="}


def check_number(name: str, value, kind: str, interval: str = "(-inf, inf)") -> None:
    """Raise ConfigError unless ``value`` is a finite ``kind`` inside ``interval``.

    ``kind`` is "int", "float" or "bool", with " | None" if None is allowed;
    ``interval`` is written like "(0, 1]", with "inf" for no limit.
    """
    base = kind.removesuffix(" | None")
    types, noun = _KINDS[base]
    lo, hi = interval[1:-1].split(", ")
    if (value is None and base != kind) or (
        isinstance(value, types)
        and isinstance(value, bool) == (base == "bool")
        # Finite: false for nan and +-inf, and for an int no float can hold.
        and abs(value if isinstance(value, numbers.Integral) else float(value)) <= float_info.max
        and (float(lo) < value if interval[0] == "(" else float(lo) <= value)
        and (value < float(hi) if interval[-1] == ")" else value <= float(hi))
    ):
        return
    ends = ((interval[0], lo), (interval[-1], hi))
    limits = " and ".join(f"{_LIMIT_WORDS[b]} {end}" for b, end in ends if "inf" not in end)
    wanted = f"{'None or ' if base != kind else ''}{noun} {limits}".rstrip()
    raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def check_config(config, default: str = "(-inf, inf)", **intervals: str) -> None:
    """``check_number`` on each int, float and bool field of a config dataclass.

    A field's kind is its annotation, which the config modules keep as text
    (``from __future__ import annotations``). ``intervals`` gives a field's
    interval; a field without one takes ``default``, by default any finite value.
    """
    for f in dataclasses.fields(config):
        if f.type.removesuffix(" | None") in _KINDS:
            check_number(f.name, getattr(config, f.name), f.type, intervals.get(f.name, default))
