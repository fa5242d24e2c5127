"""Exception types shared across the package, and the checks of single
input values that raise them."""

import json
import math
import numbers


class ValidationError(ValueError):
    """A precondition on arguments or data shapes was violated."""


class BracketError(ValidationError):
    """A root bracket handed to the threshold solver does not bracket."""


class ResourceCapError(RuntimeError):
    """A computation would exceed its configured resource cap.

    Raised instead of silently truncating; the caller must either raise the
    cap explicitly or shrink the request.
    """


def finite_real(value, what: str) -> float:
    """``value`` as a float; a ValidationError unless it is a finite real
    number (booleans and strings are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return out


def integer(value, what: str) -> int:
    """``value`` as an int; a ValidationError unless it is an integer or a
    float with an integral value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = finite_real(value, what)
    if not number.is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(number)


def is_sequence(value) -> bool:
    """Iterable, and not a string or a mapping."""
    return hasattr(value, "__iter__") and not isinstance(value, (str, bytes, dict))


def sequence(value, what: str) -> list:
    """``value`` as a list; a ValidationError unless ``is_sequence(value)``."""
    if not is_sequence(value):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return list(value)


def positive_integer(value, what: str) -> int:
    """``value`` as an int; a ValidationError unless it is an integer >= 1."""
    out = integer(value, what)
    if out < 1:
        raise ValidationError(f"{what} must be at least 1, got {value!r}")
    return out


def last_shell(value) -> int:
    """``value`` as the last shell N of a tail fit; a ValidationError unless
    it is an integer of at least 16."""
    out = integer(value, "N")
    if out < 16:
        raise ValidationError("N must be at least 16")
    return out


def parsed_json(text_or_obj, what: str):
    """``text_or_obj`` parsed when it is a string of JSON, else as it is; a
    ValidationError when the string is not JSON."""
    if not isinstance(text_or_obj, str):
        return text_or_obj
    try:
        return json.loads(text_or_obj)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON for {what}: {exc}") from exc
