"""Exact scalar arithmetic.

All combinatorial constructions in this package run on ints and
``fractions.Fraction`` so that every certified identity is exact, never
approximate.  No float enters: a float input is refused, and even the
decimal exponent of a long scalar in a message is found in ints.

Wire format: a scalar serializes to the string ``"p/q"`` (or ``"p"`` for an
integer value) and parses from that form, from a decimal string, or from a
plain integer.  A decimal exponent is refused before it is applied when the
value could have more digits than ``sys.get_int_max_str_digits()``: such a
value could not be printed, and building 10^k alone grows without bound
in k.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from .errors import PreconditionError, StructuralError

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, "p/q" string, or decimal string to a Fraction.

    Floats are rejected on purpose: silently converting a float would launder
    rounding error into the exact layer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            _check_exponent(text)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar from {brief_text(value)}") from exc
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact scalar")


_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\Z"


def _check_exponent(text: str) -> None:
    """Raise ValueError when the decimal exponent of ``text`` would give a
    numerator or denominator of more digits than ``int`` may print: the
    mantissa's digit count plus the exponent's size bounds that count."""
    found = re.search(_EXPONENT, text)
    limit = sys.get_int_max_str_digits()
    if found is None or not limit:
        return
    digits = sum(c.isdigit() for c in text[:found.start()])
    exponent = found.group(1)
    # int() itself refuses an exponent string longer than the limit.
    if len(exponent) > limit or digits + abs(int(exponent)) > limit:
        raise ValueError(
            f"cannot parse scalar from {brief_text(text)}: its exponent gives a value "
            f"of more than {limit} digits"
        )


def format_scalar(value: Fraction) -> str:
    """Serialize a Fraction as "p/q" (or "p" when the denominator is 1).

    Scalars that each parse can combine into one whose numerator or
    denominator has more digits than ``sys.get_int_max_str_digits()``;
    ``str`` refuses it with ValueError, raised here as StructuralError so
    that no report dies with a traceback.
    """
    try:
        return str(value)
    except ValueError:
        raise _unprintable() from None


def _unprintable() -> StructuralError:
    return StructuralError(
        f"a scalar has more than {sys.get_int_max_str_digits()} digits "
        "and cannot be printed"
    )


def ratio_texts(values: Iterable[int], scale: int) -> dict:
    """Per int v of ``values``, the text of v / scale as ``format_scalar``
    writes its Fraction: "p/q" in lowest terms, or "p" when q is 1.  One
    gcd per value and no Fraction, so a caller holding ints over one
    denominator prints them through one table; a value past the digit limit
    is refused as ``format_scalar`` refuses it."""
    text = {}
    for v in values:
        common = gcd(v, scale)
        p, q = v // common, scale // common
        try:
            text[v] = str(p) if q == 1 else f"{p}/{q}"
        except ValueError:
            raise _unprintable() from None
    return text


def brief_scalar(value: Fraction) -> str:
    """A scalar for an error message, bounded in length.

    A value whose numerator and denominator fit in 128 bits together prints
    exactly, as ``format_scalar`` prints it.  A longer one prints as
    "about d.ddde<k>": its first four significant digits, truncated, and
    its decimal exponent.  So no message grows with the value, and none
    needs more digits than ``sys.get_int_max_str_digits()`` allows.
    """
    magnitude = abs(value)
    num, den = magnitude.numerator, magnitude.denominator
    if num.bit_length() + den.bit_length() <= 128:
        return str(value)
    # The bit lengths place log10 of the value within one of this guess
    # (30103 / 100000 is log10 2 to five places); the loops make it exact.
    exponent = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while Fraction(10) ** exponent > magnitude:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= magnitude:
        exponent += 1
    head = str(magnitude * 1000 // Fraction(10) ** exponent)
    sign = "-" if value < 0 else ""
    return f"about {sign}{head[0]}.{head[1:]}e{exponent}"


def brief_text(text: str) -> str:
    """``repr(text)`` for a message: whole up to 60 characters, else its
    first 40, "..." and the text's length."""
    shown = repr(text)
    return shown if len(shown) <= 60 else f"{shown[:40]}... ({len(text)} characters)"


def parameter_grid(values, low: Fraction, high: Fraction, required) -> tuple:
    """The grid of a cone, join, cylinder or telescope: ``values`` sorted and
    deduplicated.  It must be nonempty, lie in [low, high] and hold every
    value in ``required``; otherwise a PreconditionError names the first
    miss."""
    grid = sorted({as_scalar(t) for t in values})
    if not grid:
        raise PreconditionError("parameter grid must be nonempty")
    for t in grid:
        if not low <= t <= high:
            raise PreconditionError(f"grid value {t} outside [{low}, {high}]")
    for needed in required:
        if needed not in grid:
            raise PreconditionError(f"grid must contain {needed}")
    return tuple(grid)


def pow2(n: int) -> Fraction:
    """2**n as an exact Fraction, for any integer n."""
    if n >= 0:
        return Fraction(1 << n)
    return Fraction(1, 1 << (-n))
