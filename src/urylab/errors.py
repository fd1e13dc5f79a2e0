"""Shared exception types."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class UrylabError(Exception):
    """Base class for all library errors."""


class StructuralError(UrylabError):
    """Malformed value: dimension mismatch, duplicate labels, non-injective map."""


class ParseError(UrylabError):
    """A text artifact (space, map, modulus, trace) could not be parsed."""


class PreconditionError(UrylabError):
    """An operation was called outside its contract."""


class DegenerateInputError(PreconditionError):
    """Two points at distance zero where positive distance is required."""


class UnreportableError(UrylabError):
    """A number has more digits than Python converts from int to str."""


@contextmanager
def as_text() -> Iterator[None]:
    """Turn exact results into a report or a failure text inside this block.

    Exact arithmetic raises no ValueError, and formatting a rational raises
    one only for a number past Python's int -> str digit limit; that becomes
    UnreportableError, with the conversion's own message.
    """
    try:
        yield
    except ValueError as exc:
        raise UnreportableError(str(exc)) from None


class InfeasibleError(UrylabError):
    """A feasibility interval came up empty.

    The message names the two conflicting bounds.  Emptiness is never
    silently clamped: for compliant inputs nonemptiness is a theorem, so
    hitting this means a violated precondition (or a bug upstream).
    """
