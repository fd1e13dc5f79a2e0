"""Shared exception types."""

from __future__ import annotations


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


class InfeasibleError(UrylabError):
    """A feasibility interval came up empty.

    The message names the two conflicting bounds.  Emptiness is never
    silently clamped: for compliant inputs nonemptiness is a theorem, so
    hitting this means a violated precondition (or a bug upstream).
    """
