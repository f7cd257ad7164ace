"""Shared exception types."""

from __future__ import annotations

from typing import Any


class TripleSysError(Exception):
    """Base class for all package errors."""


class PreconditionViolated(TripleSysError):
    """An operation was invoked outside its stated hypotheses."""


class InternalContradiction(TripleSysError):
    """A step that is provably guaranteed to succeed failed anyway.

    This is a falsification detector, not an ordinary error: if it ever
    fires on a valid input, either the implementation or the underlying
    mathematics is wrong.  It therefore carries the full local state of
    the failing step for post-mortem analysis.
    """

    def __init__(self, message: str, state: dict[str, Any] | None = None):
        super().__init__(message)
        self.state = dict(state) if state else {}

    def __str__(self) -> str:
        base = super().__str__()
        if not self.state:
            return base
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.state.items()))
        return f"{base} [{detail}]"
