"""Shared exception types, and the strict JSON field checks that raise InputFormatError."""

from __future__ import annotations

from itertools import repeat
from typing import Any


class InputFormatError(ValueError):
    """A JSON document does not match the documented file layout."""


class SignatureMismatchError(ValueError):
    """A structure's signature does not fit the requested kind."""


class UnboundVariableError(LookupError):
    """An equation mentions a variable the system does not declare."""


class InvalidCertificateError(ValueError):
    """A certificate does not re-verify against the structure it claims to describe."""


def json_object(doc: Any, keys: set[str], what: str) -> dict:
    if not isinstance(doc, dict) or set(doc) != keys:
        raise InputFormatError(f"{what} must be an object with keys {sorted(keys)}, got {doc!r}")
    return doc


def json_list(doc: Any, what: str) -> list:
    if not isinstance(doc, list):
        raise InputFormatError(f"{what} must be a list, got {doc!r}")
    return doc


def json_int(doc: Any, what: str, minimum: int | None = None) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise InputFormatError(f"{what} must be an integer, got {doc!r}")
    if minimum is not None and doc < minimum:
        raise InputFormatError(f"{what} must be at least {minimum}, got {doc}")
    return doc


def json_bool(doc: Any, what: str) -> bool:
    if not isinstance(doc, bool):
        raise InputFormatError(f"{what} must be true or false, got {doc!r}")
    return doc


def json_str(doc: Any, what: str) -> str:
    if not isinstance(doc, str):
        raise InputFormatError(f"{what} must be a string, got {doc!r}")
    return doc


def json_str_list(doc: Any, what: str) -> list[str]:
    if not isinstance(doc, list) or not all(map(isinstance, doc, repeat(str))):
        raise InputFormatError(f"{what} must be a list of strings, got {doc!r}")
    return doc
