"""Identifier rules and display-name rendering.

Canonical identifiers are CamelCase (``PerspectiveShape``); sheets and tables
show them as spaced labels (``Perspective shape``). Only the first word keeps
its capital so labels read like the hand-written catalogs they mirror.
"""
from __future__ import annotations

import re
from functools import lru_cache

__all__ = ["is_identifier", "display_name", "display_property_key"]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CAMEL_SPLIT = re.compile(r"(?<!^)(?=[A-Z])")


def is_identifier(value: object) -> bool:
    return isinstance(value, str) and bool(_IDENT_RE.fullmatch(value))


@lru_cache(maxsize=1024)
def display_name(identifier: str) -> str:
    """``TemporaryStructure`` -> ``Temporary structure``. Memoised: a catalog
    renders a few dozen names thousands of times (70 names, 6,182 calls for
    one ``generate`` of a 524-condition catalog)."""
    words = _CAMEL_SPLIT.split(identifier)
    if not words:
        return identifier
    head = words[0]
    tail = [w.lower() for w in words[1:]]
    return " ".join([head, *tail]) if tail else head


def display_property_key(properties: tuple[str, ...] | list[str]) -> str:
    """Joint property rows render slash-joined: ``Perspective shape/Color``."""
    return "/".join(display_name(p) for p in properties)
