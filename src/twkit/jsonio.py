"""The JSON document format and its error contract: UTF-8, indented by two
spaces, with a trailing newline (reports, specs, the manifest). A document
that cannot be read or decoded, that holds `NaN`, `Infinity` or `-Infinity`
(which Python's `json` accepts but JSON does not) or a number that overflows
a float (which Python's `json` reads as infinite), that nests too deep to
read, or that its reader's `parse` rejects, raises one `DataError` naming the
file. Writing serialises the whole document before it opens the file: a
non-finite float raises the same error, a value `json` cannot serialise its
TypeError, and neither writes a byte."""

from __future__ import annotations

import json
import math
import sys

from .errors import DataError, TwkitError


def write_json(path, doc) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float
        raise DataError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def integer(key: str, value) -> int:
    """`value` when it is an integer and not a bool; else the TypeError, naming
    `key`, that a reader's `parse` raises for it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key}: expected an integer, got {value!r}")
    return value


def number(key: str, value) -> float:
    """`value` as a float when it is a finite integer or float and not a bool;
    else the TypeError, naming `key`, that a reader's `parse` raises for it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _finite(token: str) -> float:
    """The float a JSON number token names; a token that names no finite
    float (`NaN`, `Infinity`, or a number that overflows, such as `1e400`)
    is rejected."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} is not JSON")
    return value


def read_json(path, parse, what: str):
    """`parse(doc)` for the document at `path`. `parse` rejects a malformed
    document by raising LookupError, TypeError, ValueError, AttributeError or
    ArithmeticError, as indexing, `int()`, `.items()` and `float()` of a huge
    integer do, or by raising a twkit error, whose text the `DataError` keeps."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a non-finite number, deep nesting
        raise DataError(f"{path}: {exc}") from exc
    try:
        return parse(doc)
    except TwkitError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc!r}") from exc
