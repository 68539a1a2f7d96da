"""The JSON document format and its error contract: UTF-8, indented by two
spaces, with a trailing newline (reports, specs, the manifest). A document
that cannot be read or decoded, that holds `NaN`, `Infinity` or `-Infinity`
(which Python's `json` accepts but JSON does not) or a number that overflows
a float (which Python's `json` reads as infinite), or that its reader's
`parse` rejects, raises one `DataError` naming the file. Writing a document
that holds one of those numbers raises the same error and writes nothing."""

from __future__ import annotations

import json
import math
import sys

from .errors import DataError, TwkitError


def _check_finite(path, value) -> None:
    """Raise, before a byte is written, the error that `json.dump(...,
    allow_nan=False)` would raise part-way through writing `value`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DataError(f"{path}: Out of range float values are not JSON compliant: {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite(path, key)
            _check_finite(path, item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(path, item)


def write_json(path, doc) -> None:
    _check_finite(path, doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


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
    document by raising LookupError, TypeError, ValueError or AttributeError,
    as indexing, `int()` and `.items()` do on the wrong shape, or by raising
    a twkit error, whose text the `DataError` keeps."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, a non-finite number or bad UTF-8
        raise DataError(f"{path}: {exc}") from exc
    try:
        return parse(doc)
    except TwkitError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc!r}") from exc
