"""The JSON document format and its error contract: UTF-8, indented by two
spaces, with a trailing newline (reports, specs, the manifest). A document
that cannot be read or decoded, that holds `NaN`, `Infinity` or `-Infinity`
(which Python's `json` accepts but JSON does not), or that its reader's
`parse` rejects, raises one `DataError` naming the file. Writing a document
that holds one of those numbers raises the same error and writes nothing."""

from __future__ import annotations

import json

from .errors import DataError, TwkitError


def write_json(path, doc) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not JSON")


def read_json(path, parse, what: str):
    """`parse(doc)` for the document at `path`. `parse` rejects a malformed
    document by raising LookupError, TypeError, ValueError or AttributeError,
    as indexing, `int()` and `.items()` do on the wrong shape, or by raising
    a twkit error, whose text the `DataError` keeps."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, a non-finite number or bad UTF-8
        raise DataError(f"{path}: {exc}") from exc
    try:
        return parse(doc)
    except TwkitError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc!r}") from exc
