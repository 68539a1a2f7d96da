"""The JSON document format and its error contract: UTF-8 with a trailing
newline, indented by two spaces (reports, specs, the manifest) or compact
(checkpoints, ``indent=None``). A document that cannot be read or decoded, or
that its reader's `parse` rejects, raises one `DataError` naming the file."""

from __future__ import annotations

import json

from .errors import DataError


def write_json(path, doc, indent: int | None = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


def read_json(path, parse=lambda doc: doc, what: str = "document"):
    """`parse(doc)` for the document at `path`. `parse` rejects a malformed
    document by raising LookupError, TypeError, ValueError or AttributeError,
    as indexing, `int()` and `.items()` do on the wrong shape."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise DataError(f"{path}: {exc}") from exc
    try:
        return parse(doc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc!r}") from exc
