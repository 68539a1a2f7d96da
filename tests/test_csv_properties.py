"""Property tests at the CSV boundary: an edited CSV either loads as the
reference loader below reads it, or is a data error that the CLI reports as
exit 1 with one `error:` line and no output file."""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from twkit import default_schema, default_synthesis_spec, synthesize_corpus
from twkit.cli import main
from twkit.errors import DataError
from twkit.schema import NUMERIC
from twkit.table import ORIGINS, inject_missing, load_augmented_csv, save_csv

SCHEMA = default_schema()


def _base_csv() -> bytes:
    table = synthesize_corpus(default_synthesis_spec(), 12, seed=11)
    table, _ = inject_missing(table, ["headgear", "height"], 0.25, seed=12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tw.csv"
        save_csv(table, path, origins=[ORIGINS[i % 3] for i in range(len(table))])
        return path.read_bytes()


BASE = _base_csv()
BASE_LINES = BASE.decode("utf-8").splitlines()
N_FIELDS = len(BASE_LINES[0].split(","))

TOKENS = sorted({str(c) for a in SCHEMA.attributes for c in a.codes}) + [
    "1.0", "nan", "inf", "-inf", "1e999", "NA", "", " 3 ", " RW", "K ", "178.5", "x", "-0", "cgan",
]


def _reference_load(data: bytes):
    """What a CSV should load as, written independently of twkit: rows and
    origins, or ValueError for anything the format rejects."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if not rows:
        raise ValueError("empty")
    header = [h.strip() for h in rows[0]]
    allowed = set(SCHEMA.names) | {"origin"}
    if any(h not in allowed for h in header) or any(n not in header for n in SCHEMA.names):
        raise ValueError("columns")
    if len(set(header)) != len(header):
        raise ValueError("column named twice")
    positions = [header.index(n) for n in SCHEMA.names]
    origin = header.index("origin") if "origin" in header else None
    table_rows, origins = [], []
    for raw in rows[1:]:
        if len(raw) != len(header):
            raise ValueError("field count")
        cells = []
        for attr, pos in zip(SCHEMA.attributes, positions):
            token = raw[pos].strip()
            if token in ("", "NA"):
                cells.append(None)
            elif attr.kind == NUMERIC:
                value = float(token)
                if not math.isfinite(value):
                    raise ValueError("non-finite")
                cells.append(value)
            else:
                matches = [c for c in attr.codes if str(c) == token]
                if not matches:
                    raise ValueError("undeclared")
                cells.append(matches[0])
        if origin is not None:
            if raw[origin].strip() not in ORIGINS:
                raise ValueError("origin")
            origins.append(raw[origin].strip())
        table_rows.append(tuple(cells))
    return tuple(table_rows), (origins if origin is not None else None)


@st.composite
def edited_csv(draw) -> bytes:
    lines = [line.split(",") for line in BASE_LINES]
    data_row = st.integers(1, len(lines) - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["own", "token", "drop_field", "extra_field"]))
        r = draw(data_row)
        if kind == "own":  # another token the column declares, maybe padded
            c = draw(st.integers(0, len(SCHEMA.names) - 1))
            token = draw(st.sampled_from([str(code) for code in SCHEMA.attributes[c].codes] or ["170.25"]))
            lines[r][c] = draw(st.sampled_from(["{}", " {}", "{} "])).format(token)
        elif kind == "token":
            lines[r][draw(st.integers(0, N_FIELDS - 1))] = draw(st.sampled_from(TOKENS))
        elif kind == "drop_field" and lines[r]:
            del lines[r][draw(st.integers(0, len(lines[r]) - 1))]
        else:
            lines[r].append(draw(st.sampled_from(TOKENS)))
    data = ("\n".join(",".join(cells) for cells in lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xe2\x82"])) + data[at:]
    if draw(st.integers(0, 4)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return data


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited_csv())
def test_edited_csv_loads_as_reference_or_fails_cleanly(data):
    try:
        expected = _reference_load(data)
    except ValueError:  # UnicodeDecodeError is one
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        src.write_bytes(data)
        try:
            table, origins = load_augmented_csv(src, SCHEMA)
        except DataError:
            event("data error")
            assert expected is None
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["impute", "--method", "sta", "--in", str(src), "--out", str(out)])
            assert code == 1
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ") and str(src) in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not out.exists()
            return
    event("loads")
    assert expected is not None
    rows, want_origins = expected
    assert [tuple((type(c), c) for c in row) for row in table.rows] == [
        tuple((type(c), c) for c in row) for row in rows
    ]
    assert origins == want_origins
