"""``load_csv`` on arbitrary file contents: a series, or a typed error in one line.

Contents are drawn as CSV-shaped text (a header and rows whose cells are
numbers, number-like junk, quotes, separators and line breaks), with a span
of arbitrary bytes, which need not be UTF-8, spliced into some files. Each
file must either load as a finite float64 series with one column per
header channel, or raise ``ParseError`` or ``ConfigError``. Through the
CLI (``icmixer train --data``) every such file ends in exit 2 with one
``error:`` line: a file that loads is refused later, since at most 16 rows
hold no train, validation and test windows.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from icmixer.attention import ConfigError
from icmixer.cli import main
from icmixer.data import ParseError, load_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(
    -10**6, 10**6).map(str)
CELLS = (st.floats().map(repr)
         | st.integers(-10**400, 10**400).map(str)
         | st.sampled_from(["", " 1 ", "1_0", "nan", "-inf", "1e999", "0x1p3", "١",
                            '"', '""', '"1"', "'1'", ",", "\n", "\r", "\x00", "\ufeff1"])
         | st.text(max_size=3))


@st.composite
def csv_texts(draw):
    """Text of a header and up to 16 rows, each with about the header's field count.

    Half the files hold numbers only and at most one ragged row, so that many load.
    """
    channels = draw(st.sampled_from([1, 2, 3, 0]))
    header = ["date"] + [draw(st.sampled_from(["a", "b", "", '"c"', '"d,e"', "ß"]))
                         for _ in range(channels)]
    cells = draw(st.sampled_from([NUMBERS, CELLS]))
    rows = draw(st.integers(0, 16))
    # In one file of four, one row is a field short or long.
    ragged = draw(st.integers(0, max(rows - 1, 0))) if draw(st.integers(0, 3)) == 0 else None
    lines = [",".join(header)]
    for t in range(rows):
        width = channels + (draw(st.sampled_from([-1, 1])) if t == ragged else 0)
        lines.append(",".join([str(t)] + [draw(cells) for _ in range(width)]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
    return end.join(lines) + end


@st.composite
def contents(draw):
    """A CSV text's UTF-8 bytes; in one file of three, a span of them is replaced
    with arbitrary bytes, which need not decode."""
    raw = draw(csv_texts()).encode()
    if draw(st.integers(0, 2)) == 0:
        start = draw(st.integers(0, len(raw)))
        end = draw(st.integers(start, len(raw)))
        raw = raw[:start] + draw(st.binary(max_size=8)) + raw[end:]
    return raw


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@hypothesis.settings(max_examples=150)
@hypothesis.given(raw=contents())
def test_csv_loads_or_fails_in_one_line(csv_dir, raw):
    path = csv_dir / "series.csv"
    path.write_bytes(raw)
    try:
        series = load_csv(path)
    except (ParseError, ConfigError):
        hypothesis.event("refused")
    else:
        hypothesis.event("loaded")
        assert series.values.dtype == np.float64 and np.isfinite(series.values).all()
        assert series.values.shape == (len(series), len(series.channel_names))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["train", "--data", str(path), "--lookback", "8", "--horizons", "4",
                   "--n-blocks", "1", "--d-model", "4", "--n-heads", "1", "--d-ff", "4",
                   "--epochs", "1", "--out", str(csv_dir / "runs")])
    assert rc == 2, raw
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, raw
    assert out.getvalue() == "" and not (csv_dir / "runs").exists()


@pytest.mark.parametrize("raw, message", [
    (b"date,a\n0,\x80\n", "not UTF-8 text (byte 0x80: invalid start byte)"),
    (b"date,a\n0," + b"1" * 200_000 + b"\n",
     "malformed CSV (field larger than field limit (131072))"),
], ids=["not-utf-8", "field-over-the-csv-limit"])
def test_unreadable_text_is_a_parse_error(tmp_path, capsys, raw, message):
    """Bytes that are not UTF-8 and a field past the csv module's limit once escaped
    as a UnicodeDecodeError and a csv.Error traceback with exit 1."""
    path = tmp_path / "series.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=re.escape(message)):
        load_csv(path)
    assert main(["train", "--data", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
