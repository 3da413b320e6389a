"""``icmixer synth --spec``: any spec string writes a CSV that loads back, or fails in one line.

Each size is drawn either small enough to generate in milliseconds or at 2^62 and
above, where the refusal must come before anything is allocated. Nothing is drawn
in between: a host that overcommits memory could grant such an array and then
have it written.
"""

import contextlib
import io

import pytest

from icmixer.cli import main
from icmixer.data import load_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def sizes(limit: int):
    return st.integers(-2, limit) | st.integers(2**62, 2**80)


TYPED = {"T": sizes(3000), "m": sizes(8), "lag": sizes(64), "seed": st.integers(-2, 2**70),
         "noise": st.floats()}
# No decimal digits in the free text: int() reads any script's digits, and a junk
# value must not turn into a large size.
JUNK = (st.sampled_from(["", "nan", "inf", "-inf", "0x10", "1e3", "1.5", "+", "1_0"])
        | st.text(st.characters(exclude_categories=["Nd"], exclude_characters=",="),
                  max_size=4))


@st.composite
def spec_parts(draw):
    """(key, value) pairs: T first, so that no spec falls back to the 20000-row default,
    then up to four more, each a known key or junk, with a typed or junk value."""
    parts = [("T", draw(TYPED["T"]))]
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from([*TYPED, "bogus", ""]))
        value = draw(TYPED[key] if key in TYPED and draw(st.booleans()) else JUNK)
        parts.append((key, value))
    return parts


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("synth") / "series.csv"


@hypothesis.settings(max_examples=200)
@hypothesis.given(parts=spec_parts())
def test_spec_writes_a_loadable_csv_or_fails_in_one_line(csv_path, parts):
    csv_path.unlink(missing_ok=True)
    spec = "lagged:" + ",".join(f"{key}={value}" for key, value in parts)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["synth", "--spec", spec, "--path", str(csv_path)])
    hypothesis.event(f"exit {rc}")
    if rc != 0:
        assert rc == 2, (spec, rc)
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, spec
        assert "Traceback" not in err.getvalue() and not csv_path.exists()
        return
    last = {"m": 4, **{key: value for key, value in parts}}  # the last setting wins
    series = load_csv(csv_path)
    assert series.values.shape == (int(last["T"]), int(last["m"])), spec
