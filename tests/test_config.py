"""Property test of the one config reader: ``from_dict`` of any JSON object.

Checkpoints, ``--config`` files and flags all build ``EncoderConfig`` and
``TrainConfig`` through ``from_dict``, so whatever JSON a file holds must
either build a config or raise ConfigError, never a TypeError or a plain
ValueError.
"""

import contextlib
import io
import json
from dataclasses import fields

import pytest

from icmixer.attention import ConfigError
from icmixer.cli import main
from icmixer.encoder import EncoderConfig
from icmixer.training import TrainConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

scalars = st.none() | st.booleans() | st.integers(-3, 600) | st.floats() | st.text(max_size=3)
json_values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(st.text(max_size=2),
                                                                        scalars, max_size=2)


def config_dicts(cls):
    """Every field of ``cls`` at its default, then up to two keys, a field or an unknown
    key, set to any JSON value."""
    defaults = cls().to_dict()
    keys = st.sampled_from([*defaults, "unknown_key"])
    return st.dictionaries(keys, json_values, max_size=2).map(lambda d: {**defaults, **d})


@pytest.mark.parametrize("cls", [EncoderConfig, TrainConfig])
@hypothesis.settings(max_examples=100)
@hypothesis.given(data=st.data())
def test_from_dict_builds_a_config_or_raises_config_error(cls, data):
    d = data.draw(config_dicts(cls))
    try:
        cfg = cls.from_dict(d)
    except ConfigError:
        return
    assert cls.from_dict(cfg.to_dict()) == cfg


# -- --config trees through the CLI -------------------------------------------

CONFIG_KEYS = [f.name for cls in (EncoderConfig, TrainConfig) for f in fields(cls)]
# A test split of one row, shorter than any window: no model trains, and a
# valid tree still ends in the data check's ConfigError.
NO_TEST_WINDOW = "lagged:m=2,lag=0,T=3"

leaves = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
          | st.integers(-3, 600) | st.integers(-10**400, 10**400)
          | st.sampled_from([2**63, -2**63, 10**30]))
json_trees = st.recursive(
    leaves, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3), max_leaves=6)
keys = (st.sampled_from(CONFIG_KEYS) | st.text(max_size=4)
        | st.sampled_from(["d_model\n", "\r", "\x00", "\ud800"]))
sections = st.dictionaries(keys, json_trees, max_size=4)
config_trees = (st.dictionaries(st.sampled_from(["model", "train"]), sections, max_size=2)
                | st.dictionaries(st.sampled_from(["model", "train"]) | st.text(max_size=3),
                                  sections | json_trees, max_size=3)
                | json_trees)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@hypothesis.settings(max_examples=200, derandomize=True)
@hypothesis.given(tree=config_trees)
def test_config_tree_through_the_cli_fails_in_one_line(config_dir, tree):
    """Any JSON tree as ``--config``, real keys with type-confused values among
    them, ends in exit 2 with one ``error:`` line and no output."""
    path = config_dir / "cfg.json"
    path.write_text(json.dumps(tree))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["train", "--synthetic", NO_TEST_WINDOW, "--config", str(path),
                   "--out", str(config_dir / "runs")])
    assert rc == 2, tree
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, tree
    assert out.getvalue() == "" and not (config_dir / "runs").exists()
