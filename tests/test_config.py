"""Property test of the one config reader: ``from_dict`` of any JSON object.

Checkpoints, ``--config`` files and flags all build ``EncoderConfig`` and
``TrainConfig`` through ``from_dict``, so whatever JSON a file holds must
either build a config or raise ConfigError, never a TypeError or a plain
ValueError.
"""

from dataclasses import fields

import pytest

from icmixer.attention import ConfigError
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
