"""Compressive-memory channel mixing for encoder-only time-series transformers."""

from .attention import (
    ConfigError,
    ICMAttention,
    MultiHeadSelfAttention,
    accumulate_memory,
    dot_attention,
    gate_combine,
    retrieve_memory,
    sigma,
)
from .encoder import EncoderConfig, ForecastEncoder, load_checkpoint, save_checkpoint
from .mixers import ChannelBias, MixerKind, StaticChannelEmbedding
from .tensor import DimensionError, Parameter, Tensor, no_grad
from .training import MetricReport, TrainConfig, gradcheck, mse, train_supervised

__all__ = [
    "ChannelBias", "ConfigError", "DimensionError", "EncoderConfig",
    "ForecastEncoder", "ICMAttention", "MetricReport", "MixerKind",
    "MultiHeadSelfAttention", "Parameter", "StaticChannelEmbedding", "Tensor",
    "TrainConfig", "accumulate_memory", "dot_attention", "gate_combine",
    "gradcheck", "load_checkpoint", "mse", "no_grad", "retrieve_memory",
    "save_checkpoint", "sigma", "train_supervised",
]

__version__ = "0.1.0"
