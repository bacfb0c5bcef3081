"""Minimal differentiable numerical kernel over plain arrays: the tape of a
training step's backward passes, which keeps the model tensors' gradients
in views of a flat buffer, the ``Grads`` that hands a backward pass's
weight gradients to it, the sequence NLL and its gradient rows, the LSTM
(one step and a whole sequence), softmax, MLP, the pair MLP's terms and
the pair-MLP and pointer scorers (a decoder step's pieces compute into its
rows of the step arrays), each with its backward piece, Adam over a flat
buffer, and the bit-exact checkpoint byte codec with its float64 array
format (no file I/O)."""

from .autodiff import (
    Grads,
    Tape,
    flat_views,
    nll,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_id,
    decode_float64,
    deserialize_checkpoint,
    encode_float64,
    serialize_checkpoint,
)
from .layers import (
    LstmCellParams,
    LstmState,
    MlpLayer,
    MlpParams,
    PairScoresBackward,
    init_lstm,
    init_mlp,
    lstm_backward_step,
    lstm_factors,
    lstm_sequence,
    lstm_sequence_backward,
    lstm_step,
    map_tensors,
    mlp_backward,
    mlp_values,
    named_tensors,
    pair_scores,
    pair_terms,
    pointer_scores,
    pointer_scores_backward,
    softmax,
    uniform_init,
    zero_state,
)
from .optim import AdamState, adam_init, adam_step, clip_gradients

__all__ = [
    "Grads", "Tape", "flat_views", "nll",
    "CHECKPOINT_FORMAT", "checkpoint_id", "decode_float64", "deserialize_checkpoint",
    "encode_float64", "serialize_checkpoint",
    "LstmCellParams", "LstmState", "MlpLayer", "MlpParams", "PairScoresBackward",
    "init_lstm", "init_mlp", "lstm_backward_step", "lstm_factors", "lstm_sequence",
    "lstm_sequence_backward", "lstm_step",
    "map_tensors", "mlp_backward", "mlp_values", "named_tensors",
    "pair_scores", "pair_terms", "pointer_scores",
    "pointer_scores_backward", "softmax", "uniform_init", "zero_state",
    "AdamState", "adam_init", "adam_step", "clip_gradients",
]
