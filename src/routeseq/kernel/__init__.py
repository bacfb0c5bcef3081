"""Minimal differentiable numerical kernel: the autodiff tape with the
``Grads`` that hands a recorded op's weight gradients over, the sequence
NLL, the plain-array LSTM (one step and a whole sequence), softmax, MLP,
the pair MLP's route-constant terms and the pair-MLP and pointer scorers,
each with the backward pass that the one op per route of
``predictor.decode`` runs, Adam, and the bit-exact checkpoint byte codec
(no file I/O)."""

from .autodiff import (
    Grads,
    Node,
    Tape,
    nll,
    unwrap,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_id,
    deserialize_checkpoint,
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
    "Grads", "Node", "Tape", "nll", "unwrap",
    "CHECKPOINT_FORMAT", "checkpoint_id", "deserialize_checkpoint", "serialize_checkpoint",
    "LstmCellParams", "LstmState", "MlpLayer", "MlpParams", "PairScoresBackward",
    "init_lstm", "init_mlp", "lstm_backward_step", "lstm_factors", "lstm_sequence",
    "lstm_sequence_backward", "lstm_step",
    "map_tensors", "mlp_backward", "mlp_values", "named_tensors",
    "pair_scores", "pair_terms", "pointer_scores",
    "pointer_scores_backward", "softmax", "uniform_init", "zero_state",
    "AdamState", "adam_init", "adam_step", "clip_gradients",
]
