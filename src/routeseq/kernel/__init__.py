"""Minimal differentiable numerical kernel: autodiff tape, fused LSTM-cell,
MLP and pointer-score ops, softmax and the sequence NLL, Adam, and the
bit-exact checkpoint byte codec (no file I/O)."""

from .autodiff import (
    Node,
    Tape,
    matmul,
    nll,
    softmax,
    stack_rows,
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
    init_lstm,
    init_mlp,
    lstm_cell,
    map_tensors,
    mlp_forward,
    named_tensors,
    pointer_scores,
    uniform_init,
    zero_state,
)
from .optim import AdamState, adam_init, adam_step, clip_gradients

__all__ = [
    "Node", "Tape", "matmul", "nll", "softmax", "stack_rows", "unwrap",
    "CHECKPOINT_FORMAT", "checkpoint_id", "deserialize_checkpoint", "serialize_checkpoint",
    "LstmCellParams", "LstmState", "MlpLayer", "MlpParams", "init_lstm",
    "init_mlp", "lstm_cell", "map_tensors", "mlp_forward", "named_tensors",
    "pointer_scores", "uniform_init", "zero_state",
    "AdamState", "adam_init", "adam_step", "clip_gradients",
]
