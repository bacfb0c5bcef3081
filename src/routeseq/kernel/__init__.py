"""Minimal differentiable numerical kernel: autodiff tape, fused LSTM-cell
and MLP ops, softmax/cross-entropy, Adam, and bit-exact checkpoints."""

from .autodiff import (
    Node,
    Tape,
    add,
    concat,
    cross_entropy,
    matmul,
    nsum,
    reshape,
    softmax,
    stack_rows,
    tanh,
    tile_rows,
    transpose,
    unwrap,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_id,
    deserialize_checkpoint,
    load_checkpoint,
    save_checkpoint,
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
    uniform_init,
    zero_state,
)
from .optim import AdamState, adam_init, adam_step, clip_gradients

__all__ = [
    "Node", "Tape", "add", "concat", "cross_entropy", "matmul",
    "nsum", "reshape", "softmax", "stack_rows", "tanh", "tile_rows",
    "transpose", "unwrap",
    "CHECKPOINT_FORMAT", "checkpoint_id", "deserialize_checkpoint",
    "load_checkpoint", "save_checkpoint", "serialize_checkpoint",
    "LstmCellParams", "LstmState", "MlpLayer", "MlpParams", "init_lstm",
    "init_mlp", "lstm_cell", "map_tensors", "mlp_forward", "named_tensors",
    "uniform_init", "zero_state",
    "AdamState", "adam_init", "adam_step", "clip_gradients",
]
