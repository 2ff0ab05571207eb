"""NumPy-backed autograd engine and NN substrate (PyTorch stand-in)."""

from . import init
from .losses import cross_entropy, mse_loss, nll_loss
from .nn import Linear, Module, Parameter
from .ops import concat, dropout, elu, exp, leaky_relu, log, log_softmax, relu, sigmoid
from .optim import SGD, Adam, Optimizer
from .sparse_ops import (
    attention_aggregate,
    edge_softmax,
    gather_rows,
    gsddmm_add_uv,
    row_broadcast,
    sddmm_dot,
    spmm,
    spmm_edge,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Adam",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "Tensor",
    "attention_aggregate",
    "concat",
    "cross_entropy",
    "dropout",
    "edge_softmax",
    "elu",
    "exp",
    "gather_rows",
    "gsddmm_add_uv",
    "init",
    "is_grad_enabled",
    "leaky_relu",
    "log",
    "log_softmax",
    "mse_loss",
    "nll_loss",
    "no_grad",
    "relu",
    "row_broadcast",
    "sddmm_dot",
    "sigmoid",
    "spmm",
    "spmm_edge",
]
