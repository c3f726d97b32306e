"""Minimal numpy-based neural-network framework used by the GCoDE reproduction.

The public surface mirrors a small subset of PyTorch: :class:`Tensor` with
reverse-mode autograd, :class:`Module`-based layers, optimizers and loss
functions.  It exists because the original paper builds on PyTorch /
PyTorch Geometric, which are not available in this environment.
"""

from .tensor import Tensor, as_tensor, concat, stack, where, maximum, no_grad, is_grad_enabled
from .ops import (softmax, log_softmax, relu, dropout, one_hot,
                  scatter, scatter_add, scatter_mean, scatter_max,
                  gather_rows, global_pool)
from .modules import (Module, Parameter, Identity, ReLU, LeakyReLU, Dropout,
                      Linear, Sequential, BatchNorm1d, LayerNorm, MLP)
from .losses import (cross_entropy, mse_loss, mae_loss, mape_loss,
                     accuracy, balanced_accuracy)
from .optim import Optimizer, SGD, Adam, StepLR
from .serialization import save_state_dict, load_state_dict, save_module, load_module
from . import init

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "where", "maximum", "no_grad",
    "is_grad_enabled",
    "softmax", "log_softmax", "relu", "dropout", "one_hot",
    "scatter", "scatter_add", "scatter_mean", "scatter_max", "gather_rows",
    "global_pool",
    "Module", "Parameter", "Identity", "ReLU", "LeakyReLU", "Dropout",
    "Linear", "Sequential", "BatchNorm1d", "LayerNorm", "MLP",
    "cross_entropy", "mse_loss", "mae_loss", "mape_loss",
    "accuracy", "balanced_accuracy",
    "Optimizer", "SGD", "Adam", "StepLR",
    "save_state_dict", "load_state_dict", "save_module", "load_module",
    "init",
]
