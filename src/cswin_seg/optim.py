"""Stochastic gradient descent with classic (coupled) weight decay.

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr * v
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor

POLY_POWER = 0.9  # exponent of the "poly" schedule: lr * (1 - it/max_it)^0.9


@dataclass
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 24
    max_iterations: int = 300
    seed: int = 0
    lr_schedule: str = "constant"  # "constant" | "poly"

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"learning rate must be nonnegative, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("need at least one iteration")
        if self.lr_schedule not in ("constant", "poly"):
            raise ConfigError(f"unknown lr schedule {self.lr_schedule!r}")

    def lr_at(self, iteration: int) -> float:
        if self.lr_schedule == "poly":
            return self.lr * (1.0 - iteration / self.max_iterations) ** POLY_POWER
        return self.lr


class SGD:
    """Momentum SGD over a named parameter list.

    A parameter's momentum buffer is allocated the first time it is updated,
    as zeros, as torch.optim.SGD does; a fresh optimizer holds no buffers."""

    def __init__(self, named_params: list[tuple[str, Tensor]], cfg: OptimizerConfig):
        self.cfg = cfg
        self.named_params = named_params
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, lr: float | None = None) -> None:
        lr = self.cfg.lr if lr is None else lr
        m, wd = self.cfg.momentum, self.cfg.weight_decay
        for name, t in self.named_params:
            if t.grad is None:
                raise ContractError(f"parameter {name} has no gradient; run backward first")
            if t.grad.shape != t.data.shape:
                raise ContractError(f"parameter {name}: grad shape {t.grad.shape} != {t.data.shape}")
            v = self.velocity.get(name)
            if v is None:
                v = self.velocity[name] = np.zeros_like(t.data)
            v *= m
            v += t.grad
            if wd:
                v += wd * t.data
            t.data -= lr * v

    def zero_grad(self) -> None:
        for _, t in self.named_params:
            t.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        """One momentum buffer per parameter, in parameter order; zeros for a
        parameter that has not been updated yet."""
        return {name: self.velocity[name] if name in self.velocity else np.zeros_like(t.data) for name, t in self.named_params}

    def load_state(self, velocity: dict[str, np.ndarray]) -> None:
        for name, t in self.named_params:
            if name not in velocity:
                raise ContractError(f"missing momentum buffer for {name}")
            if velocity[name].shape != t.data.shape:
                raise ContractError(f"momentum buffer {name} has wrong shape")
        self.velocity = {name: velocity[name].copy() for name, _ in self.named_params}
