import tracemalloc

import numpy as np
import pytest

from cswin_seg.errors import ConfigError, ContractError
from cswin_seg.network import Model, default_config
from cswin_seg.optim import SGD, OptimizerConfig
from cswin_seg.tensor import Tensor


def param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


class TestSgdStep:
    def test_vanilla_step(self):
        t = param([1.0, 2.0])
        t.grad = np.array([0.5, -0.5])
        opt = SGD([("w", t)], OptimizerConfig(lr=0.1, momentum=0.0, weight_decay=0.0))
        opt.step()
        np.testing.assert_allclose(t.data, [0.95, 2.05])

    def test_zero_grad_fixed_point(self):
        t = param([3.0])
        t.grad = np.array([0.0])
        opt = SGD([("w", t)], OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=0.0))
        opt.step()
        np.testing.assert_array_equal(t.data, [3.0])

    def test_two_steps_match_hand_recurrence(self):
        # minimize f(x) = x^2 / 2, grad = x, with momentum and coupled decay
        lr, m, wd = 0.1, 0.9, 0.01
        x = 1.0
        v = 0.0
        xs = []
        for _ in range(2):
            v = m * v + x + wd * x
            x = x - lr * v
            xs.append(x)

        t = param([1.0])
        opt = SGD([("w", t)], OptimizerConfig(lr=lr, momentum=m, weight_decay=wd))
        for step in range(2):
            t.grad = t.data.copy()  # grad of x^2/2
            opt.step()
            assert abs(t.data[0] - xs[step]) < 1e-12

    def test_missing_grad_rejected(self):
        t = param([1.0])
        opt = SGD([("w", t)], OptimizerConfig())
        with pytest.raises(ContractError):
            opt.step()

    def test_momentum_state_roundtrip(self):
        t = param([1.0, 1.0])
        opt = SGD([("w", t)], OptimizerConfig(lr=0.1, momentum=0.9))
        t.grad = np.array([1.0, -1.0])
        opt.step()
        state = {k: v.copy() for k, v in opt.state().items()}
        opt2 = SGD([("w", t)], OptimizerConfig(lr=0.1, momentum=0.9))
        opt2.load_state(state)
        np.testing.assert_array_equal(opt2.velocity["w"], opt.velocity["w"])


class TestLazyMomentum:
    # a momentum buffer is allocated at its parameter's first update
    def test_fresh_default_optimizer_allocates_no_buffers(self):
        params = Model.create(default_config(), seed=0).named_parameters()
        tracemalloc.start()
        try:
            opt = SGD(params, OptimizerConfig())
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.velocity == {}
        assert allocated < 2**20, f"allocated {allocated / 2**20:.1f} MiB"

    def test_state_gives_zeros_before_the_first_step(self):
        # the CKPT1 momenta stay one zero buffer per parameter, in order
        a, b = param([1.0, 2.0]), param([[3.0], [4.0]])
        opt = SGD([("a", a), ("b", b)], OptimizerConfig(lr=0.1, momentum=0.9))
        state = opt.state()
        assert list(state) == ["a", "b"]
        for name, t in (("a", a), ("b", b)):
            assert state[name].shape == t.data.shape and state[name].dtype == t.data.dtype
            assert not state[name].any()
        assert opt.velocity == {}

    def test_first_step_equals_a_zero_buffer(self):
        # loading explicit zeros and stepping gives the same bits as a lazy first step
        grads = np.random.default_rng(0).uniform(-1, 1, (2, 5))
        out = []
        for preload in (False, True):
            t = param(np.linspace(-1.0, 1.0, 5))
            opt = SGD([("w", t)], OptimizerConfig(lr=0.1, momentum=0.9, weight_decay=1e-4))
            if preload:
                opt.load_state({"w": np.zeros(5)})
            for g in grads:
                t.grad = g.copy()
                opt.step()
            out.append((t.data.tobytes(), opt.velocity["w"].tobytes()))
        assert out[0] == out[1]

    def test_load_state_checks_every_parameter(self):
        a, b = param([1.0, 2.0]), param([3.0])
        opt = SGD([("a", a), ("b", b)], OptimizerConfig())
        with pytest.raises(ContractError, match="missing momentum buffer for b"):
            opt.load_state({"a": np.zeros(2)})
        with pytest.raises(ContractError, match="momentum buffer b has wrong shape"):
            opt.load_state({"a": np.zeros(2), "b": np.zeros(2)})
        assert opt.velocity == {}
        given = {"a": np.ones(2), "b": np.ones(1)}
        opt.load_state(given)
        assert opt.velocity.keys() == given.keys() and opt.velocity["a"] is not given["a"]


class TestConfig:
    def test_defaults_match_training_recipe(self):
        cfg = OptimizerConfig()
        assert cfg.lr == 0.05 and cfg.momentum == 0.9 and cfg.weight_decay == 1e-4
        assert cfg.batch_size == 24

    def test_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(lr=-0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(batch_size=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(lr_schedule="cosine")

    def test_poly_schedule(self):
        cfg = OptimizerConfig(lr=0.05, lr_schedule="poly", max_iterations=100)
        assert cfg.lr_at(0) == pytest.approx(0.05)
        assert cfg.lr_at(50) == pytest.approx(0.05 * 0.5**0.9)
        assert cfg.lr_at(99) < cfg.lr_at(50) < cfg.lr_at(0)

    def test_constant_schedule(self):
        cfg = OptimizerConfig(lr=0.05)
        assert cfg.lr_at(0) == cfg.lr_at(299) == 0.05
