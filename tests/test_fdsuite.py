import numpy as np
import pytest

from cswin_seg import fdsuite
from cswin_seg.losses import LossConfig
from cswin_seg.network import Model, tiny_config
from cswin_seg.tensor import Tape, Tensor
from cswin_seg.train import combined_loss


def _errors(results):
    return {r.name: r.max_err.hex() for r in results}


def _taped_ops(fn):
    with Tape() as tape:
        fn()
    return {entry[3] for entry in tape.entries}


def test_cases_are_independent(monkeypatch):
    # dropping one case and running the rest in reverse order must leave
    # every other case's inputs, and so its error, bitwise unchanged
    full = _errors(fdsuite.run_suite())
    names = list(fdsuite.CASES)
    dropped = names[0]
    monkeypatch.setattr(fdsuite, "CASES", {n: fdsuite.CASES[n] for n in reversed(names[1:])})
    part = _errors(fdsuite.run_suite())
    assert list(part) == list(reversed(names[1:]))
    assert part == {n: e for n, e in full.items() if n != dropped}


@pytest.mark.parametrize("overrides", [{}, {"lepe_enabled": True}, {"upsampler": "bilinear"}, {"upsampler": "transposed_conv"}])
def test_every_model_op_has_a_case(overrides):
    rng = np.random.default_rng(0)
    model = Model.create(tiny_config(**overrides), seed=0)
    image = Tensor(rng.uniform(0.0, 1.0, (64, 64, 3)).astype(np.float32))
    labels = rng.integers(0, 4, (64, 64))
    model_ops = _taped_ops(lambda: combined_loss(model.forward(image), labels, LossConfig()))

    checked = set()
    for build in fdsuite.CASES.values():
        checked |= _taped_ops(build(np.random.default_rng(0))[0])
    assert model_ops - checked == set()
