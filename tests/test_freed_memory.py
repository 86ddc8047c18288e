"""Freed memory stays in the process: on glibc, importing the package pins
the mmap and trim thresholds, so work that repeats reuses the pages the last
round freed instead of faulting fresh ones in.

Each check runs in a fresh interpreter: in a process that has already freed
large blocks, glibc's dynamic mmap threshold has risen and hides the default
behaviour these tests guard against.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cswin_seg import tensor
from cswin_seg.checkpoint import save_checkpoint, snapshot
from cswin_seg.network import Model, tiny_config

pytestmark = pytest.mark.skipif(not tensor._FREED_MEMORY_KEPT, reason="freed memory is kept only with glibc's mallopt")

_FAULTS = "resource.getrusage(resource.RUSAGE_SELF).ru_minflt"


def _fresh_process(body: str, *args: str) -> list[int]:
    """Run `body` in a new interpreter that imports the package; returns the
    integers it prints, one per line."""
    src = str(Path(tensor.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import resource, sys\nimport cswin_seg\n" + body
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return [int(line) for line in proc.stdout.split()]


def test_warm_taped_step_faults_few_pages():
    # with glibc's default thresholds the third step faults several hundred pages
    body = f"""
import numpy as np
from cswin_seg.losses import LossConfig
from cswin_seg.network import Model, tiny_config
from cswin_seg.tensor import Tape, Tensor, backward
from cswin_seg.train import combined_loss

model = Model.create(tiny_config(), seed=0)
rng = np.random.default_rng(0)
img = Tensor(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
labels = rng.integers(0, 4, (64, 64))
for _ in range(3):
    for _, t in model.named_parameters():
        t.zero_grad()
    before = {_FAULTS}
    with Tape() as tape:
        loss = combined_loss(model.forward(img), labels, LossConfig())[0]
    backward(loss, tape)
    print({_FAULTS} - before)
"""
    *_, third = _fresh_process(body)
    assert third < 200, f"{third} minor faults in the third taped tiny step"


def test_second_restore_reuses_freed_memory(tmp_path):
    # the first restore faults in the file's bytes and the arrays copied out
    # of them; the second reuses the memory the first one freed
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, snapshot(Model.create(tiny_config(), seed=0)))
    body = f"""
from cswin_seg.checkpoint import restore_model

for _ in range(2):
    before = {_FAULTS}
    restore_model(sys.argv[1])
    print({_FAULTS} - before)
"""
    first, second = _fresh_process(body, str(p))
    assert second < first / 4, f"restores faulted {first} then {second} pages"
