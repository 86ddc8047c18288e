"""The benchmark's tracer (bench/spans.py) wraps package calls by name.  A
refactor that renames or bypasses one of them would leave traced benchmark
runs without that span, so run one traced tiny training step and one
evaluation here, at batch 1 and at batch 4, and check that every span the
benchmark reads is recorded."""

import importlib.util
from pathlib import Path

import numpy as np

from cswin_seg.data import generate_sample
from cswin_seg.losses import LossConfig
from cswin_seg.network import Model, tiny_config
from cswin_seg.optim import OptimizerConfig
from cswin_seg.train import evaluate_model, train

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(batch):
    """One traced tiny training step at this batch size and one evaluation;
    returns the tracer."""
    spans = load_spans()
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    samples = [generate_sample(rng, cfg.input_size, cfg.num_classes, f"s{i}") for i in range(max(2, batch))]
    model = Model.create(cfg, seed=0)
    tracer = spans.Tracer(cfg.embed_dim)
    tracer.install()
    try:
        train(model, samples, OptimizerConfig(lr=0.01, batch_size=batch, max_iterations=1), LossConfig())
        evaluate_model(model, samples[:1], cfg.num_classes)
    finally:
        tracer.uninstall()
    return spans, tracer


def _assert_every_span(spans, tracer):
    recorded = {s[0] for s in tracer.spans}
    expected = set(spans.MODEL_LAYERS) | {"loss", "backward", "optim.step", "data.augment", "metrics.eval"}
    assert not expected - recorded, f"spans never recorded: {sorted(expected - recorded)}"
    # every layer owns the tape entries it recorded
    owners = set(tracer.tape_stats["window"])
    assert set(spans.MODEL_LAYERS) | {"loss"} <= owners, sorted(set(spans.MODEL_LAYERS) - owners)


def test_traced_step_and_eval_record_every_span():
    _assert_every_span(*_traced(1))


def test_traced_batch_of_four_records_every_span():
    # the CLI's default batch: one forward, one loss and one backward span
    # for the step's four images, and one augment span per image
    spans, tracer = _traced(4)
    _assert_every_span(spans, tracer)
    names = [s[0] for s in tracer.spans]
    assert names.count("backward") == 1 and names.count("data.augment") == 4
    assert names.count("forward") == 2  # the step's, and the evaluation's one image
