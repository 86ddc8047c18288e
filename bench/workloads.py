"""The workloads: train-64, train-224 and eval-224.

Each is closed loop with one caller.  Inputs are seeded synthetic shape
datasets from ``synth_generate``, written to disk and read back with
``load_dataset``; the eval checkpoint is a seeded, untrained model.  A run
is: inputs (untimed), set-up (timed, several times), one warm-up round,
the timed window of whole rounds, then the post phase and the output
checks (untimed).  Set-up repetitions after the first are spread over the
window, between rounds, so their median spans the host's speed drift the
way the window does; their time is not window time.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path

import numpy as np

from cswin_seg import checkpoint, complexity, errors
from cswin_seg.data import load_dataset, synth_generate
from cswin_seg.losses import LossConfig
from cswin_seg.metrics import evaluate_masks
from cswin_seg.network import Model, default_config, tiny_config
from cswin_seg.optim import SGD, OptimizerConfig

import checks
from spans import ACCOUNTED, MODEL_LAYERS, UNOWNED, Tracer

train_mod = import_module("cswin_seg.train")  # the package re-exports a function under this name

PACKAGE_ERRORS = (
    errors.ConfigError, errors.ContractError, errors.DataError,
    errors.DimensionError, errors.FormatError, errors.NumericError,
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    config: str  # "tiny" or "default"
    n_train: int
    n_val: int
    batch: int  # train minibatch
    iters: int  # train iterations per train() call, one round
    lr: float
    setup_reps: int


# Why each workload exists is written in BENCHMARK.json and the README.
WORKLOADS = {
    "train-64": Workload("train", "tiny", n_train=12, n_val=4, batch=4, iters=10, lr=0.05, setup_reps=16),
    # the CLI's lr 0.05 (and 0.01) reaches a non-finite loss within six
    # batch-1 steps of the default config
    "train-224": Workload("train", "default", n_train=3, n_val=1, batch=1, iters=2, lr=0.001, setup_reps=4),
    "eval-224": Workload("eval", "default", n_train=1, n_val=2, batch=1, iters=1, lr=0.001, setup_reps=4),
}

MOMENTUM, WEIGHT_DECAY = 0.9, 1e-4  # the CLI's training defaults
MiB = 1 << 20


def layer_macs(cfg) -> dict[str, int]:
    """Analytic MACs of one forward, per model layer, from complexity.py."""
    c = cfg.embed_dim
    res = cfg.stage_resolution
    macs = dict.fromkeys(MODEL_LAYERS, 0)
    macs["embed"] = complexity._conv_macs(7, cfg.in_channels, c, res(0))
    for i in range(4):
        block = complexity._block_macs(res(i), cfg.stage_dim(i), cfg.stripe_widths[i], cfg.mlp_ratio, cfg.lepe_enabled)
        macs[f"enc.s{i}"] = macs[f"dec.s{i}"] = cfg.depths[i] * block
    for i in range(3):
        macs["down"] += complexity._conv_macs(3, cfg.stage_dim(i), cfg.stage_dim(i + 1), res(i + 1))
        src = cfg.stage_dim(3 - i)
        conv, reass = complexity._upsampler_macs(src, 2, res(3 - i), cfg)
        macs["up.kernels"] += conv
        macs["up.reassemble"] += reass
        macs["halve"] += complexity._conv_macs(1, src, src // 2, res(2 - i))
        if cfg.skip_enabled(i):
            macs["skip_fuse"] += complexity._conv_macs(1, src, src // 2, res(2 - i))
    macs["head.kernels"], macs["head.reassemble"] = complexity._upsampler_macs(c, 4, res(0), cfg)
    macs["head.cls"] = complexity._conv_macs(1, c, cfg.num_classes, cfg.input_size)
    if cfg.upsampler != "carafe" or sum(macs.values()) != complexity.count_flops(cfg):
        raise AssertionError(f"per-layer MACs {sum(macs.values())} do not add up to count_flops {complexity.count_flops(cfg)}")
    return {name: n for name, n in macs.items() if n}


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.cfg = tiny_config() if wl.config == "tiny" else default_config()
        self.tracer = Tracer(self.cfg.embed_dim) if trace else None
        self.loss_cfg = LossConfig()
        self.setup_s: list[float] = []
        self.step_ms: list[float] = []
        self.losses: list[float] = []
        self.window = 0.0
        self.images = 0
        self.attempted = self.failed = 0
        self.rusage = [0.0, 0]  # kernel seconds, minor faults, over rounds
        self.errors: list[str] = []

    # -- set-up -----------------------------------------------------------------

    def prepare(self) -> None:
        wl, cfg = self.wl, self.cfg
        self.data = self.work / "data"
        synth_generate(self.data, wl.n_train + wl.n_val, cfg.input_size, cfg.num_classes, self.seed, val=wl.n_val)
        if wl.kind == "eval":
            self.ckpt_path = self.work / "model.ckpt"
            saved = checkpoint.snapshot(Model.create(cfg, seed=self.seed))
            checkpoint.save_checkpoint(self.ckpt_path, saved)
            self.saved = checks.digests(saved.params.items())

    def setup(self):
        """What a user waits for before the first step; returns (model, samples)."""
        if self.wl.kind == "eval":
            model, _ = checkpoint.restore_model(self.ckpt_path)
            samples, _ = load_dataset(self.data, "val")
        else:
            samples, _ = load_dataset(self.data, "train")
            model = Model.create(self.cfg, seed=self.seed)
            SGD(model.named_parameters(), self.opt_cfg(0))
        return model, samples

    def timed_setup(self):
        t0 = time.perf_counter()
        state = self.setup()
        self.setup_s.append(time.perf_counter() - t0)
        return state

    def opt_cfg(self, round_no: int, iters: int | None = None) -> OptimizerConfig:
        return OptimizerConfig(
            lr=self.wl.lr, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY, batch_size=self.wl.batch,
            max_iterations=iters or self.wl.iters, seed=self.seed * 1000 + round_no,
        )

    # -- rounds -----------------------------------------------------------------

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def train_round(self, round_no: int, iters: int | None = None, samples=None):
        marks = [time.perf_counter()]

        def on_step(_it, loss):
            marks.append(time.perf_counter())
            self.losses.append(loss)

        self.optimizer, _ = self._call(
            "round", train_mod.train, self.model, samples or self.samples, self.opt_cfg(round_no, iters), self.loss_cfg,
            callback=on_step,
        )
        return [b - a for a, b in zip(marks, marks[1:])]

    def round(self, round_no: int) -> tuple[list[float], int]:
        """One whole round; returns (seconds of each step, images)."""
        if self.wl.kind == "train":
            steps = self.train_round(round_no)
            return steps, len(steps) * self.wl.batch
        t0 = time.perf_counter()
        self.report = self._call("round", train_mod.evaluate_model, self.model, self.samples, self.cfg.num_classes)
        n = len(self.samples)
        return [(time.perf_counter() - t0) / n] * n, n

    def measure(self) -> None:
        wl, seconds = self.wl, self.seconds
        round_no = 0
        while self.window < seconds:
            while len(self.setup_s) < wl.setup_reps and self.window >= len(self.setup_s) * seconds / wl.setup_reps:
                self.timed_setup()
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            ops = wl.iters if wl.kind == "train" else len(self.samples)
            try:
                steps, images = self.round(round_no)
            except PACKAGE_ERRORS as e:
                print(f"round {round_no} failed: {type(e).__name__}: {e}", file=sys.stderr)
                steps, images = [], 0
                self.failed += ops
            self.window += time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            self.rusage[0] += r1.ru_stime - r0.ru_stime
            self.rusage[1] += r1.ru_minflt - r0.ru_minflt
            self.attempted += ops
            self.step_ms.extend(s * 1e3 for s in steps)
            self.images += images
            round_no += 1
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- the whole run ------------------------------------------------------------

    def run(self) -> dict:
        self.prepare()
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        evaluate_masks = train_mod.evaluate_masks

        def keep_pairs(pairs, num_classes):
            self.pairs = pairs  # the predictions the last evaluation scored, for check()
            return evaluate_masks(pairs, num_classes)

        train_mod.evaluate_masks = keep_pairs
        try:
            if tracer is not None:
                tracer.phase = "setup"
            self.model, self.samples = self.timed_setup()
            if self.wl.kind == "eval":
                self.errors += checks.check_bitwise(self.saved, checks.digests(self.model.named_parameters()), "restored checkpoint")
                train_mod.evaluate_model(self.model, self.samples[:1], self.cfg.num_classes)
            else:
                self.train_round(-1, iters=1)
            if tracer is not None:
                tracer.phase = "window"
            self.measure()
            if tracer is not None:
                tracer.phase = "post"
            self.post()
        finally:
            train_mod.evaluate_masks = evaluate_masks
            if tracer is not None:
                tracer.uninstall()
        self.check()
        return self.result()

    def post(self) -> None:
        """Checkpoint write and read, and (train) evaluation of the restored model."""
        if self.wl.kind == "eval":
            if self.tracer is None:
                return
            # the tape, loss, optimizer and augmentation layers of a model that
            # only runs inference, measured on one train step after the window
            checkpoint.save_checkpoint(self.work / "copy.ckpt", checkpoint.snapshot(self.model))
            self.train_round(-2, iters=1, samples=load_dataset(self.data, "train")[0])
            return
        self.saved_ckpt = checkpoint.snapshot(self.model, self.optimizer, iteration=len(self.losses))
        path = self.work / "trained.ckpt"
        checkpoint.save_checkpoint(path, self.saved_ckpt)
        self.restored, self.restored_ckpt = checkpoint.restore_model(path)
        self.val, _ = load_dataset(self.data, "val")
        self.report = train_mod.evaluate_model(self.restored, self.val, self.cfg.num_classes)

    def check(self) -> None:
        errs = self.errors
        if not all(np.isfinite(self.losses)):
            errs.append(f"non-finite training loss among {len(self.losses)}")
        errs += checks.check_report(self.pairs, self.cfg.num_classes, self.report)
        shifted = checks.shifted_pairs(m for _, m in self.pairs)
        errs += checks.check_report(shifted, self.cfg.num_classes, evaluate_masks(shifted, self.cfg.num_classes))
        if self.wl.kind == "eval":
            return
        errs += checks.check_bitwise(
            checks.digests(self.saved_ckpt.params.items()), checks.digests(self.restored.named_parameters()), "restored parameters"
        )
        errs += checks.check_bitwise(
            checks.digests(self.saved_ckpt.momenta.items()), checks.digests(self.restored_ckpt.momenta.items()), "restored momenta"
        )
        errs += checks.check_loss(self.restored, self.val[0], self.loss_cfg)
        if self.wl.config == "tiny":
            errs += checks.check_taped(self.restored, self.val[0])
            errs += checks.check_gradient(self.restored, self.val[0], self.loss_cfg, self.seed)
            early, late = self.losses[:10], self.losses[-10:]
            if len(self.losses) >= 20 and not np.mean(late) < np.mean(early):
                errs.append(f"late losses (mean {np.mean(late):.4f}) not below early ones ({np.mean(early):.4f})")

    # -- results ------------------------------------------------------------------

    def result(self) -> dict:
        if self.tracer is None:
            metrics = {
                "setup_s": (statistics.median(self.setup_s), "s"),
                "images_per_s": (self.images / self.window, "1/s"),
                "step_ms.p50": (statistics.median(self.step_ms), "ms"),
                "peak_rss_mib": (self.peak_rss_mib, "MiB"),
            }
        else:
            metrics = self.layer_metrics()
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def layer_metrics(self) -> dict:
        tr = self.tracer
        self_t = tr.self_times()
        dur: dict = {}  # (phase, name) -> [total seconds, self seconds, calls]
        for s, st in zip(tr.spans, self_t):
            d = dur.setdefault((s[4], s[0]), [0.0, 0.0, 0])
            d[0] += s[2] - s[1]
            d[1] += st
            d[2] += 1

        def pick(name):
            """The phase that has spans of name: the window when it does, else post."""
            for phase in ("window", "post"):
                if (phase, name) in dur:
                    return phase, dur[(phase, name)]
            raise AssertionError(f"no {name} span recorded")

        def per_image(phase):
            return dur[(phase, "forward")][2]

        def tape(name):
            for phase in ("window", "post"):
                stats = tr.tape_stats.get(phase, {})
                if name in stats:
                    return stats[name], per_image(phase)
            raise AssertionError(f"no tape entries recorded for {name}")

        out = {}
        macs = layer_macs(self.cfg)
        for layer in MODEL_LAYERS:
            phase, (total, _, _) = pick(layer)
            fwd = total * 1e3 / per_image(phase)
            (bwd, ops, nbytes), n = tape(layer)
            out[f"{layer}.fwd_ms"] = (fwd, "ms")
            out[f"{layer}.bwd_ms"] = (bwd * 1e3 / n, "ms")
            out[f"{layer}.act_mib"] = (nbytes / MiB / n, "MiB")
            out[f"{layer}.ops"] = (ops / n, "count")
            out[f"{layer}.gmac_s"] = (macs[layer] / fwd / 1e6, "GMAC/s")
        phase, (total, _, _) = pick("loss")
        out["loss.fwd_ms"] = (total * 1e3 / per_image(phase), "ms")
        (bwd, _, _), n = tape("loss")
        out["loss.bwd_ms"] = (bwd * 1e3 / n, "ms")
        _, (total, _, calls) = pick("optim.step")
        out["optim.step_ms"] = (total * 1e3 / calls, "ms")
        phase, (total, _, _) = pick("data.augment")
        out["data.augment_ms"] = (total * 1e3 / per_image(phase), "ms")
        for name in ("checkpoint.load", "checkpoint.save"):
            spans = [s[2] - s[1] for s in tr.spans if s[0] == name]
            out[f"{name}_ms"] = (statistics.median(spans) * 1e3, "ms")
        phase, (total, _, calls) = pick("metrics.eval")
        out["metrics.eval_ms"] = (total * 1e3 / per_image(phase), "ms")
        for name in ("forward", "backward"):
            phase, (total, _, _) = pick(name)
            out[f"{name}.ms"] = (total * 1e3 / per_image(phase), "ms")
        for phase in ("window", "post"):
            stats = tr.tape_stats.get(phase)
            if stats:
                out["tape.entries"] = (sum(s[1] for s in stats.values()) / per_image(phase), "count")
                break
        out["process.sys_ms"] = (self.rusage[0] * 1e3 / self.images, "ms")
        out["process.minflt"] = (self.rusage[1] / self.images, "count")
        # how much of the traced window the named layers' self times cover
        rounds = dur[("window", "round")][0]
        covered = sum(v[1] for (ph, name), v in dur.items() if ph == "window" and name in ACCOUNTED)
        covered += sum(s[0] for name, s in tr.tape_stats.get("window", {}).items() if name != UNOWNED)
        out["trace.images_per_s"] = (self.images / self.window, "1/s")
        out["trace.unaccounted_pct"] = (100.0 * (rounds - covered) / rounds, "%")
        return out


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        r = Run(WORKLOADS[name], seed, seconds, trace, work)
        result = r.run()
        if r.tracer is not None:
            r.tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        for e in r.errors:
            print(f"check failed: {e}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
