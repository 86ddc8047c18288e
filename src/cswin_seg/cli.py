"""Command-line surface.

Subcommands: synth (dataset generation), train, eval, predict, gradcheck
(finite-difference suite), count (parameters/FLOPs vs the reference
figures).  Every subcommand is a pure function of its flags plus seeds;
exit code 0 means success, 1 a domain error (bad config, bad file,
numeric failure), 2 a usage error.  A reader that closes stdout early
(``cswin-seg count | head -3``) is not an error: the command stops quietly
with 141, the status a shell reports for a writer that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import complexity
from .atomic import write_atomic
from .checkpoint import restore_model, save_checkpoint, snapshot
from .data import class_color, load_dataset, read_ppm, synth_generate, write_pgm, write_ppm
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
)
from .fdsuite import run_suite
from .losses import LossConfig
from .network import Model, NetworkConfig, default_config, tiny_config
from .optim import OptimizerConfig
from .train import check_sizes, evaluate_model, losses_to_csv, metrics_to_csv, predict_mask, train

_ERRORS = (ConfigError, ContractError, DataError, DimensionError, FormatError, NumericError, OSError)
_CLOSED_STDOUT = 128 + 13  # 128 + SIGPIPE, as a shell reports a writer that SIGPIPE ended


def resolve_config(spec: str) -> NetworkConfig:
    if spec == "default":
        return default_config()
    if spec == "tiny":
        return tiny_config()
    return NetworkConfig.load(spec)


def cmd_synth(args) -> int:
    manifest = synth_generate(
        args.out, n=args.n, size=args.size, num_classes=args.classes, seed=args.seed,
        val=args.val, test=args.test,
    )
    print(f"wrote {len(manifest['samples'])} samples ({args.size}x{args.size}, {args.classes} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    samples, manifest = load_dataset(args.data, "train")
    config = resolve_config(args.config)
    try:
        val_samples, _ = load_dataset(args.data, "val")
    except DataError:
        val_samples = None
    check_sizes(config, [*samples, *(val_samples or [])])  # before the class count: the more basic mismatch
    if config.num_classes != manifest["num_classes"]:
        raise ConfigError(f"config classes {config.num_classes} != dataset classes {manifest['num_classes']}")

    opt_cfg = OptimizerConfig(
        lr=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        batch_size=args.batch, max_iterations=args.iters, seed=args.seed,
        lr_schedule=args.lr_schedule,
    )
    loss_cfg = LossConfig(alpha=args.alpha, beta=args.beta)
    model = Model.create(config, seed=args.seed)

    every = max(1, args.iters // 10)

    def progress(it, loss):
        if it % every == 0 or it == args.iters - 1:
            print(f"iter {it:5d}  loss {loss:.4f}")

    optimizer, result = train(
        model, samples, opt_cfg, loss_cfg,
        augment_enabled=not args.no_augment,
        val_samples=val_samples, eval_interval=args.eval_interval,
        callback=progress,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "loss.csv", [losses_to_csv(result.losses).encode()])
    ckpt = snapshot(model, optimizer=optimizer, iteration=args.iters, rng_state=result.rng_state)
    save_checkpoint(out / "checkpoint.ckpt", ckpt)
    if result.metrics:
        write_atomic(out / "val_metrics.csv", [metrics_to_csv(result.metrics[-1][1]).encode()])
    print(f"final loss {result.losses[-1][1]:.4f}; checkpoint and curves in {out}")
    return 0


def cmd_eval(args) -> int:
    model, _ = restore_model(args.checkpoint)
    samples, manifest = load_dataset(args.data, args.split)
    report = evaluate_model(model, samples, manifest["num_classes"])
    print(report.table())
    if args.out:
        write_atomic(args.out, [metrics_to_csv(report).encode()])
        print(f"report written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model, _ = restore_model(args.checkpoint)
    image_u8 = read_ppm(args.image)
    image = image_u8.astype(np.float32) / 255.0
    mask = predict_mask(model, image).astype(np.uint8)
    write_pgm(args.out, mask)
    print(f"mask written to {args.out}")
    if args.overlay:
        overlay = image.copy()
        for c in range(1, model.config.num_classes):
            sel = mask == c
            overlay[sel] = 0.5 * overlay[sel] + 0.5 * class_color(c)
        write_ppm(args.overlay, overlay)
        print(f"overlay written to {args.overlay}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(full=args.full, tol=args.tol, seed=args.seed)
    failed = 0
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name:<32} max rel err {r.max_err:.3e}")
        failed += not r.ok
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 1 if failed else 0


def cmd_count(args) -> int:
    cfg = resolve_config(args.config)
    params = complexity.count_params(cfg)
    flops = complexity.count_flops(cfg)
    ok, p_ratio, f_ratio = complexity.within_reference(cfg)
    print(f"parameters: {params:>14,}  ({params / 1e6:.2f} M, x{p_ratio:.3f} of reference {complexity.REFERENCE_PARAMS / 1e6:.2f} M)")
    print(f"flops:      {flops:>14,}  ({flops / 1e9:.2f} G, x{f_ratio:.3f} of reference {complexity.REFERENCE_FLOPS / 1e9:.2f} G)")
    for name, value in sorted(complexity.params_breakdown(cfg).items()):
        print(f"  params/{name:<16} {value:>12,}")
    if args.strict and not ok:
        print(f"outside +-{complexity.CALIBRATION_TOLERANCE:.0%} calibration tolerance", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cswin-seg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic shape-segmentation dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--classes", type=int, default=4)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--val", type=int, default=0)
    s.add_argument("--test", type=int, default=0)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("train", help="train on a dataset and write checkpoint + curves")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--config", default="tiny", help="'default', 'tiny' or a JSON path")
    s.add_argument("--iters", type=int, default=300)
    s.add_argument("--batch", type=int, default=4)
    s.add_argument("--lr", type=float, default=0.05)
    s.add_argument("--momentum", type=float, default=0.9)
    s.add_argument("--weight-decay", type=float, default=1e-4)
    s.add_argument("--alpha", type=float, default=0.4)
    s.add_argument("--beta", type=float, default=0.6)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--lr-schedule", choices=("constant", "poly"), default="constant")
    s.add_argument("--no-augment", action="store_true")
    s.add_argument("--eval-interval", type=int, default=0)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    s.add_argument("--data", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--split", default="test")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("predict", help="segment one PPM image")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--image", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--overlay", default=None)
    s.set_defaults(fn=cmd_predict)

    s = sub.add_parser("gradcheck", help="finite-difference gradient suite (f64)")
    s.add_argument("--full", action="store_true", help="include the end-to-end tiny-network check")
    s.add_argument("--tol", type=float, default=1e-4)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("count", help="parameter / FLOP counts vs reference")
    s.add_argument("--config", default="default")
    s.add_argument("--strict", action="store_true", help="nonzero exit outside calibration tolerance")
    s.set_defaults(fn=cmd_count)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # as the Python docs' SIGPIPE note does: the flush at exit then
        # writes to devnull and raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _CLOSED_STDOUT
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
