"""Cross-shaped-window attention U-Net for image segmentation.

Built on a small numpy autodiff core so the whole pipeline (stripe
attention, content-aware upsampling, combined Dice/cross-entropy training,
metrics) is inspectable and verifiable end to end.
"""

from .attention import AttentionConfig, CSWinBlockParams, cswin_block
from .carafe import KernelPredictorParams, UpsampleConfig, carafe_upsample, predict_kernels, reassemble
from .checkpoint import Checkpoint, load_checkpoint, restore_model, save_checkpoint, snapshot
from .complexity import count_flops, count_params
from .data import SegmentationSample, generate_sample, load_dataset, synth_generate
from .losses import LossConfig, cross_entropy_loss, dice_loss
from .metrics import MetricsReport, dsc, evaluate_masks, hausdorff, se_sp_acc
from .network import Model, NetworkConfig, default_config, tiny_config
from .optim import SGD, OptimizerConfig
from .tensor import Tape, Tensor, backward
# train() is not re-exported: the name would shadow the cswin_seg.train module
from .train import augment, combined_loss, evaluate_model

__all__ = [
    "AttentionConfig",
    "CSWinBlockParams",
    "Checkpoint",
    "KernelPredictorParams",
    "LossConfig",
    "MetricsReport",
    "Model",
    "NetworkConfig",
    "OptimizerConfig",
    "SGD",
    "SegmentationSample",
    "Tape",
    "Tensor",
    "UpsampleConfig",
    "augment",
    "backward",
    "carafe_upsample",
    "combined_loss",
    "count_flops",
    "count_params",
    "cross_entropy_loss",
    "cswin_block",
    "default_config",
    "dice_loss",
    "dsc",
    "evaluate_masks",
    "evaluate_model",
    "generate_sample",
    "hausdorff",
    "load_checkpoint",
    "load_dataset",
    "predict_kernels",
    "reassemble",
    "restore_model",
    "save_checkpoint",
    "se_sp_acc",
    "snapshot",
    "synth_generate",
    "tiny_config",
]
__version__ = "0.1.0"
