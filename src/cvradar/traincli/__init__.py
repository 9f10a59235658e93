"""Training loop, optimizer, metrics, checkpoints, benchmarks, and the CLI."""

from .adam import AdamState, OptimizerError, adam_step, init_adam_state
from .bench import (
    TrendReport,
    bench_branch_config,
    bench_radar_config,
    bench_train_config,
    benchmark_trend,
    build_overfit_benchmark,
    build_shift_benchmark,
    render_trend,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .checks import (
    CheckResult,
    check_attention,
    check_fusenet,
    check_layers,
    check_primitives,
    fft_check,
    run_grad_suites,
    toy_branch_config,
    toy_fusenet_instance,
)
from .config import (
    ConfigError,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    load_train_config,
    write_train_config,
)
from .metrics import (
    MetricsReport,
    evaluate_pairs,
    render_report,
    report_to_dict,
)
from .pipeline import SamplePair, load_pairs, preprocess_dataset, split_pairs
from .train import DivergenceError, TrainingError, epoch_batches, init_model, train

__all__ = [
    "AdamState",
    "OptimizerError",
    "adam_step",
    "init_adam_state",
    "TrendReport",
    "bench_branch_config",
    "bench_radar_config",
    "bench_train_config",
    "benchmark_trend",
    "build_overfit_benchmark",
    "build_shift_benchmark",
    "render_trend",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "CheckResult",
    "check_attention",
    "check_fusenet",
    "check_layers",
    "check_primitives",
    "fft_check",
    "run_grad_suites",
    "toy_branch_config",
    "toy_fusenet_instance",
    "ConfigError",
    "TrainConfig",
    "config_from_dict",
    "config_to_dict",
    "load_train_config",
    "write_train_config",
    "MetricsReport",
    "evaluate_pairs",
    "render_report",
    "report_to_dict",
    "SamplePair",
    "load_pairs",
    "preprocess_dataset",
    "split_pairs",
    "DivergenceError",
    "TrainingError",
    "epoch_batches",
    "init_model",
    "train",
]
