"""statefx: small state-based neural networks for low-latency virtual-analog
audio effect modeling with parameter conditioning.

Five architectures (LSTM, encoder-decoder LSTM, LRU, S4D, S6) map the 64
most recent input samples to one output sample per step, trained with
truncated backpropagation through time on synthetic oracle-effect datasets
and compared with rank-based significance tests.
"""

__version__ = "0.1.0"

from .cells import sigmoid, softsign
from .data import (
    EFFECTS,
    OracleEffect,
    Recording,
    SplitComposition,
    apply_oracle,
    build_dataset,
    generate_input_signal,
    get_effect,
    load_dataset,
    load_wav,
    make_split_compositions,
    resolve_composition,
    save_dataset,
    save_wav,
)
from .errors import (
    CompatibilityError,
    DimensionError,
    FormatError,
    InputError,
    MetricUndefinedError,
    NumericError,
    StabilityError,
    StatefxError,
)
from .metrics import (
    MetricReport,
    compute_report,
    esr,
    mse,
    multires_stft_metric,
    nrmse,
    spectral_flux_metric,
    stft_mag,
)
from .model import (
    ARCHITECTURES,
    Checkpoint,
    FlopsBreakdown,
    Model,
    ModelConfig,
)
from .stats import TestResult, compare_models, friedman_test, wilcoxon_signed_rank
from .training import (
    AdamState,
    Stream,
    TrainConfig,
    TrainHistory,
    TrainSplit,
    adam_update,
    backward_segment,
    clip_grad_norm,
    evaluate_streams,
    finite_difference_audit,
    loss_mse,
    lr_at_epoch,
    train,
)
