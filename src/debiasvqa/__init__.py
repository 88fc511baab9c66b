"""Bias-aware loss reweighting for visual question answering.

A small numpy-only stack: a reverse-mode autodiff core, a two-branch
answer classifier whose question-only head measures language bias, loss
functions that down-weight samples the question alone already answers,
a synthetic changing-priors benchmark, and a training/evaluation harness
with a CLI.
"""
from .autodiff import (
    Parameter,
    Tensor,
    adam_step,
    grad_check,
    weighted_cross_entropy,
    zero_grad,
)
from .errors import ConfigError, DataFormatError, NumericalError, ShapeError
from .harness import (
    EpochStats,
    EvalReport,
    SweepRow,
    TrainConfig,
    emit_report,
    evaluate,
    kl_divergence,
    sweep_gamma,
    train,
)
from .model import (
    ModelConfig,
    VqaModelParams,
    encode_question,
    encode_visual,
    init_params,
    load_checkpoint,
    predict_qo,
    predict_vqa,
    save_checkpoint,
)
from .objectives import (
    VARIANT_GAMMAS,
    BatchLossRecord,
    LossVariant,
    alpha_from_qo,
    batch_objective,
    beta,
    build_prior_table,
    lpf_loss,
    qo_loss,
    total_loss,
)
from .synthbench import (
    BenchmarkConfig,
    PriorTable,
    Split,
    answer_block,
    bayes_qo_accuracy,
    bias_trap_accuracy,
    build_priors,
    cell_prototypes,
    generate_split,
    load_split,
    make_benchmark,
    nearest_prototype_accuracy,
    question_template,
    save_split,
)

__version__ = "0.1.0"
