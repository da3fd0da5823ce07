"""spinnet: shallow-network training as an interacting particle system.

The network f^(n)(x) = (1/n) sum_i c_i phihat(x, z_i) is trained on
spherical 3-spin targets by the exact descent flow, online SGD with batch
schedules, or low-temperature Langevin dynamics.  Everything is seeded
through named deterministic streams, so runs, grids and checkpoints resume
bit-for-bit.
"""
from .diagnostics import (
    Batch,
    ExperimentReport,
    batch_residual,
    draw_batch,
    empirical_loss,
    fit_scaling_slope,
    great_circle_slice,
    init_fluctuation_variance,
    rbf_exact_loss,
    read_report,
    signed_error_summary,
    tangent_kernel_gram,
    two_angle_slice,
)
from .dynamics import (
    DiagnosticPlan,
    InitSpec,
    TrainConfig,
    langevin_step,
    load_checkpoint,
    noise_amplitude,
    run_schedule,
    save_checkpoint,
    sgd_drift,
)
from .experiments import (
    ExperimentSpec,
    build_spec,
    config_hash,
    load_preset,
    merge_reports,
    run_experiment,
)
from .geometry import (
    retract_rows,
    sample_sphere_rows,
    tangent_project_rows,
)
from .rng import RngStream, stream, subseed
from .targets import (
    PlantedTarget,
    SpinTensor,
    evaluate_target,
    jordan_sample,
    target_grad_rows,
)
from .units import (
    ParticleEnsemble,
    RbfUnit,
    SigmoidUnit,
    network_eval_rows,
    unit_kernel_mc,
    weighted_kernel_gram,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "DiagnosticPlan",
    "ExperimentReport",
    "ExperimentSpec",
    "InitSpec",
    "ParticleEnsemble",
    "PlantedTarget",
    "RbfUnit",
    "RngStream",
    "SigmoidUnit",
    "SpinTensor",
    "TrainConfig",
    "batch_residual",
    "build_spec",
    "config_hash",
    "draw_batch",
    "empirical_loss",
    "evaluate_target",
    "fit_scaling_slope",
    "great_circle_slice",
    "init_fluctuation_variance",
    "jordan_sample",
    "langevin_step",
    "load_checkpoint",
    "load_preset",
    "merge_reports",
    "network_eval_rows",
    "noise_amplitude",
    "rbf_exact_loss",
    "read_report",
    "retract_rows",
    "run_experiment",
    "run_schedule",
    "sample_sphere_rows",
    "save_checkpoint",
    "sgd_drift",
    "signed_error_summary",
    "stream",
    "subseed",
    "tangent_kernel_gram",
    "tangent_project_rows",
    "target_grad_rows",
    "two_angle_slice",
    "unit_kernel_mc",
    "weighted_kernel_gram",
]
