"""quantcomp: post-training quantization with channel-wise affine compensation.

The package quantizes small floating-point networks to low-bit integers,
fits a per-output-channel affine correction (gain + offset) in closed form
from a calibration set, and folds that correction losslessly (up to a bounded
offset-rounding term) into an integer-only inference engine.
"""

from .refnet import (
    LayerSpec,
    ModelBundle,
    TaskSpec,
    TrainError,
    ShapeError,
    BundleError,
    build_mlp,
    bundles_equal,
    layer_forward,
    load_bundle,
    make_dataset,
    model_forward,
    save_bundle,
    train_synthetic,
)
from .quant import (
    QuantParams,
    RangeEstimator,
    compute_affine_params,
    dequantize,
    quantize_uniform,
    quantize_weights_per_channel,
)
from .compensate import (
    ActivationPair,
    ChannelAffineParams,
    diagonal_energy,
    fit_channel_affine,
    fit_full_matrix,
    identity_compensation,
)
from .intengine import (
    FusedModel,
    InferenceTrace,
    IntActivationParams,
    encode_multiplier,
    fuse_layer,
    fused_runtime,
    run_int_model,
)
from .calibrate import (
    CalibrationConfig,
    calibrate_model,
    collect_pairs,
    fuse_model,
    quantize_model,
    sim_forward,
)
from .evalbench import (
    accuracy,
    ablate_beta_rounding,
    ablate_calibration_size,
    ablate_position,
    blob_task,
    model_size_report,
    spiral_task,
    square_task,
)

__version__ = "0.1.0"
