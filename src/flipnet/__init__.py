"""Flip-point analysis of small feedforward classifiers.

Trains erf-activation networks on wavelet features and computes exact
points on their decision boundaries, together with path, region and
adversarial-attack analyses built on top of those boundary points.
"""

from .network import (
    Layer,
    Network,
    Evaluation,
    activation_erf,
    forward,
    forward_batch,
    vjp,
    grad_scalar_wrt_input,
    spectral_norm,
    lipschitz_bound,
    save_checkpoint,
    load_checkpoint,
)
from .features import (
    haar3d_forward,
    haar3d_inverse,
    qr_pivoted,
    select_coefficients,
    apply_selector,
    scatter_selector,
    reconstruct_from_subset,
    load_cifar_batch,
    save_selector,
    load_selector,
)
from .training import TrainConfig, TrainReport, cross_entropy, train, evaluate_accuracy
from .flips import (
    FlipResult,
    TaylorEstimate,
    ComparisonMetrics,
    SolveOptions,
    closest_flip,
    flip_along_direction,
    taylor_estimate,
    compare,
    check_legitimate_image,
)
from .paths import LineSegment, PathProfile, sample_line, count_crossings, profile_to_flip
from .regions import AdjacencyGraph, RegionReport, build_adjacency, connected_components, region_report
from .attacks import (
    AttackConfig,
    AttackResult,
    AdversarialComparison,
    constrained_loss_attack,
    compare_attack_vs_flip,
    flip_distance_histogram,
)

__version__ = "0.1.0"
