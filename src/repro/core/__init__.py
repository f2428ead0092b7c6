"""PCC Proteus — the paper's primary contribution.

The pieces of Fig 1's architecture:

* :mod:`~repro.core.monitor` — monitor-interval lifecycle;
* :mod:`~repro.core.metrics` — per-interval throughput/loss/RTT gradient/
  RTT deviation;
* :mod:`~repro.core.utility` — the utility library (Proteus-P/S/H,
  Vivace, Allegro);
* :mod:`~repro.core.noise_tolerance` — §5's tolerance mechanisms;
* :mod:`~repro.core.rate_control` — gradient-ascent controller with the
  majority rule;
* :mod:`~repro.core.rng` — the seeded, spawnable random stream;
* :mod:`~repro.core.threshold` — Proteus-H's cross-layer threshold
  policy for video.

The assembled sender (``ProteusSender``) lives in
:mod:`repro.protocols.proteus` with the other senders, so importing
``repro.core`` never pulls the protocols or sim layers in.
"""

from .metrics import (
    IntervalMetrics,
    compute_interval_metrics,
    linear_regression,
    regression_error,
    rtt_deviation,
    rtt_gradient,
)
from .monitor import MonitorInterval
from .noise_tolerance import (
    AckIntervalFilter,
    NoiseToleranceConfig,
    NoiseTolerancePipeline,
    TrendingTracker,
)
from .rate_control import RateControlConfig, RateController
from .rng import Rng, make_rng, spawn
from .threshold import DeadlineThresholdPolicy, VideoThresholdPolicy
from .utility import (
    AllegroUtility,
    HybridUtility,
    NoiseAwareScavengerUtility,
    PrimaryUtility,
    ScavengerUtility,
    UtilityFunction,
    VivaceUtility,
    make_utility,
)

__all__ = [
    "AckIntervalFilter",
    "DeadlineThresholdPolicy",
    "AllegroUtility",
    "HybridUtility",
    "IntervalMetrics",
    "MonitorInterval",
    "NoiseAwareScavengerUtility",
    "NoiseToleranceConfig",
    "NoiseTolerancePipeline",
    "PrimaryUtility",
    "RateControlConfig",
    "RateController",
    "ScavengerUtility",
    "TrendingTracker",
    "UtilityFunction",
    "VideoThresholdPolicy",
    "VivaceUtility",
    "Rng",
    "compute_interval_metrics",
    "linear_regression",
    "make_rng",
    "make_utility",
    "regression_error",
    "rtt_deviation",
    "rtt_gradient",
    "spawn",
]
