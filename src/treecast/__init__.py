"""Noisy binary broadcast on regular trees with self-correction.

The package combines three engines over the same model — a root sign copied
down a regular tree through independent symmetric noise — plus the majority
self-correction schemes that can restore reconstruction above the plain
threshold:

* an exact engine on the per-level count chain (advantages, effective error
  rates, critical points, agreement conditionals);
* an exhaustive-likelihood engine for optimal root inference on small
  explicit trees;
* Monte Carlo kernels with deterministic, replicable random streams
  (bit-packed broadcast, correction schemes, cluster-percolation samplers),
  with estimators cross-validated against the exact engine.

The ``treecast`` CLI exposes the experiments; :mod:`treecast.verify` bundles
the acceptance gates into named suites.
"""

from .budget import BudgetError
from .channel import ChannelParams
from .correction import CorrectionScheme
from .estimators import (
    Z_99,
    mc_critical_bracket,
    mc_delta,
    mc_deltas,
    median_interval,
    wilson_interval,
)
from .exact import (
    block_error_rate,
    critical_point_k,
    delta_exact,
    effective_error_rate,
    fraction_error_rate,
    level_sum_agreement,
    minimal_rescuing_block_size,
    scheme_delta,
    t_statistic,
)
from .fk import anti_concentration_check, sample_size_ensembles, tail_probe_Rk
from .likelihood import ml_delta_exact, random_observation_pair
from .report import ReportRow, rows_to_csv, rows_to_json
from .rng import SeedSpec
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

# The names the CLI, the verification suites and scripts/ use; everything
# else is imported from its own module (tests/test_api.py keeps it so).
__all__ = [
    "BudgetError",
    "ChannelParams",
    "CorrectionScheme",
    "ReportRow",
    "SUITE_NAMES",
    "SeedSpec",
    "Z_99",
    "anti_concentration_check",
    "block_error_rate",
    "critical_point_k",
    "delta_exact",
    "effective_error_rate",
    "fraction_error_rate",
    "level_sum_agreement",
    "mc_critical_bracket",
    "mc_delta",
    "mc_deltas",
    "median_interval",
    "minimal_rescuing_block_size",
    "ml_delta_exact",
    "random_observation_pair",
    "rows_to_csv",
    "rows_to_json",
    "run_suite",
    "sample_size_ensembles",
    "scheme_delta",
    "t_statistic",
    "tail_probe_Rk",
    "wilson_interval",
]
