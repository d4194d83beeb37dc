"""Energy-efficient power control on shared channels as a stochastic game.

Transmitters sharing one receiver pick power levels each block to maximize
bits delivered per Joule.  The package provides the one-shot game in
closed form (selfish equilibrium, equal-received-power profile, welfare
optimum), finite-state channel models, a seeded multi-stage engine with
grim-trigger enforcement of cooperative selection rules, and analysis of
the resulting equilibrium structure (punishment floors, feasible utility
regions, discount-factor bounds).
"""

__version__ = "0.1.0"

from .analysis import (
    DominanceReport,
    LambdaBound,
    PartitionResult,
    RegionResult,
    config_partition,
    dominance_report,
    expected_utilities_exact,
    feasible_region_2p,
    joint_state_table,
    lambda_max,
    minmax_levels,
)
from .channels import (
    ChannelModel,
    IIDJointLaw,
    IIDProductLaw,
    MarkovJointLaw,
    TruncatedRayleighSpec,
    TwoStateSpec,
    build_model,
    load_model,
    save_model,
    stationary_distribution,
)
from .efficiency import ExponentialEfficiency, beta_star, gamma_tilde
from .engine import (
    DeviationSpec,
    EngineConfig,
    RunResult,
    StageTrace,
    UtilityEstimate,
    discount_weights,
    discounted_utility,
    estimate_expected_utilities,
    estimate_expected_utility,
    run_game,
    trace_csv,
    truncation_bound,
)
from .errors import (
    CapError,
    ConfigError,
    InformationError,
    ModelError,
    PowerGameError,
    ReducibleLawError,
    SaturationError,
)
from .experiments import PRESETS, load_config, parse_config, preset, run_experiment
from .oneshot import (
    GameParams,
    best_response,
    nash_powers,
    operating_point_powers,
    sinr,
    social_optimum,
    utility,
    welfare,
)
from .strategies import (
    BEST_USERS,
    NASH,
    OPERATING_POINT,
    SOCIAL_OPTIMUM,
    TIME_SHARING,
    PunishmentState,
    SignalProfile,
    StrategyKind,
    compliant_profile,
    detect_deviation,
    select_best_users,
    select_by_threshold,
    stage_action,
    threshold,
)
