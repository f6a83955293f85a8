"""Explicit Rosenthal-type moment bounds for martingales in 2-smooth
Banach spaces, with Monte-Carlo and brute-force verification."""

from .bounds import (
    Pin94Config,
    best_bound,
    closed_form_2_3,
    closed_form_3_4,
    closed_form_min,
    corollary_bound,
    hilbert_2_4,
    pin94_bound,
    t3_bound,
    theorem_bound,
)
from .concentration import (
    LipschitzMomentData,
    find_bt,
    recentering_ratio,
    separately_lipschitz_bound,
    sum_norm_bound,
)
from .constants import (
    C_A,
    C_B,
    ConstantSet,
    c_j,
    c_tilde,
    compute_constants,
    optimize_lambdas,
)
from .core import (
    BoundReport,
    DomainError,
    MissingExponentError,
    MomentProfile,
    RosenthalError,
    SmoothnessConstant,
    ValidationError,
    VarianceEnvelope,
    moment_ratio,
    required_exponents,
)
from .gaussian import RatioCurvePoint, abs_moment_normal, ratio_curve
from .models import (
    DependentModel,
    HilbertModel,
    LpModel,
    MartingaleModel,
    RademacherModel,
    SimulationResult,
    TwoPointModel,
    UniformModel,
    builtin_models,
    make_model,
    simulate,
)
from .schedules import PQSchedule, default_schedule, pq_eval, validate_pq
from .subset_sums import (
    MinGroupedSumSpec,
    brute_force_min_grouped_sum,
    elementary_symmetric_suffix,
    min_grouped_sum,
)
from .verify import (
    VerificationReport,
    check_from_simulation,
    empirical_profile,
    estimate_and_check,
)
from .checks import (
    HilbertSpace,
    LpSpace,
    check_norm_power_increment,
    check_riemann_sum,
    check_two_smoothness,
    check_young,
)

__version__ = "0.1.0"
