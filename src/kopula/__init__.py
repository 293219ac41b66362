"""Event-probability distributions over subset lattices.

Construct, transform, validate, and export the two equivalent tables
of a finite random event set: exact-pattern probabilities and joint
intersection probabilities.  Families of closed-form constructions,
the frame method, and correlation-coordinate parametrization live in
the submodules; everything user-facing is re-exported here.
"""

from .core import (
    MAX_EVENTS,
    SUM_ATOL,
    VALUE_ATOL,
    MONOTONE_ATOL,
    KopulaError,
    ContextError,
    ParameterRangeError,
    InvalidDistributionError,
    InfeasibleParameterError,
    ConditioningError,
    CompositionError,
    DependencyError,
    UndefinedCorrelationError,
    EventSetContext,
    MarginalSet,
    Epd1,
    Epd2,
    Epd1Report,
    Epd2Report,
    epd2_from_epd1,
    epd1_from_epd2,
    marginals,
    covariance_pair,
    validate_epd1,
    validate_epd2,
    submasks,
    mask_bits,
)
from .phenomena import (
    HalfRareProjection,
    phenomenon_point,
    phenomenon_marginals,
    half_rare_projection,
    renumber_epd1,
)
from .families import (
    KopulaFamily,
    OneFunctionReport,
    PairParamFn,
    epd_from_kopula,
    epd_rows_from_kopula,
    grid_points,
    verify_one_function,
    independent_kopula,
    parametric_2kopula,
    frechet_upper_2,
    frechet_lower_2,
    convex_combination,
    convex_updown_2kopula,
    conjugated_2kopula,
    classical_pair_param,
    constant_weight,
    sine_diff_weight,
    quarter_sum_2,
    pair_context,
)
from .frame import (
    PseudoDistribution,
    FrameParams,
    FrechetInterval,
    FullProbabilityReport,
    conditional_epd,
    pseudo_from_conditional,
    conditional_from_pseudo,
    frame_split,
    frame_compose,
    frechet_bounds,
    triplet_epd,
    quadruplet_epd,
    build_nset_epd,
    full_probability_check,
)
from .correlation import (
    KovBounds,
    kor2,
    pxy_from_kor2,
    inserted_triple_kov_bounds,
    params_from_kor3,
)
from .sampling import SampleSpec, sample_epd1, sample_summary
from .serialize import (
    ConfigError,
    epd_to_dict,
    epd_from_dict,
    save_epd,
    load_epd,
    write_epd_csv,
    dump_json,
    family_from_config,
    build_from_config,
)

__version__ = "0.1.0"
