"""The public API, pinned by name: a rename or removal fails here first."""

import inspect

import numpy as np

import kopula as ko
from kopula import (
    cli,
    core,
    correlation,
    families,
    frame,
    oracles,
    phenomena,
    sampling,
    serialize,
)

PACKAGE_NAMES = [
    "CompositionError", "ConditioningError", "ConfigError", "ContextError",
    "DependencyError", "Epd1", "Epd1Report", "Epd2", "Epd2Report", "EventSetContext",
    "FrameParams", "FrechetInterval", "FullProbabilityReport", "HalfRareProjection",
    "InfeasibleParameterError", "InvalidDistributionError", "KopulaError", "KopulaFamily",
    "KovBounds", "MAX_EVENTS", "MONOTONE_ATOL", "MarginalSet", "OneFunctionReport",
    "PairParamFn", "ParameterRangeError", "PseudoDistribution", "SUM_ATOL", "SampleSpec",
    "UndefinedCorrelationError", "VALUE_ATOL", "build_from_config", "build_nset_epd",
    "classical_pair_param", "conditional_epd", "conditional_from_pseudo",
    "conjugated_2kopula", "constant_weight", "convex_combination", "convex_updown_2kopula",
    "covariance_pair", "dump_json", "epd1_from_epd2", "epd2_from_epd1", "epd_from_dict",
    "epd_from_kopula", "epd_rows_from_kopula", "epd_to_dict", "family_from_config",
    "frame_compose", "frame_split", "frechet_bounds", "frechet_lower_2", "frechet_upper_2",
    "full_probability_check", "grid_points", "half_rare_projection", "independent_kopula",
    "inserted_triple_kov_bounds", "kor2", "load_epd", "marginals", "mask_bits",
    "pair_context", "parametric_2kopula", "params_from_kor3", "phenomenon_marginals",
    "phenomenon_point", "pseudo_from_conditional", "pxy_from_kor2", "quadruplet_epd",
    "quarter_sum_2", "renumber_epd1", "sample_epd1", "sample_summary", "save_epd",
    "sine_diff_weight", "submasks", "triplet_epd", "validate_epd1", "validate_epd2",
    "verify_one_function", "write_epd_csv",
]

MODULE_ALL = {
    cli: ["GridSpec", "main", "run"],
    core: [
        "MAX_EVENTS", "SUM_ATOL", "VALUE_ATOL", "MONOTONE_ATOL", "KopulaError",
        "ContextError", "ParameterRangeError", "InvalidDistributionError",
        "InfeasibleParameterError", "ConditioningError", "CompositionError",
        "DependencyError", "UndefinedCorrelationError", "EventSetContext", "MarginalSet",
        "Epd1", "Epd2", "Epd1Report", "Epd2Report", "epd2_from_epd1", "epd1_from_epd2",
        "marginals", "covariance_pair", "validate_epd1", "validate_epd2", "submasks",
        "mask_bits",
    ],
    correlation: [
        "KovBounds", "kor2", "pxy_from_kor2", "inserted_triple_kov_bounds", "params_from_kor3",
    ],
    families: [
        "BaseFn", "PairFn", "WeightFn", "KopulaFamily", "OneFunctionReport",
        "epd_from_kopula", "epd_rows_from_kopula", "grid_points", "verify_one_function",
        "independent_kopula", "parametric_2kopula", "frechet_upper_2", "frechet_lower_2",
        "convex_combination", "convex_updown_2kopula", "conjugated_2kopula",
        "classical_pair_param", "PairParamFn", "constant_weight", "sine_diff_weight",
        "quarter_sum_2", "pair_context",
    ],
    frame: [
        "PseudoDistribution", "FrameParams", "FrechetInterval", "FullProbabilityReport",
        "conditional_epd", "pseudo_from_conditional", "conditional_from_pseudo",
        "frame_split", "frame_compose", "frechet_bounds", "triplet_epd", "quadruplet_epd",
        "build_nset_epd", "full_probability_check",
    ],
    oracles: [
        "naive_epd2_from_epd1", "naive_epd1_from_epd2", "naive_marginals", "naive_renumber",
        "product_epd1", "recursive_frame_epd1", "naive_interval_walk", "pointwise_grid",
        "reference_dump_json", "naive_epd_csv",
    ],
    phenomena: [
        "HalfRareProjection", "phenomenon_point", "phenomenon_marginals",
        "half_rare_projection", "renumber_epd1",
    ],
    sampling: ["SampleSpec", "sample_epd1", "sample_summary"],
    serialize: [
        "ConfigError", "epd_to_dict", "epd_from_dict", "save_epd", "load_epd",
        "write_epd_csv", "dump_json", "family_from_config", "build_from_config",
        "CLASSICAL_FAMILIES",
    ],
}


def test_package_names():
    public = [n for n in dir(ko) if not n.startswith("_") and not inspect.ismodule(getattr(ko, n))]
    assert sorted(public) == sorted(PACKAGE_NAMES)


def test_module_all_lists():
    for module, names in MODULE_ALL.items():
        assert module.__all__ == names, module.__name__
        assert all(hasattr(module, name) for name in names), module.__name__


def test_epd1_adopt_takes_the_array_it_is_given():
    ctx = ko.EventSetContext(2)
    values = ko.Epd1(ctx, [0.25] * 4).values.copy()
    d = ko.Epd1._adopt(ctx, values)
    assert type(d) is ko.Epd1 and d.context == ctx
    assert np.shares_memory(d.values, values) and not d.values.flags.writeable
