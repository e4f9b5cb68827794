"""Respondent-driven sampling on known networks: simulation, design-weighted
prevalence estimators, and bootstrap uncertainty quantification."""

__version__ = "0.1.0"
DRAWS = 3  # revision of the random draws: bumped by every change of what is drawn at a fixed seed


def _tool_block() -> dict:
    """The ``tool`` block of every JSON artifact: name, version and draws revision."""
    return {"name": "rdsvar", "version": __version__, "draws": DRAWS}


from .errors import BudgetError, DataError, RdsVarError, UsageError
from .graph import (
    AttributeTable,
    FixedDegree,
    PopulationGraph,
    PowerLawDegree,
    component_sizes,
    generate_configuration_graph,
    largest_connected_component,
    load_attributes,
    load_edge_list,
    load_summary,
)
from .simulate import (
    RdsDesign,
    RecruitmentForest,
    read_forest_csv,
    simulate_rds,
    write_forest_csv,
)
from .estimators import PopulationTotals, WeightedSample, ipw_estimate, sample_mean, vh_estimate
from .bootstrap import (
    BootstrapConfig,
    BootstrapDistribution,
    bootstrap_distribution,
    bootstrap_distributions,
    bootstrap_variance,
    mc_bootstrap_moments,
    neighbourhood_resample,
    percentile_ci,
    tree_resample,
)
from .exact import ExactDistribution, check_moment_identity, enumerate_neighbourhood, enumerate_tree
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    run_full,
    true_proportion,
)
from .rng import generator, substream
from .synth import make_study_population, plant_attributes, synthetic_population
