"""Clustering-coefficient statistics on heterogeneous random graphs.

Samples independent-edge graphs with pair probabilities n^(-alpha) w_ij,
computes the average clustering coefficient and the weighted triangle
sum, evaluates their exact finite-n variance components, and verifies
the limiting normal laws by Monte Carlo.
"""

from .model import (
    ConstantWeights,
    DenseWeights,
    ModelSpec,
    RankOneWeights,
    model_from_json,
    validate,
)
from .sampling import Graph, SeedSpec, read_edgelist, sample_graph, write_edgelist
from .stats import avg_clustering, triangle_profile, weighted_triangle_sum
from .theory import (
    TheoreticalMoments,
    a_coeff,
    clustering_constants,
    sigma_closed_forms,
    v_closed_form_rank_one,
    mean_cc_approx,
    mean_t_leading,
    sigma_components,
    theoretical_moments,
    triangle_constants,
    v_components,
)
from .oracle import OracleReport, enumerate_moments
from .experiments import (
    DecompositionReport,
    McRunResult,
    PhaseSweepResult,
    decomposition_check,
    emit_results,
    ks_distance,
    phase_sweep,
    run_mc,
)

__version__ = "0.1.0"
