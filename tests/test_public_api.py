"""The public names of the package, pinned.

Adding or removing a name is a deliberate change to this set.  Every name
the benchmark imports (``perfbench/workloads.py``) must stay importable.
"""

import ast
import importlib
import types
from pathlib import Path

import hetclust

PUBLIC_NAMES = {
    # model
    "ConstantWeights",
    "DenseWeights",
    "ModelSpec",
    "RankOneWeights",
    "model_from_json",
    "validate",
    # sampling
    "Graph",
    "SeedSpec",
    "read_edgelist",
    "sample_graph",
    "write_edgelist",
    # stats
    "avg_clustering",
    "triangle_profile",
    "weighted_triangle_sum",
    # theory
    "TheoreticalMoments",
    "a_coeff",
    "clustering_constants",
    "mean_cc_approx",
    "mean_t_leading",
    "sigma_closed_forms",
    "sigma_components",
    "theoretical_moments",
    "triangle_constants",
    "v_closed_form_rank_one",
    "v_components",
    # oracle
    "OracleReport",
    "enumerate_moments",
    # experiments
    "DecompositionReport",
    "McRunResult",
    "PhaseSweepResult",
    "decomposition_check",
    "emit_results",
    "ks_distance",
    "phase_sweep",
    "run_mc",
}

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_public_names_are_pinned():
    names = {
        k
        for k, v in vars(hetclust).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_benchmark_imports_resolve():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hetclust")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        if module == "hetclust":
            assert name in PUBLIC_NAMES
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # model members the workloads read
    for attr in ("p", "is_homogeneous", "mu_matrix", "mu_pairs"):
        assert hasattr(hetclust.ModelSpec, attr)
