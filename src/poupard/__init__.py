"""Exact enumeration and difference-equation calculus for increasing binary
trees, the Poupard triangle, and the bivariate eoc/pom count matrices."""

from .delta import (
    STRATEGIES,
    BuildStrategy,
    DeltaMatrix,
    Inconsistent,
    Unresolved,
    build_matrix,
    delta_matrices,
    eoc_pom_polynomial,
    matrix_properties_check,
    solve_constraints,
)
from .gf import (
    InsufficientMatrices,
    bivariate_closed_form_failures,
    boundary_relations_check,
    lambda1_closed_forms,
    lambda_lhs,
    lambda_rhs,
    omega_lhs,
    omega_rhs,
    reindex_lambda,
    reindex_omega,
)
from .scalars import RootTwoScalar
from .series import LinearForm, TriSeries, reciprocal, trig_series
from .triangle import Triangle, is_poupard_matrix, poupard_triangle, tangent_numbers
from .trees import (
    Tree,
    enumerate_trees,
    eoc,
    ha12_map,
    joint_distribution,
    minimal_chain,
    pom,
    tree_count,
)
from .verify import run_checks

__all__ = [
    "BuildStrategy",
    "DeltaMatrix",
    "Inconsistent",
    "InsufficientMatrices",
    "LinearForm",
    "RootTwoScalar",
    "STRATEGIES",
    "Tree",
    "TriSeries",
    "Triangle",
    "Unresolved",
    "bivariate_closed_form_failures",
    "boundary_relations_check",
    "build_matrix",
    "delta_matrices",
    "enumerate_trees",
    "eoc",
    "eoc_pom_polynomial",
    "ha12_map",
    "is_poupard_matrix",
    "joint_distribution",
    "lambda1_closed_forms",
    "lambda_lhs",
    "lambda_rhs",
    "matrix_properties_check",
    "minimal_chain",
    "omega_lhs",
    "omega_rhs",
    "pom",
    "poupard_triangle",
    "reciprocal",
    "reindex_lambda",
    "reindex_omega",
    "run_checks",
    "solve_constraints",
    "tangent_numbers",
    "tree_count",
    "trig_series",
]
