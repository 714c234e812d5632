"""Nonconforming finite element schemes for the planar biharmonic equation."""

from .mesh import (Mesh, MeshError, CellGeometry, EntityClassification,
                   generate_structured, refine_uniform, classify, cell_geometry)
from .quadrature import TriQuadRule, EdgeQuadRule, tri_rule, edge_rule
from .polynomials import BaryPoly, barycentric_moment
from .linalg import (SolverError, saddle_solve, infsup_constant,
                     kernel_dimension, matrix_rank)
from .elements import (ElementDef, DofFunctional, ShapeFunction,
                       element_catalog, eval_dof, dof_matrix, nodal_basis,
                       unisolvence_check)
from .spaces import (Space, FieldFunction, build_space, assemble_bilinear,
                     assemble_load, interpolate, interpolate_vector,
                     eval_field, error_norms, sample_field_csv)
from .stokes_complex import (WeakRotFreeBasis, B3Basis, CellwiseField,
                             ComplexError, weak_rotfree_basis, bubble_correct,
                             grad_inverse, b3_basis, b3_membership_violation,
                             exactness_report)
from .biharmonic import (ManufacturedProblem, SolveResult, RateTable,
                         manufactured, solve_cubic, solve_quartic,
                         solve_morley, galerkin_residual, convergence_study,
                         infsup_study)

__all__ = [
    "Mesh", "MeshError", "CellGeometry", "EntityClassification",
    "generate_structured", "refine_uniform", "classify", "cell_geometry",
    "TriQuadRule", "EdgeQuadRule", "tri_rule", "edge_rule",
    "BaryPoly", "barycentric_moment",
    "SolverError", "saddle_solve", "infsup_constant", "kernel_dimension",
    "matrix_rank",
    "ElementDef", "DofFunctional", "ShapeFunction", "element_catalog",
    "eval_dof", "dof_matrix", "nodal_basis", "unisolvence_check",
    "Space", "FieldFunction", "build_space", "assemble_bilinear",
    "assemble_load", "interpolate", "interpolate_vector", "eval_field",
    "error_norms", "sample_field_csv",
    "WeakRotFreeBasis", "B3Basis", "CellwiseField", "ComplexError",
    "weak_rotfree_basis", "bubble_correct", "grad_inverse", "b3_basis",
    "b3_membership_violation", "exactness_report",
    "ManufacturedProblem", "SolveResult", "RateTable", "manufactured",
    "solve_cubic", "solve_quartic", "solve_morley", "galerkin_residual",
    "convergence_study", "infsup_study",
]
