"""Exact-arithmetic toolkit for apolarity, Waring ranks, tensors and secants."""

from .apolarity import (ApolarProfile, CatalecticantMatrix, RankCertificate,
                        catalecticant, decompose_check, hilbert_function,
                        monomial_rank, perp_piece, quadratic_rank,
                        sylvester_rank)
from .linalg import QMatrix, mat_det, mat_kernel, mat_rank, solve_linear
from .poly import (HomogPoly, apolar_apply, monomial_basis, parse_poly,
                   power_linear, render_poly)
from .secant import (DimReport, Segre, Veronese, big_waring_g, defect_report,
                     expected_dim, terracini_dim_segre, terracini_dim_veronese)
from .tensor import (DenseTensor, flatten, gss_minor_test, matmul_tensor,
                     multilinear_rank, strassen_det_symbolic, strassen_matrix)

__version__ = "0.1.0"

__all__ = [
    "ApolarProfile", "CatalecticantMatrix", "DenseTensor", "DimReport",
    "HomogPoly", "QMatrix", "RankCertificate", "Segre", "Veronese",
    "apolar_apply", "big_waring_g", "catalecticant", "decompose_check",
    "defect_report", "expected_dim", "flatten", "gss_minor_test",
    "hilbert_function", "mat_det", "mat_kernel", "mat_rank", "matmul_tensor",
    "monomial_basis", "monomial_rank", "multilinear_rank", "parse_poly",
    "perp_piece", "power_linear", "quadratic_rank", "render_poly",
    "solve_linear", "strassen_det_symbolic", "strassen_matrix",
    "sylvester_rank", "terracini_dim_segre", "terracini_dim_veronese",
]
