"""Exact-arithmetic toolkit for apolarity, Waring ranks, tensors and secants.

The names below are re-exported from their submodules, each of which is
imported on first use (PEP 562), so `import apolar` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "apolarity": ("ApolarProfile", "CatalecticantMatrix", "RankCertificate",
                  "catalecticant", "decompose_check", "hilbert_function",
                  "monomial_rank", "perp_piece", "quadratic_rank", "sylvester_rank"),
    "linalg": ("QMatrix", "mat_det", "mat_kernel", "mat_rank", "solve_linear"),
    "poly": ("HomogPoly", "apolar_apply", "monomial_basis", "parse_poly",
             "power_linear", "render_poly"),
    "secant": ("DimReport", "Segre", "Veronese", "big_waring_g", "defect_report",
               "expected_dim", "terracini_dim_segre", "terracini_dim_veronese"),
    "tensor": ("DenseTensor", "flatten", "gss_minor_test", "matmul_tensor",
               "multilinear_rank", "strassen_det_symbolic", "strassen_matrix"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
