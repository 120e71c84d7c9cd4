"""Exact computations on the combinatorial moduli space of curves.

Ribbon graph enumeration, Kontsevich volume polynomials and psi-class
intersection numbers, verification of the combinatorial formula, and
limiting Weil-Petersson geometry over combinatorial cycles.
"""

__version__ = "0.1.0"

from .ribbon import RibbonGraph, enumerate_graphs, enumerate_trivalent
from .volumes import kontsevich_volume, lhs_laplace, psi_numbers
from .kformula import cell_density, kontsevich_form, verify_form_identities, verify_kcf
from .multicurve import Multicurve, edge_multicurve, intersection_matrix
from .wittencycle import CellChart, cell_volume_laplace, witten12_report

__all__ = [
    "RibbonGraph",
    "enumerate_graphs",
    "enumerate_trivalent",
    "kontsevich_volume",
    "lhs_laplace",
    "psi_numbers",
    "cell_density",
    "kontsevich_form",
    "verify_form_identities",
    "verify_kcf",
    "Multicurve",
    "edge_multicurve",
    "intersection_matrix",
    "CellChart",
    "cell_volume_laplace",
    "witten12_report",
]
