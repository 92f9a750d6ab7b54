"""Exact computer algebra for twisted loop and toroidal Lie algebras.

Everything is computed over the rationals and cyclotomic fields; there is
no floating point anywhere in a decision path.
"""

from loomfold.cartan import Gcm
from loomfold.chevalley import chevalley, mu_extend_finite
from loomfold.exactnum import CycNum, cyc_root
from loomfold.folding import (
    DiagramAut,
    FoldData,
    TupleSets,
    fold_data,
    tuple_sets,
    tuple_sets_case_analysis,
    validate_aut,
)
from loomfold.polys import (
    LPoly,
    SerreFamily,
    check_P2,
    drinfeld_poly_closed,
    drinfeld_poly_omega,
    family_f,
    family_p,
    family_qlimit,
    locality_poly,
)
from loomfold.presentation import RelationReport, Verifier, suite_window
from loomfold.realize import Realization

__all__ = [
    "CycNum",
    "cyc_root",
    "Gcm",
    "chevalley",
    "mu_extend_finite",
    "DiagramAut",
    "FoldData",
    "TupleSets",
    "validate_aut",
    "fold_data",
    "tuple_sets",
    "tuple_sets_case_analysis",
    "LPoly",
    "SerreFamily",
    "locality_poly",
    "drinfeld_poly_omega",
    "drinfeld_poly_closed",
    "family_p",
    "family_qlimit",
    "family_f",
    "check_P2",
    "Realization",
    "Verifier",
    "RelationReport",
    "suite_window",
]
__version__ = "0.1.0"
