"""Numerical toolkit for matrix-weighted Lebesgue spaces on sampled grids.

Weights and A_p constants, weighted and variable-exponent norms, the
translation / dyadic-averaging / ball-averaging / maximal operators, and
constructive epsilon-net compactness certification.
"""

from .compactness import (
    Certificate,
    EpsilonNet,
    FunctionFamily,
    ModuliReport,
    NecessityReport,
    averaging_modulus,
    boundedness_modulus,
    build_net_average,
    build_net_dyadic,
    certify_net,
    moduli_report,
    necessity_check,
    tail_modulus,
    translation_curve,
    translation_modulus,
    twisted_curve,
    twisted_modulus,
)
from .errors import MwlpError
from .grids import Grid
from .matrix_core import mat_power, op_norm
from .operators import (
    BallScheme,
    DyadicScheme,
    ball_average,
    christ_goldberg_maximal,
    dyadic_average,
    symdiff_measure,
    translate,
)
from .spaces import (
    ExponentField,
    NormFamily,
    SampledVectorField,
    Space,
    john_ellipsoid,
    lp_rho_norm,
    lp_w_norm,
    luxemburg_norm,
    modular,
)
from .weight_fields import (
    CubeFamily,
    MatrixWeightField,
    MeasureDensity,
    ScalarWeightField,
    ap_constant,
    make_power_weight,
    scalar_ap_constant,
)

__version__ = "0.1.0"

__all__ = [
    "BallScheme",
    "Certificate",
    "CubeFamily",
    "DyadicScheme",
    "EpsilonNet",
    "ExponentField",
    "FunctionFamily",
    "Grid",
    "MatrixWeightField",
    "MeasureDensity",
    "ModuliReport",
    "MwlpError",
    "NecessityReport",
    "NormFamily",
    "SampledVectorField",
    "ScalarWeightField",
    "Space",
    "ap_constant",
    "averaging_modulus",
    "ball_average",
    "boundedness_modulus",
    "build_net_average",
    "build_net_dyadic",
    "certify_net",
    "christ_goldberg_maximal",
    "dyadic_average",
    "john_ellipsoid",
    "lp_rho_norm",
    "lp_w_norm",
    "luxemburg_norm",
    "make_power_weight",
    "mat_power",
    "modular",
    "moduli_report",
    "necessity_check",
    "op_norm",
    "scalar_ap_constant",
    "symdiff_measure",
    "tail_modulus",
    "translate",
    "translation_curve",
    "translation_modulus",
    "twisted_curve",
    "twisted_modulus",
]
