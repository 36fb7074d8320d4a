"""Exact generating-series calculus for Hilbert schemes of points,
symmetric products, and their characteristic classes."""

from .lpoly import (
    LPoly, VarSet, QQ, RING_L, RING_UV, RING_Y, HALF_ADMISSIBLE, NEGATIVE_ROOT,
    ExactDivisionError, ExponentLimitError, SubstitutionError, VariableMismatchError,
)
from .series import TSeries, IntegralityError, NonUnitError, OrderMismatchError
from .lambda_power import (
    EulerExponents, divisors, euler_exp, euler_log, mobius,
    power, pre_lambda, pre_lambda_polyring,
)
from .motives import (
    TwoRouteMismatchError, UnsupportedRangeError,
    alpha_closed_small, config_space_series, hilb_motive_series, kapranov_zeta,
    l_binomial, l_factorial, macmahon_series, map_series, proj_space_class,
    punctual_exponents, punctual_exponents_small, punctual_hilb_small, punctual_series,
    spec_chi, spec_chi_minus_y, spec_e,
    virtual_alpha, virtual_exponents, virtual_hilb_series,
    virtual_punctual_series,
)
from .hirzebruch import (
    HomologyModel, chern_class_of, chern_limit_check, point_model,
    product_model, proj_space_model, qy_series, qyhat_series,
)
from .pontrjagin import (
    PontElement, PontSeries, adams_h, aluffi_series, chern_class_series,
    config_class_series, d_push, exp_series, hilb_class_series, hom_exp_inv,
    hom_exponentiation, mt2_series, normalized_y1_limit, pont_degree,
    pont_exp, power_op, sym_prod_class_series, virtual_class_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
