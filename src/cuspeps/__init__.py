"""Exact computations for cuspidal representations of GL_r(F_q).

Finite fields in Zech-log form, exact cyclotomic arithmetic, cuspidal
characters with brute-force validation oracles, Bessel functions and their
operator model, and epsilon factors of pairs of level-zero supercuspidal
representations with a zeta-integral cross-check.
"""

from .cyclo import CycloNumber, root_of_unity
from .ffield import (
    ZERO,
    AdditiveChar,
    FieldSpec,
    MultChar,
    build_field,
    is_regular_char,
    subfield_embed,
)
from .glq import ClassKey, GLGroup, Mat, gl_group
from .cusp import (
    CuspidalRep,
    contragredient,
    gelfand_graev_mult,
    inner_product,
    list_cuspidals,
    mirabolic_restriction_check,
)
from .bessel import (
    BesselTable,
    bessel_value,
    build_table,
    contragredient_table,
    hankel_check,
    operator_L,
)
from .epsilon import (
    LevelZeroRep,
    LFactorSpec,
    OracleError,
    RootOfUnity,
    SMonomial,
    TameTwist,
    TransferData,
    epsilon_pair,
    epsilon_transfer,
    gauss_pair_sum,
    l_factor_pair,
    pair_sum_vanishing,
    twist_ratio_check,
    whittaker_eval,
    zeta_tilde_oracle,
)

__version__ = "0.1.0"
