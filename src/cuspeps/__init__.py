"""Exact computations for cuspidal representations of GL_r(F_q).

Finite fields in Zech-log form, exact cyclotomic arithmetic, cuspidal
characters with brute-force validation oracles, Bessel functions and their
operator model, epsilon factors of pairs of level-zero supercuspidal
representations with a zeta-integral cross-check, and their tame transfer.

The public names below are loaded on first access (PEP 562), so that
``import cuspeps`` and each CLI subcommand compile only the submodules they
use.
"""

import importlib

# public name -> submodule that defines it
_EXPORTS = {
    "CycloNumber": "cyclo",
    "root_of_unity": "cyclo",
    "ZERO": "ffield",
    "AdditiveChar": "ffield",
    "FieldSpec": "ffield",
    "MultChar": "ffield",
    "build_field": "ffield",
    "is_regular_char": "ffield",
    "subfield_embed": "ffield",
    "ClassKey": "glq",
    "GLGroup": "glq",
    "Mat": "glq",
    "gl_group": "glq",
    "CuspidalRep": "cusp",
    "contragredient": "cusp",
    "gelfand_graev_mult": "cusp",
    "inner_product": "cusp",
    "list_cuspidals": "cusp",
    "mirabolic_restriction_check": "cusp",
    "bessel_value": "bessel",
    "build_table": "bessel",
    "contragredient_table": "bessel",
    "hankel_check": "bessel",
    "operator_L": "bessel",
    "LevelZeroRep": "epsilon",
    "LFactorSpec": "epsilon",
    "OracleError": "epsilon",
    "TameTwist": "epsilon",
    "epsilon_pair": "epsilon",
    "gauss_pair_sum": "epsilon",
    "l_factor_pair": "epsilon",
    "pair_sum_vanishing": "epsilon",
    "twist_ratio_check": "epsilon",
    "whittaker_eval": "epsilon",
    "zeta_tilde_oracle": "epsilon",
    "RootOfUnity": "transfer",
    "SMonomial": "transfer",
    "TransferData": "transfer",
    "epsilon_transfer": "transfer",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
