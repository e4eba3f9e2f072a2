import importlib

import pytest

import cuspeps

# The names the package exports; each resolves lazily to its submodule.
PACKAGE_NAMES = (
    "CycloNumber", "root_of_unity",
    "ZERO", "AdditiveChar", "FieldSpec", "MultChar", "build_field", "is_regular_char",
    "subfield_embed",
    "ClassKey", "GLGroup", "Mat", "gl_group",
    "CuspidalRep", "contragredient", "gelfand_graev_mult", "inner_product", "list_cuspidals",
    "mirabolic_restriction_check",
    "bessel_value", "build_table", "contragredient_table", "hankel_check", "operator_L",
    "LevelZeroRep", "LFactorSpec", "OracleError", "RootOfUnity", "SMonomial", "TameTwist",
    "TransferData", "epsilon_pair", "epsilon_transfer", "gauss_pair_sum", "l_factor_pair",
    "pair_sum_vanishing", "twist_ratio_check", "whittaker_eval", "zeta_tilde_oracle",
)


@pytest.mark.parametrize("name", ["cyclo", "ffield", "glq", "cusp", "bessel", "epsilon", "transfer"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"cuspeps.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names():
    assert len(PACKAGE_NAMES) == 39
    assert sorted(cuspeps.__all__) == sorted(PACKAGE_NAMES)


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_resolves(name):
    value = getattr(cuspeps, name)
    namespace = {}
    exec(f"from cuspeps import {name}", namespace)
    assert namespace[name] is value
    assert name in dir(cuspeps)


def test_unknown_package_name():
    with pytest.raises(AttributeError):
        cuspeps.no_such_name
