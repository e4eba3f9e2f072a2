import importlib

import pytest


@pytest.mark.parametrize("name", ["cyclo", "ffield", "glq", "cusp", "bessel", "epsilon"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"cuspeps.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
