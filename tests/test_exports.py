import importlib
import pkgutil

import pytest

import fundsol


@pytest.mark.parametrize("module", [f"fundsol.{m.name}" for m in pkgutil.iter_modules(fundsol.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", ["fundsol", "fundsol.reference", "fundsol.special", "fundsol.errors"])
def test_no_second_reference_is_reachable(module):
    # the kernels and P_l^I(0) each have one reference, exact and in the
    # tests: the package holds no closed-form oracle, no error for a case
    # such an oracle lacks, and no second P_l^m(0)
    mod = importlib.import_module(module)
    names = ("laplace_closed", "kelvin_closed", "_finite_closed_form", "legendre_p_at_zero")
    assert [name for name in dir(mod) if name in names or "Oracle" in name] == []
