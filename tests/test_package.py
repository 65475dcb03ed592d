import types

import padic_serre


def test_all_exports_resolve_to_non_module_attributes():
    assert padic_serre.__all__
    for name in padic_serre.__all__:
        value = getattr(padic_serre, name)
        assert not isinstance(value, types.ModuleType), name

