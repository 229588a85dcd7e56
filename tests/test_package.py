import sys

import wfalloc

MODULES = ("waterfill", "submodular", "lemmas", "allocation", "profiles", "experiments")


def test_package_exports_exactly_the_module_names():
    module_names = [name for mod in MODULES for name in sys.modules[f"wfalloc.{mod}"].__all__]
    assert len(set(module_names)) == len(module_names)
    assert sorted(wfalloc.__all__) == sorted(module_names)
    for mod in MODULES:
        module = sys.modules[f"wfalloc.{mod}"]
        for name in module.__all__:
            assert getattr(wfalloc, name) is getattr(module, name)


def test_package_waterfill_is_the_solver():
    assert wfalloc.waterfill is sys.modules["wfalloc.waterfill"].waterfill
