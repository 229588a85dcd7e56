import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_only_waterfill_binds_the_subset_kernel():
    # lemmas and allocation reach the all-subsets kernel through _subset_tables
    assert hasattr(sys.modules["wfalloc.waterfill"], "_subset_rates")
    for mod in [mod for mod in MODULES if mod != "waterfill"] + ["cli"]:
        assert not hasattr(importlib.import_module(f"wfalloc.{mod}"), "_subset_rates"), mod


def test_pair_index_has_one_definition_in_submodular():
    # the exact optimum and the monotone check walk the same nested-pair index
    allocation, submodular = sys.modules["wfalloc.allocation"], sys.modules["wfalloc.submodular"]
    assert allocation._pair_index is submodular._pair_index
    assert submodular._pair_index.__module__ == "wfalloc.submodular"


def test_importing_the_cli_after_numpy_adds_no_statistics_fractions_or_decimal():
    # every CLI and benchmark set-up process pays for what wfalloc.cli imports
    # above numpy; statistics alone pulls in fractions and decimal
    src = str(Path(wfalloc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import wfalloc.cli\n"
            "heavy = {'statistics', 'fractions', 'decimal'} & (set(sys.modules) - before)\n"
            "assert not heavy, sorted(heavy)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
