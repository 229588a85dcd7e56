import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import wfalloc

MODULES = ("waterfill", "submodular", "lemmas", "allocation", "profiles", "experiments")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_exactly_the_module_names():
    module_names = [name for mod in MODULES for name in sys.modules[f"wfalloc.{mod}"].__all__]
    assert len(set(module_names)) == len(module_names)
    assert sorted(wfalloc.__all__) == sorted(module_names)
    for mod in MODULES:
        module = sys.modules[f"wfalloc.{mod}"]
        for name in module.__all__:
            assert getattr(wfalloc, name) is getattr(module, name)


def test_each_exported_function_and_class_is_defined_in_its_module():
    # a name moved to another module leaves no re-export behind in the old one
    for mod in MODULES:
        module = sys.modules[f"wfalloc.{mod}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (mod, name)


def test_readme_library_block_runs_and_its_comments_hold():
    block = README.read_text(encoding="utf-8").split("## Library at a glance\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    profile, sol, rate_of_subset = namespace["profile"], namespace["sol"], namespace["rate_of_subset"]
    assert sol.water_level == 3.0 and sol.powers == {0: 2.0, 1: 1.0}
    assert rate_of_subset(profile, {0}) == math.log(4.0)
    assert namespace["check_submodular_pairwise"](namespace["oracle"]) == []


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
