"""Waterfilling power allocation, submodularity checks, and online greedy
basestation allocation experiments.

The package republishes every module's public names; each module's
``__all__`` is the one list of them. ``wfalloc.waterfill`` is the solver
function, which the star import binds over the submodule of that name.
"""

from . import allocation, experiments, lemmas, profiles, submodular
from . import waterfill as _waterfill
from .waterfill import *  # noqa: F401,F403
from .submodular import *  # noqa: F401,F403
from .lemmas import *  # noqa: F401,F403
from .allocation import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__all__ = [name for module in (_waterfill, submodular, lemmas, allocation, profiles, experiments)
           for name in module.__all__]
