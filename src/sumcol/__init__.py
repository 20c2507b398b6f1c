"""Minimum sum coloring: exact-cost representations, tabu search engines,
a memetic optimizer, and a reproducible benchmark harness.

The package root holds the user API; everything else is imported from its
own module, e.g. ``from sumcol.tabu_search import tabu_search``.
"""

from .bench import run_instance, run_seed, welch_t_test
from .coloring import Coloring, is_proper, load_coloring, save_coloring
from .graph import Graph, load_dimacs
from .memetic import MemeticParams, memetic_search
from .tabu_search import TabuSearchParams
from .tabucol import TabucolParams

__version__ = "0.1.0"

__all__ = [
    "Coloring",
    "Graph",
    "MemeticParams",
    "TabuSearchParams",
    "TabucolParams",
    "__version__",
    "is_proper",
    "load_coloring",
    "load_dimacs",
    "memetic_search",
    "run_instance",
    "run_seed",
    "save_coloring",
    "welch_t_test",
]
