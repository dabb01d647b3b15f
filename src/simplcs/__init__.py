"""Linear constraint systems over Z_d: solution groups, simplicial realizations,
cohomology classes, and contextuality certification.

Most entry points live in the submodules; a few common ones are re-exported
here for interactive use.
"""

from .groups import FinGroupJ, build_group, quotient_by_j
from .linsys import LinearSystem, k33_system, parse_lcs, write_lcs
from .presentations import (Presentation, enumerate_homs, solution_group,
                            solutions, todd_coxeter)
from .simplicial import TruncatedSSet, comm_nerve, k33_torus_fixture, nerve

__version__ = "0.1.0"

__all__ = [
    "FinGroupJ", "LinearSystem", "Presentation", "TruncatedSSet",
    "build_group", "comm_nerve", "enumerate_homs", "k33_system",
    "k33_torus_fixture", "nerve", "parse_lcs", "quotient_by_j",
    "solution_group", "solutions", "todd_coxeter", "write_lcs",
]
