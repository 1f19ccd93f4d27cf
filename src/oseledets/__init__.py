"""Lyapunov spectra, filtrations, and Oseledets splittings for operator cocycles.

Modules
-------
grassmann : subspace geometry (projections, gap metric, norm-adapted bases)
cocycle   : matrix cocycles over shift driving: exponents, filtration,
            splitting, and the quantitative diagnostics built on them
interval  : transfer operators of piecewise monotone expanding interval maps
sft       : weighted transfer operators on subshifts of finite type
harness   : configuration, experiment runners, result records, and the CLI
"""

import os

# Idle OpenBLAS workers otherwise spin ~0.1 s of a core after load and after
# every threaded call; a short timeout parks them (a caller's value wins).
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .grassmann import (
    Subspace,
    project_along,
    local_norm,
    conditioned_basis,
    gap,
)
from .cocycle import (
    DrivingSystem,
    Generator,
    OmegaWindow,
    SpectrumReport,
    compose,
    lyapunov_exponents,
    forward_filtration,
    oseledets_splitting,
    uniform_growth_check,
    backward_decay_check,
    uniqueness_diagnostic,
    noncommuting_base_demo,
)

__all__ = [
    "Subspace",
    "project_along",
    "local_norm",
    "conditioned_basis",
    "gap",
    "DrivingSystem",
    "Generator",
    "OmegaWindow",
    "SpectrumReport",
    "compose",
    "lyapunov_exponents",
    "forward_filtration",
    "oseledets_splitting",
    "uniform_growth_check",
    "backward_decay_check",
    "uniqueness_diagnostic",
    "noncommuting_base_demo",
]

__version__ = "0.1.0"
