"""Decomposition, analysis, and adjusted-gradient dynamics for n-player
differentiable games.

The package splits game dynamics into a potential-like symmetric part and a
rotational antisymmetric part, classifies games and fixed points from that
split, and provides adjusted update rules (symplectic adjustment, consensus,
their aligned variants, descent on the squared field) together with an exact
spectral oracle and a learning-rate sweep harness for quadratic games.
"""

from .games import (CATALOG, CatalogEntry, Game, PlayerPartition,
                    QuadraticGame, as_point, catalog_game, make_game,
                    quadratic_game_from_hessian)
from .derivatives import (fd_game, fd_gradient, full_hessian,
                          grad_hamiltonian, hvp, simultaneous_gradient,
                          sym_adjustment, thvp)
from .analysis import (GENERAL, HAMILTONIAN, INDEFINITE, POTENTIAL, STABLE,
                       UNSTABLE, Decomposition, FixedPointReport, GameClass,
                       NotAFixedPointError, alignment_sign, classify_game,
                       classify_fixed_point, helmholtz_split,
                       infinitesimal_alignment, stability_probe)
from .dynamics import (ALIGNED_CONSENSUS, CONSENSUS, CONVERGED, DIVERGED,
                       HAMILTONIAN_DESCENT, KINDS, LINEAR_KINDS, MAX_ITERS,
                       OMD, SGA, SGA_ALIGNED, SIMGD, AdjusterSpec,
                       SpectralPrediction, StopCriteria, Trajectory,
                       direction, iteration_matrix, run, spectral_oracle)
from .experiments import (PRESETS, RandomBall, SweepCell, SweepConfig,
                          analyze_point, config_from_json, preset_configs,
                          run_preset, serialize, sweep)

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "CatalogEntry", "Game", "PlayerPartition", "QuadraticGame",
    "as_point", "catalog_game", "make_game", "quadratic_game_from_hessian",
    "fd_game", "fd_gradient", "full_hessian", "grad_hamiltonian", "hvp",
    "simultaneous_gradient", "sym_adjustment", "thvp",
    "GENERAL", "HAMILTONIAN", "INDEFINITE", "POTENTIAL", "STABLE", "UNSTABLE",
    "Decomposition", "FixedPointReport", "GameClass", "NotAFixedPointError",
    "alignment_sign", "classify_game", "classify_fixed_point",
    "helmholtz_split", "infinitesimal_alignment", "stability_probe",
    "ALIGNED_CONSENSUS", "CONSENSUS", "CONVERGED", "DIVERGED",
    "HAMILTONIAN_DESCENT", "KINDS", "LINEAR_KINDS", "MAX_ITERS", "OMD", "SGA",
    "SGA_ALIGNED", "SIMGD", "AdjusterSpec", "SpectralPrediction",
    "StopCriteria", "Trajectory", "direction", "iteration_matrix", "run",
    "spectral_oracle",
    "PRESETS", "RandomBall", "SweepCell", "SweepConfig", "analyze_point",
    "config_from_json", "preset_configs", "run_preset", "serialize", "sweep",
]
