"""First- and second-order machinery on games.

The simultaneous gradient xi stacks each player's own-loss gradient.  Its
Jacobian, the game Hessian H, is reached only through Hessian-vector
products: ``hvp`` for H v, ``thvp`` for H' v.  Both use the game's analytic
Hessian when it has one, and central finite differences of the field
otherwise.  ``fd_game`` rebuilds a game without its Hessian, so every
product on it is a finite difference: the independent cross-check of an
analytic Hessian, and what a user-supplied game without second-order
information gets anyway.

No autodiff framework is involved; every built-in game is closed-form and
the finite differences are the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .games import Game, make_game

Array = np.ndarray

# The central-difference step is this times 1 + |w|_inf, which balances
# truncation and roundoff error.
_FD_STEP_SCALE = 1e-6


@dataclass(frozen=True)
class FieldEvaluation:
    """The simultaneous gradient at a point, with its squared norm.

    ``norm_sq / 2`` is the scalar the dynamics may or may not conserve;
    its gradient is ``thvp(game, w, xi)``.
    """

    w: Array
    xi: Array
    norm_sq: float


def simultaneous_gradient(game: Game, w) -> FieldEvaluation:
    """Stack the per-player gradients into the field xi(w).

    Non-finite entries are passed through; they signal overflow and are
    handled as divergence by the optimizer loop.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    xi = np.concatenate([game.player_gradient(i, w)
                         for i in range(game.num_players)])
    return FieldEvaluation(w=w, xi=xi, norm_sq=float(xi @ xi))


def fd_game(game: Game) -> Game:
    """The same losses and gradients without an analytic Hessian, so every
    Hessian product on the result is a central finite difference of the
    field: the oracle to check a game's analytic Hessian against."""
    n = game.num_players
    return make_game(game.partition,
                     [partial(game.loss, i) for i in range(n)],
                     [partial(game.player_gradient, i) for i in range(n)])


def _fd_step(w: Array) -> float:
    return _FD_STEP_SCALE * (1.0 + float(np.max(np.abs(w), initial=0.0)))


def fd_gradient(f, w) -> Array:
    """Central-difference gradient of a scalar function, the first-order
    oracle used to validate analytic gradients."""
    w = np.asarray(w, dtype=float).reshape(-1)
    h = _fd_step(w)
    out = np.empty_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        out[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return out


def hvp(game: Game, w, v) -> Array:
    """Hessian-vector product H(w) v.

    The finite-difference path normalizes v before stepping so the step size
    stays meaningful for tiny or huge v; a zero v returns zero directly.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w) @ v
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        return np.zeros_like(v)
    vhat = v / nrm
    h = _fd_step(w)
    xi_plus = simultaneous_gradient(game, w + h * vhat).xi
    xi_minus = simultaneous_gradient(game, w - h * vhat).xi
    return (xi_plus - xi_minus) * (nrm / (2.0 * h))


def thvp(game: Game, w, v) -> Array:
    """Transposed Hessian-vector product H(w)' v.

    The finite-difference path differentiates the scalar ``<xi(w), v>``
    coordinate by coordinate: 2d field evaluations in total.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w).T @ v
    if not np.any(v):
        return np.zeros_like(v)
    h = _fd_step(w)
    out = np.empty_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g_plus = float(simultaneous_gradient(game, w + e).xi @ v)
        g_minus = float(simultaneous_gradient(game, w - e).xi @ v)
        out[j] = (g_plus - g_minus) / (2.0 * h)
    return out


def sym_adjustment(game: Game, w) -> Array:
    """The antisymmetric-part product A' xi = (H' xi - H xi) / 2."""
    xi = simultaneous_gradient(game, w).xi
    return 0.5 * (thvp(game, w, xi) - hvp(game, w, xi))


def grad_hamiltonian(game: Game, w) -> Array:
    """Gradient of w -> |xi(w)|^2 / 2, which equals H' xi for any game."""
    xi = simultaneous_gradient(game, w).xi
    return thvp(game, w, xi)


def full_hessian(game: Game, w, cap: int = 512) -> Array:
    """The full d x d game Hessian.

    Uses the analytic Hessian directly when present; otherwise assembles
    column j as ``hvp(game, w, e_j)``, which is why the dimension is capped.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w)
    d = game.dim
    if d > cap:
        raise ValueError(f"dimension {d} exceeds the full-Hessian cap {cap}")
    cols = np.empty((d, d))
    eye = np.eye(d)
    for j in range(d):
        cols[:, j] = hvp(game, w, eye[:, j])
    return cols
