"""First- and second-order machinery on games.

The simultaneous gradient xi stacks each player's own-loss gradient.  Its
Jacobian, the game Hessian H, is reached only through Hessian-vector
products: ``hvp`` for H v, ``thvp`` for H' v.  Both use the game's analytic
Hessian when it has one, and central finite differences of the field
otherwise.  ``fd_game`` rebuilds a game without its Hessian, so every
product on it is a finite difference: the independent cross-check of an
analytic Hessian, and what a user-supplied game without second-order
information gets anyway.

Each finite-difference product evaluates all of its perturbed points in one
``Game.batch_field`` call: ``hvp`` the two points ``w +- h v/|v|``,
``thvp`` and ``full_hessian`` the 2d points ``w +- h e_j``.

Every function here that takes a point of a game checks it with
``as_point``, as ``run`` does: a point that is non-finite or of the wrong
length raises ValueError.  The vector v of a product is not a point; it
may be non-finite.

No autodiff framework is involved; every built-in game is closed-form and
the finite differences are the oracle.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .games import Game, as_point, make_game

Array = np.ndarray

# The central-difference step is this times 1 + |w|_inf, which balances
# truncation and roundoff error.
_FD_STEP_SCALE = 1e-6


def simultaneous_gradient(game: Game, w) -> Array:
    """Stack the per-player gradients into the field xi(w).

    Half its squared norm is the Hamiltonian the dynamics may or may not
    conserve; its gradient is ``grad_hamiltonian``.  A field that overflows
    at a finite point comes back non-finite, as the optimizer loop sees it.
    """
    return game.batch_field(as_point(game.partition, w).reshape(1, -1))[0]


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


def _axis_field(game: Game, w: Array, h: float) -> Array:
    """The field at ``w + h e_j`` (row j) and at ``w - h e_j`` (row d + j)
    for every coordinate j, in one batch of 2d points."""
    steps = h * np.eye(w.size)
    return game.batch_field(w + np.concatenate((steps, -steps)))


def hvp(game: Game, w, v) -> Array:
    """Hessian-vector product H(w) v.

    The finite-difference path normalizes v before stepping so the step size
    stays meaningful for tiny or huge v; a zero v returns zero directly.  It
    evaluates the field at its two points ``w +- h v/|v|`` in one batch.
    """
    w = as_point(game.partition, w)
    v = np.asarray(v, dtype=float).reshape(-1)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w) @ v
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        return np.zeros_like(v)
    h = _fd_step(w)
    step = h * (v / nrm)
    xi = game.batch_field(np.stack((w + step, w - step)))
    return (xi[0] - xi[1]) * (nrm / (2.0 * h))


def thvp(game: Game, w, v) -> Array:
    """Transposed Hessian-vector product H(w)' v.

    The finite-difference path differentiates the scalar ``<xi(w), v>``
    along every coordinate axis: one batch of 2d field evaluations, then
    one dot product with v per point.
    """
    w = as_point(game.partition, w)
    v = np.asarray(v, dtype=float).reshape(-1)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w).T @ v
    if not np.any(v):
        return np.zeros_like(v)
    h = _fd_step(w)
    g = np.vecdot(_axis_field(game, w, h), v)
    return (g[:w.size] - g[w.size:]) / (2.0 * h)


def sym_adjustment(game: Game, w) -> Array:
    """The antisymmetric-part product A' xi = (H' xi - H xi) / 2."""
    xi = simultaneous_gradient(game, w)
    return 0.5 * (thvp(game, w, xi) - hvp(game, w, xi))


def grad_hamiltonian(game: Game, w) -> Array:
    """Gradient of w -> |xi(w)|^2 / 2, which equals H' xi for any game."""
    xi = simultaneous_gradient(game, w)
    return thvp(game, w, xi)


def full_hessian(game: Game, w, cap: int = 512) -> Array:
    """The full d x d game Hessian.

    Uses the analytic Hessian directly when present; otherwise column j is
    the central difference along ``e_j``, what ``hvp(game, w, e_j)``
    computes, with the 2d points of all columns in one batch.  The batch
    holds 2d x d entries, which is why the dimension is capped.
    """
    w = as_point(game.partition, w)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w)
    d = game.dim
    if d > cap:
        raise ValueError(f"dimension {d} exceeds the full-Hessian cap {cap}")
    h = _fd_step(w)
    xi = _axis_field(game, w, h)
    return np.ascontiguousarray(((xi[:d] - xi[d:]) * (1.0 / (2.0 * h))).T)
