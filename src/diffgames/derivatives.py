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
length raises ValueError.  ``hvp`` and ``thvp`` check their vector v the
same way.  The field itself may overflow at a finite point, so the
callers that hand on a field they computed (the Euler loop and its
probe, ``stability_probe``, ``analyze_point``, and ``sym_adjustment``
and ``grad_hamiltonian`` here) take the unchecked ``_hvp`` and ``_thvp``.

No autodiff framework is involved; every built-in game is closed-form and
the finite differences are the oracle.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .games import Game, _as_vector, as_point, make_game

Array = np.ndarray

# The central-difference step is this times 1 + |w|_inf, which balances
# truncation and roundoff error.
_FD_STEP_SCALE = 1e-6

# The finite-difference full_hessian holds 2d x d entries; d is capped.
_FULL_HESSIAN_CAP = 512


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
    Raises ValueError for a w or v that ``as_point`` would reject.
    """
    return _hvp(game, as_point(game.partition, w),
                _as_vector(v, game.dim, "v"))


def _hvp(game: Game, w: Array, v: Array) -> Array:
    """``hvp`` at a checked point w, of an unchecked float vector v."""
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
    one dot product with v per point.  Raises ValueError for a w or v that
    ``as_point`` would reject.
    """
    return _thvp(game, as_point(game.partition, w),
                 _as_vector(v, game.dim, "v"))


def _thvp(game: Game, w: Array, v: Array) -> Array:
    """``thvp`` at a checked point w, of an unchecked float vector v."""
    if game.has_analytic_hessian:
        return game.analytic_hessian(w).T @ v
    if not np.any(v):
        return np.zeros_like(v)
    h = _fd_step(w)
    g = np.vecdot(_axis_field(game, w, h), v)
    return (g[:w.size] - g[w.size:]) / (2.0 * h)


def sym_adjustment(game: Game, w) -> Array:
    """The antisymmetric-part product A' xi = (H' xi - H xi) / 2."""
    w = as_point(game.partition, w)
    xi = simultaneous_gradient(game, w)
    return 0.5 * (_thvp(game, w, xi) - _hvp(game, w, xi))


def grad_hamiltonian(game: Game, w) -> Array:
    """Gradient of w -> |xi(w)|^2 / 2, which equals H' xi for any game."""
    w = as_point(game.partition, w)
    return _thvp(game, w, simultaneous_gradient(game, w))


def full_hessian(game: Game, w) -> Array:
    """The full d x d game Hessian.

    Uses the analytic Hessian directly when present; otherwise column j is
    the central difference along ``e_j``, what ``hvp(game, w, e_j)``
    computes, with the 2d points of all columns in one batch; a dimension
    above ``_FULL_HESSIAN_CAP`` raises ValueError there.
    """
    w = as_point(game.partition, w)
    if game.has_analytic_hessian:
        return game.analytic_hessian(w)
    d = game.dim
    if d > _FULL_HESSIAN_CAP:
        raise ValueError(f"dimension {d} exceeds the full-Hessian cap "
                         f"{_FULL_HESSIAN_CAP}")
    h = _fd_step(w)
    xi = _axis_field(game, w, h)
    return np.ascontiguousarray(((xi[:d] - xi[d:]) * (1.0 / (2.0 * h))).T)
