"""Shared helpers for the test suite: scale-aware error measures and
random-instance generators used by the property tests."""

from functools import partial

import numpy as np

import diffgames as dg

# Catalog ids with their default parameters; every one is quadratic.
CATALOG_DEFAULTS = [
    ("example1", {}),
    ("example2", {}),
    ("example3", {}),
    ("example4", {}),
    ("example5", {}),
    ("example6", {}),
    ("example7", {}),
    ("fig3_weak_attractor", {}),
    ("fig4_bilinear", {}),
    ("fig7_four_player", {}),
]

POTENTIAL_GAMES = ["example4", "example5", "example7"]
HAMILTONIAN_GAMES = ["example1", "example3"]


def rel_err(actual, expected):
    """Error relative to the larger of 1 and the reference norm, so a zero
    reference degrades to an absolute comparison instead of dividing by 0."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.linalg.norm(actual - expected)
                 / max(1.0, np.linalg.norm(expected)))


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng, d, eig_low, eig_high):
    """Symmetric matrix with eigenvalues drawn uniformly in a range."""
    q = random_orthogonal(rng, d)
    eigs = rng.uniform(eig_low, eig_high, size=d)
    return (q * eigs) @ q.T


def random_antisymmetric(rng, d):
    m = rng.standard_normal((d, d))
    return 0.5 * (m - m.T)


def random_block_antisymmetric(rng, partition):
    """Antisymmetric matrix with zero diagonal blocks: the shape every
    realizable game Hessian's antisymmetric part takes."""
    a = random_antisymmetric(rng, partition.total)
    for i in range(partition.num_players):
        blk = partition.block(i)
        a[blk, blk] = 0.0
    return a


def random_realizable_game(rng, partition, eig_low, eig_high, offset=None):
    """Quadratic game with symmetric part drawn in a spectral range and a
    random rotational part (zero on the diagonal blocks); ``offset`` is the
    constant part of the field (zero when omitted)."""
    d = partition.total
    sym = random_symmetric(rng, d, eig_low, eig_high)
    anti = random_block_antisymmetric(rng, partition)
    return dg.quadratic_game_from_hessian(partition, sym + anti, offset)


def plain_game(game):
    """The game rebuilt with ``make_game`` from its own public callables: a
    plain ``Game`` with no fused or batched override, so every evaluation
    takes the per-player, row-by-row path."""
    n = game.num_players
    return dg.make_game(game.partition,
                        [partial(game.loss, i) for i in range(n)],
                        [partial(game.player_gradient, i) for i in range(n)],
                        game.analytic_hessian)


def fd_cos2_derivative(u, v, w, h=1e-6):
    """Centered finite difference of lambda -> cos^2(angle(u + lambda v, w))
    at lambda = 0: the oracle for the closed-form alignment derivative."""
    def cos2(lam):
        x = u + lam * v
        c = float(x @ w) / (np.linalg.norm(x) * np.linalg.norm(w))
        return c * c
    return (cos2(h) - cos2(-h)) / (2.0 * h)
