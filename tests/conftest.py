"""Shared helpers for the test suite: scale-aware error measures and
random-instance generators used by the property tests."""

from functools import partial

import numpy as np

import diffgames as dg


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "kernel_bound: an absolute byte pin, recorded on "
        "OpenBLAS's SkylakeX kernel, so left out where CI reruns tier-1 on "
        "other kernels (Haswell, Sandybridge); every other test runs there "
        "too")


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
    plain ``Game`` with no batched override, so every evaluation
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


class TanhGame:
    """A non-quadratic game with a closed-form Hessian: players of sizes
    (2, 1, 2), player i with loss

        mu/2 |x_i|^2 + kappa/4 sum(x_i^4) + sum_{j != i} x_i' tanh(C_ij x_j)

    and C_ji = -C_ij', so the coupling is purely rotational at the origin,
    where S = mu I: a stable fixed point and a local Nash equilibrium."""

    MU, KAPPA = 0.5, 1.0
    partition = dg.PlayerPartition((2, 1, 2))

    def __init__(self, seed=7):
        rng = np.random.default_rng(seed)
        sizes = self.partition.sizes
        self.coupling = {}
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                c = rng.standard_normal((sizes[i], sizes[j]))
                self.coupling[i, j], self.coupling[j, i] = c, -c.T

    def _others(self, i, w):
        x = self.partition.split(w)
        return [(j, self.coupling[i, j], x[j])
                for j in range(len(x)) if j != i]

    def loss(self, i, w):
        x = self.partition.split(w)[i]
        value = 0.5 * self.MU * (x @ x) + 0.25 * self.KAPPA * np.sum(x ** 4)
        for _, c, y in self._others(i, w):
            value += x @ np.tanh(c @ y)
        return float(value)

    def gradient(self, i, w):
        x = self.partition.split(w)[i]
        out = self.MU * x + self.KAPPA * x ** 3
        for _, c, y in self._others(i, w):
            out = out + np.tanh(c @ y)
        return out

    def hessian(self, w):
        p = self.partition
        h = np.zeros((p.total, p.total))
        for i in range(p.num_players):
            bi = p.block(i)
            h[bi, bi] = np.diag(self.MU + 3.0 * self.KAPPA * w[bi] ** 2)
            for j, c, y in self._others(i, w):
                h[bi, p.block(j)] = (1.0 / np.cosh(c @ y) ** 2)[:, None] * c
        return h

    def build(self, analytic_hessian=True):
        """The game through ``make_game``, with or without the Hessian."""
        n = self.partition.num_players
        return dg.make_game(self.partition,
                            [partial(self.loss, i) for i in range(n)],
                            [partial(self.gradient, i) for i in range(n)],
                            self.hessian if analytic_hessian else None)


class CountingGame(dg.Game):
    """A plain rebuild of a game that counts its field evaluations: each
    one, in the Euler loop or inside a finite difference, asks for player
    0's gradient exactly once."""

    def __init__(self, game):
        n = game.num_players
        super().__init__(game.partition,
                         [partial(game.loss, i) for i in range(n)],
                         [partial(game.player_gradient, i) for i in range(n)],
                         game.analytic_hessian
                         if game.has_analytic_hessian else None)
        self.field_evals = 0

    def player_gradient(self, i, w):
        self.field_evals += i == 0
        return super().player_gradient(i, w)
