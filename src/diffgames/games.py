"""Games: player partitions, losses with analytic gradients, and a catalog.

A game couples ``n`` players, each controlling one block of a flat parameter
vector ``w`` in ``R^d``, through per-player scalar losses.  Everything
downstream (simultaneous gradients, Hessian-vector products, adjusted
dynamics) needs only the losses, their per-player analytic gradients, and,
when available, a full analytic Hessian.

Games are immutable after construction and all evaluations are pure, so a
single game object can be shared freely across threads.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_SYM_TOL = 1e-12


def _number(value, what: str) -> float:
    """A real number that a float holds, as a float: True is not a
    number, and an int too large for a float (10**400) is not one either;
    ``what`` names it in the error."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


def _whole(value, what: str, least: int = 0) -> int:
    """A number >= ``least`` with no fractional part (2.0 is one; 2.5 and
    True are not), as an int; ``what`` names it in the error."""
    with contextlib.suppress(ValueError):
        if _number(value, what).is_integer() and value >= least:
            return int(value)
    raise ValueError(
        f"{what} must be a whole number >= {least}, got {value!r}")


@dataclass(frozen=True)
class PlayerPartition:
    """How a flat parameter vector of length d splits among n players.

    Parameters
    ----------
    sizes : tuple of int
        Number of parameters controlled by each player; all must be whole
        numbers >= 1 (2.0 is one; 1.5, True and "2" are not).
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_whole(s, "player size", 1) for s in self.sizes)
        if len(sizes) == 0:
            raise ValueError("a game needs at least one player")
        object.__setattr__(self, "sizes", sizes)

    @property
    def num_players(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total parameter dimension d."""
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start index of each player's block (prefix sums of sizes)."""
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def block(self, i: int) -> slice:
        """Index slice of player i's parameters inside the flat vector."""
        start = self.offsets[i]
        return slice(start, start + self.sizes[i])

    def split(self, w: Array) -> list[Array]:
        """Views of w, one per player, in player order."""
        return [w[self.block(i)] for i in range(self.num_players)]


def as_point(partition: PlayerPartition, values) -> Array:
    """Validate and return a parameter vector for the given partition.

    Raises ValueError on wrong length, on non-finite entries and on entries
    that are not numbers: a string, or a boolean (True is not a
    coordinate).  A numeric array pays only a check of its dtype.
    """
    return _as_vector(values, partition.total, "point")


def _as_floats(values, what: str) -> Array:
    """An array of numbers (a vector or a matrix) as a float array, with
    ``what`` naming it in the error for an entry that ``_number`` rejects:
    a string, a boolean, or an int too large for a float.  A numeric array
    pays only a check of its dtype."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for x in np.asarray(values, dtype=object).reshape(-1):
            try:
                _number(x, what)
            except ValueError:
                raise ValueError(
                    f"{what} must hold numbers, got {x!r}") from None
    return np.asarray(values, dtype=float)


def _as_vector(values, length: int, what: str) -> Array:
    """``as_point``'s check of a vector of ``length`` numbers, with ``what``
    naming the vector in the error."""
    w = _as_floats(values, what).reshape(-1)
    if w.shape != (length,):
        raise ValueError(f"{what} has length {w.size}, game needs {length}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} has non-finite entries")
    return w


def default_start(dim: int) -> Array:
    """The start point used wherever none is given: 0.5 in every coordinate."""
    return np.full(dim, 0.5)


class Game:
    """An n-player game over R^d with analytic per-player gradients.

    A game is evaluated through two batched methods: ``batch_field``,
    which the Euler loop calls once per step and copies into the block
    buffer that keeps the step's field (on a stock ``QuadraticGame`` the
    loop runs the game's own column kernel on the buffer instead; an
    override is always called), and ``batch_losses``, which it calls once
    per block of steps.  Their base versions call the per-player hooks
    ``player_gradient`` and ``loss_vector``; an override of any of them
    must return exactly the bits the base version would.  The points they
    get are views of buffers the loop writes again in later blocks, so a
    hook copies what it keeps.

    Parameters
    ----------
    partition : PlayerPartition
    losses : sequence of callables
        ``losses[i](w) -> float``, the loss of player i at the full vector w.
    gradients : sequence of callables
        ``gradients[i](w) -> array of length sizes[i]``, the gradient of
        ``losses[i]`` with respect to player i's own block.
    hessian : callable, optional
        ``hessian(w) -> (d, d) array`` whose row-block i holds the second
        derivatives of ``losses[i]`` with respect to (block i, everything).
    """

    def __init__(self, partition, losses, gradients, hessian=None):
        n = partition.num_players
        if len(losses) != n or len(gradients) != n:
            raise ValueError(
                f"expected {n} losses and gradients, got "
                f"{len(losses)} and {len(gradients)}"
            )
        self.partition = partition
        self._losses = tuple(losses)
        self._gradients = tuple(gradients)
        self._hessian = hessian

    @property
    def num_players(self) -> int:
        return self.partition.num_players

    @property
    def dim(self) -> int:
        return self.partition.total

    def loss(self, i: int, w: Array) -> float:
        return float(self._losses[i](w))

    def loss_vector(self, w: Array) -> Array:
        """All player losses at w; entry i equals loss i.

        Non-finite entries are returned as-is and signal numerical overflow
        (treated as divergence by the optimizer loop).
        """
        return np.array([self._losses[i](w) for i in range(self.num_players)],
                        dtype=float)

    def player_gradient(self, i: int, w: Array) -> Array:
        """Gradient of player i's loss with respect to its own block."""
        g = np.asarray(self._gradients[i](w), dtype=float).reshape(-1)
        if g.size != self.partition.sizes[i]:
            raise ValueError(
                f"gradient of player {i} has length {g.size}, "
                f"expected {self.partition.sizes[i]}"
            )
        return g

    def batch_field(self, points: Array) -> Array:
        """The stacked field xi at each row of a ``(C, d)`` array of points,
        as a new C-ordered ``(C, d)`` array.

        Row k stacks exactly the ``player_gradient(i, points[k])`` of every
        player i, so a subclass that overrides that per-player hook is
        batched correctly.
        Each gradient is copied into its row before the next call, so a
        callable that reuses its output buffer still gives correct rows.
        """
        blocks = [self.partition.block(i) for i in range(self.num_players)]
        field = np.empty((len(points), self.dim))
        for w, row in zip(points, field):
            for i, blk in enumerate(blocks):
                row[blk] = self.player_gradient(i, w)
        return field

    def batch_losses(self, points: Array) -> Array:
        """The ``(C, n)`` losses at the rows of a ``(C, d)`` array of
        points: row k is ``loss_vector(points[k])``."""
        losses = np.array([self.loss_vector(w) for w in points], dtype=float)
        return losses.reshape(-1, self.num_players)

    @property
    def has_analytic_hessian(self) -> bool:
        return self._hessian is not None

    def analytic_hessian(self, w: Array) -> Array:
        if self._hessian is None:
            raise ValueError("game has no analytic Hessian")
        return np.asarray(self._hessian(w), dtype=float)


def make_game(partition, losses, gradients, hessian=None) -> Game:
    """Build a Game, checking gradient shapes against the partition.

    The check evaluates each gradient at the origin, so the callables must be
    defined on all of R^d (they are for every game in this package).
    """
    game = Game(partition, losses, gradients, hessian)
    probe = np.zeros(partition.total)
    for i in range(partition.num_players):
        game.player_gradient(i, probe)  # raises on size mismatch
    return game


class QuadraticGame(Game):
    """Game with losses ``l_i(w) = 1/2 w' B_i w + b_i' w``.

    Each coefficient matrix ``B_i`` must be symmetric; the game Hessian is
    then constant in w, with row-block i equal to player i's rows of B_i.

    Parameters
    ----------
    partition : PlayerPartition
    coefficients : sequence of (d, d) arrays
        One symmetric matrix per player.
    linear : sequence of length-d arrays, optional
        One offset vector per player; defaults to all zeros.
    """

    def __init__(self, partition, coefficients, linear=None):
        n, d = partition.num_players, partition.total
        coeffs = []
        for i, b in enumerate(coefficients):
            b = _as_floats(b, f"coefficient matrix {i}")
            if b.shape != (d, d):
                raise ValueError(f"coefficient matrix {i} is not {d}x{d}")
            # NaN would pass the symmetry test below.
            if not np.isfinite(b).all():
                raise ValueError(f"coefficient matrix {i} is not finite")
            scale = max(1.0, np.max(np.abs(b)))
            if np.max(np.abs(b - b.T)) > _SYM_TOL * scale:
                raise ValueError(f"coefficient matrix {i} is not symmetric")
            coeffs.append(b)
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficient matrices")
        if linear is None:
            lin = [np.zeros(d)] * n
        else:
            lin = [_as_floats(v, "linear terms").reshape(-1) for v in linear]
            if len(lin) != n or any(v.size != d for v in lin):
                raise ValueError("linear terms must be n vectors of length d")
            if not all(np.isfinite(v).all() for v in lin):
                raise ValueError("linear terms must be finite")
        # The game's one copy of its terms: (n, d, d) and (n, d) stacks,
        # made read-only before each player's B_i and b_i are taken as
        # views of them, so that the views are read-only too.
        stack, lin_stack = np.array(coeffs), np.array(lin)
        hessian = np.vstack([stack[i, partition.block(i), :]
                             for i in range(n)])
        offset = np.concatenate([lin_stack[i, partition.block(i)]
                                 for i in range(n)])
        for a in (stack, lin_stack, hessian, offset):
            a.setflags(write=False)

        def loss_fn(b, v):
            return lambda w: 0.5 * float(w @ (b @ w)) + float(v @ w)

        def grad_fn(b, v, blk):
            return lambda w: (b @ w + v)[blk]

        super().__init__(
            partition,
            [loss_fn(stack[i], lin_stack[i]) for i in range(n)],
            [grad_fn(stack[i], lin_stack[i], partition.block(i))
             for i in range(n)],
            hessian=lambda w: hessian,
        )
        self._stack, self._linear_stack = stack, lin_stack
        self._hessian_matrix = hessian
        self._offset = offset
        # Exactly-zero linear terms only add +0.0 at a finite point: the
        # sums of matrix and dot products never come out -0.0, so skipping
        # them keeps every bit there.  At a point with an infinite entry
        # b_i' w is 0 * inf = NaN, so a loss the per-player path makes NaN
        # may come out inf; the Euler loop tests only that it is finite.
        # The skip pays: adding the zero terms cost the presets bench 10-13%
        # of its iterations per second (2-core Xeon, one BLAS thread).
        self._has_linear = bool(lin_stack.any())
        # The arithmetic the Euler loop binds, built once here: the field
        # ``(w, out) -> H w + c``, one gemv per column straight into
        # ``out``, made by one C-level call, plus the offset only where
        # there are linear terms, and the products ``(w, xi, out) -> H' xi``
        # and ``-> H xi``, one gemv per column each into ``out``.  Two sets:
        # through the stacked ``np.matmul`` on (C, d, 1) stacks of column
        # vectors, which ``batch_field`` runs too, and through ``np.dot``
        # on one (d, 1) column, for a batch of one row: the same gemv with
        # the same bits, for about half of matmul's dispatch cost (0.58
        # against 1.05 us at d = 4).
        def kernels(product):
            field = functools.partial(product, hessian)
            if self._has_linear:
                gemv, column = field, offset[:, None]
                field = lambda w, out: np.add(gemv(w, out), column, out)
            return (field, *(lambda w, xi, out, m=m: product(m, xi, out)
                             for m in (hessian.T, hessian)))
        stacked, self._column = kernels(np.matmul), kernels(np.dot)
        self._field, self._products = stacked[0], stacked[1:]

    def batch_field(self, points: Array) -> Array:
        """All rows at once: ``H w + c``, one matrix-vector product per row,
        by the field kernel the Euler loop runs, on column views of the
        rows and of the new ``(C, d)`` array it returns.  Row j of H is row
        j of its owner's ``B_i``, and OpenBLAS sums it as in the per-player
        ``B_i @ w``, so each row is bit-identical to the stacked
        ``player_gradient``; no BLAS promises that, so a test does.
        """
        out = np.empty(points.shape)
        self._field(points[:, :, None], out[:, :, None])
        return out

    def batch_losses(self, points: Array) -> Array:
        """All rows at once: one ``np.matmul`` of the stacked ``B_i`` over
        every row, player-major (each ``B_i`` serves every row before the
        next is read), then the dot products (``np.vecdot``) of the
        per-player callable.  Each row still gets its own ``B_i @ w``
        matrix-vector product, so every finite row is bit-identical to
        ``loss_vector`` (see ``_has_linear`` for the others).  The result
        is the transpose of a ``(n, C)`` array.
        """
        products = np.matmul(self._stack[:, None], points[:, :, None])
        losses = 0.5 * np.vecdot(points, products[..., 0])
        if self._has_linear:
            losses += np.vecdot(self._linear_stack[:, None], points)
        return losses.T

    @property
    def coefficients(self) -> tuple[Array, ...]:
        return tuple(self._stack)

    @property
    def linear_terms(self) -> tuple[Array, ...]:
        return tuple(self._linear_stack)

    @property
    def hessian_matrix(self) -> Array:
        """The constant game Hessian (not symmetric in general)."""
        return self._hessian_matrix

    @property
    def gradient_offset(self) -> Array:
        """Constant c in xi(w) = H w + c."""
        return self._offset


def quadratic_game_from_hessian(partition, hessian, offset=None) -> QuadraticGame:
    """Build a quadratic game whose game Hessian equals ``hessian`` exactly.

    The diagonal blocks of ``hessian`` must be symmetric (they are second
    derivatives of a single loss in its own variables), to within 1e-12
    times ``max(1, max|h[blk, :]|)`` over player i's block row, the scale
    at which ``QuadraticGame`` checks the ``B_i`` built from that row;
    off-diagonal blocks are free, which is what makes the game Hessian
    non-symmetric in general.
    ``offset`` is the constant part of the first-order field, split among the
    players by block.
    """
    d = partition.total
    offset = np.zeros(d) if offset is None else _as_vector(offset, d, "offset")
    h = _as_floats(hessian, "hessian")
    if h.shape != (d, d):
        raise ValueError(f"hessian is not {d}x{d}")
    # inf - inf in the symmetry test below would warn before it failed.
    if not np.isfinite(h).all():
        raise ValueError("hessian is not finite")
    n = partition.num_players
    coeffs, linear = np.zeros((n, d, d)), np.zeros((n, d))
    for i in range(n):
        blk = partition.block(i)
        diag = h[blk, blk]
        scale = max(1.0, np.max(np.abs(h[blk, :])))
        if np.max(np.abs(diag - diag.T)) > _SYM_TOL * scale:
            raise ValueError(
                f"diagonal block {i} of the hessian must be symmetric"
            )
        # The block row last, so B_i's diagonal block is h's, not its
        # transpose.
        coeffs[i, :, blk] = h[blk, :].T
        coeffs[i, blk, :] = h[blk, :]
        linear[i, blk] = offset[blk]
    return QuadraticGame(partition, coeffs, linear)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    build: Callable[..., QuadraticGame]

    @property
    def defaults(self) -> dict:
        """The game's parameters and their defaults, in order: those of
        its builder's signature, the one place they are written."""
        return {name: p.default for name, p
                in inspect.signature(self.build).parameters.items()}


def _zeros(k):
    return np.zeros((k, k))


def _payoff(values, what: str) -> Array:
    """A catalog game's payoff matrix: a number is a 1x1 matrix, and
    anything but a nonempty matrix of numbers raises a ValueError that
    names it."""
    m = np.atleast_2d(_as_floats(values, what))
    if m.ndim != 2 or not m.size:
        raise ValueError(f"{what} must be a nonempty matrix, got shape "
                         f"{m.shape}")
    return m


def _build_example1(dim=2, payoff=None):
    """Zero-sum bilinear bimatrix game; the field rotates around the origin."""
    dim = _whole(dim, "dim", 1)    # checked even where a payoff overrides it
    a = np.eye(dim) if payoff is None else _payoff(payoff, "payoff")
    dx, dy = a.shape
    b1 = np.block([[_zeros(dx), a], [a.T, _zeros(dy)]])
    return QuadraticGame(PlayerPartition((dx, dy)), [b1, -b1])


def _build_example2(dim=1, p=None, q=None):
    """General bilinear bimatrix game with separate payoff matrices."""
    dim = _whole(dim, "dim", 1)    # checked even where p and q override it
    pm = np.eye(dim) if p is None else _payoff(p, "p")
    qm = np.eye(dim) if q is None else _payoff(q, "q")
    if pm.shape != qm.shape:
        raise ValueError("payoff matrices must share a shape")
    dx, dy = pm.shape
    b1 = np.block([[_zeros(dx), pm], [pm.T, _zeros(dy)]])
    b2 = np.block([[_zeros(dx), qm], [qm.T, _zeros(dy)]])
    return QuadraticGame(PlayerPartition((dx, dy)), [b1, b2])


def _build_example3(a=1.0, b=1.0):
    """Bilinear game with equilibrium shifted to (a, b); purely antisymmetric
    Hessian, losses do not sum to zero unless a = b = 0."""
    b1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    b2 = -b1
    lin1 = np.array([-float(b), 0.0])
    lin2 = np.array([0.0, float(a)])
    return QuadraticGame(PlayerPartition((1, 1)), [b1, b2], [lin1, lin2])


def _build_example4():
    """Sign-flipped quadratic pair: zero-sum, yet simultaneous descent is
    plain gradient descent on x^2 - y^2."""
    b1 = 2.0 * np.eye(2)
    return QuadraticGame(PlayerPartition((1, 1)), [b1, -b1])


def _build_example5(kappa=10.0):
    """Two players minimizing the same concave quadratic -kappa/2 |w|^2."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    b = -kappa * np.eye(2)
    return QuadraticGame(PlayerPartition((1, 1)), [b, b])


def _build_example6(epsilon=0.1):
    """Weak repellor at the origin coupled to a strong rotation."""
    eps = float(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    b1 = np.array([[-eps, -1.0], [-1.0, 0.0]])
    b2 = np.array([[0.0, 1.0], [1.0, -eps]])
    return QuadraticGame(PlayerPartition((1, 1)), [b1, b2])


def _build_example7():
    """Coupled quadratics whose equilibrium is a minimum for each player
    separately but a saddle of the joint potential."""
    b1 = np.array([[1.0, 2.0], [2.0, 0.0]])
    b2 = np.array([[0.0, 2.0], [2.0, 1.0]])
    return QuadraticGame(PlayerPartition((1, 1)), [b1, b2])


def _build_fig3(coupling=10.0):
    """Weak attractor coupled to a strong rotational force."""
    c = float(coupling)
    b1 = np.array([[1.0, c], [c, 0.0]])
    b2 = np.array([[0.0, -c], [-c, 1.0]])
    return QuadraticGame(PlayerPartition((1, 1)), [b1, b2])


def _build_fig4(dim=1):
    """Zero-sum bilinear game +/- w1'w2 with configurable player dimension."""
    return _build_example1(dim=dim)


def _build_fig7(epsilon=0.01):
    """Four one-parameter players, pairwise zero-sum couplings, epsilon
    self-damping on each player."""
    eps = float(epsilon)
    if eps < 0:
        raise ValueError(f"epsilon must be nonnegative, got {eps}")
    coeffs = []
    for i in range(4):
        b = np.zeros((4, 4))
        b[i, i] = eps
        for j in range(4):
            if j == i:
                continue
            b[i, j] = b[j, i] = 1.0 if j > i else -1.0
        coeffs.append(b)
    return QuadraticGame(PlayerPartition((1, 1, 1, 1)), coeffs)


CATALOG: dict[str, CatalogEntry] = {
    e.name: e for e in [
        CatalogEntry(
            "example1",
            "zero-sum bilinear bimatrix game (cycling field)",
            _build_example1),
        CatalogEntry(
            "example2",
            "general bilinear bimatrix game with payoff matrices p, q",
            _build_example2),
        CatalogEntry(
            "example3",
            "bilinear game with equilibrium shifted to (a, b); not zero-sum",
            _build_example3),
        CatalogEntry(
            "example4",
            "zero-sum pair +/-(x^2 + y^2); gradient flow on x^2 - y^2",
            _build_example4),
        CatalogEntry(
            "example5",
            "both players minimize the concave -kappa/2 (x^2 + y^2)",
            _build_example5),
        CatalogEntry(
            "example6",
            "weak repellor at the origin with strong rotation",
            _build_example6),
        CatalogEntry(
            "example7",
            "per-player minimum that is a saddle of the joint potential",
            _build_example7),
        CatalogEntry(
            "fig3_weak_attractor",
            "weak attractor coupled to a strong rotational force",
            _build_fig3),
        CatalogEntry(
            "fig4_bilinear",
            "zero-sum bilinear game +/- w1'w2, per-player dimension dim",
            _build_fig4),
        CatalogEntry(
            "fig7_four_player",
            "four scalar players, pairwise zero-sum couplings, epsilon damping",
            _build_fig7),
    ]
}


def catalog_game(name: str, **params) -> QuadraticGame:
    """Build a catalog game by name.

    Raises ValueError for unknown names, unknown parameters, a value that is
    not a number for a parameter with a numeric default (``payoff``, ``p``
    and ``q`` take matrices), or parameter values outside their documented
    ranges; ``QuadraticGame`` rejects a non-finite value that reaches the
    game's coefficients.
    """
    entry = CATALOG.get(name)
    if entry is None:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown game {name!r}; known games: {known}")
    defaults = entry.defaults
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for game {name!r}; "
            f"accepted: {sorted(defaults)}"
        )
    for key, value in params.items():
        if isinstance(defaults[key], (int, float)):
            _number(value, f"parameter {key!r} of game {name!r}")
    # A non-finite parameter may make NaN on its way to the coefficients;
    # the game rejects it, so NumPy need not warn about it first.
    with np.errstate(invalid="ignore"):
        return entry.build(**params)
