"""Update rules and the optimizer loop.

Every rule produces an adjusted direction from the current field; the loop
is a plain explicit-Euler step on that direction.  Exposing the direction
separately lets callers feed any outer optimizer, while keeping the built-in
loop simple enough that the spectral oracle below is exact for the
fixed-weight rules on quadratic games with zero offsets.

There is one loop, ``_euler``.  It steps many cells of one rule on one game
together as a ``(C, d)`` array, one learning rate per row; a sweep hands it
all of a rule's cells and ``run`` is its batch of one.  Every row follows
the arithmetic of a lone cell bit for bit (one matrix-vector product and
one dot product per row, reductions along contiguous rows), so a cell's
result does not depend on the batch it ran in.

A step pays only for the Hessian products its rule's direction uses: none
for simgd and omd, H' xi for the consensus rules and hamiltonian descent,
H' xi and H xi for the sga rules.  The probe diagnostic <xi, H' xi> is not
recorded by the loop; ``Trajectory.probes`` computes it from the stored
points on first read, with the same field and product code, so it holds
the bits a probe taken during the run would have.

At the small d of the presets a step costs its NumPy calls, not its
flops: about 30 calls of up to a microsecond each for simgd or omd on a
quadratic game, a third of them in the game's evaluation.  So the loop
makes no call it can skip.  A rule whose rows all share one adjustment
sign (0 for the rules without a weight) returns it as one float, not an
array, and ``run`` spells it out per step only when it records.  The stop
tests build only the masks that are switched on, and a count per test
decides whether any row stops: the masks of who stopped and why, and the
compaction, are built only on the steps where one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .derivatives import hvp, thvp
from .games import Game, QuadraticGame, as_point

Array = np.ndarray

SIMGD = "simgd"
SGA = "sga"
SGA_ALIGNED = "sga-aligned"
CONSENSUS = "consensus"
ALIGNED_CONSENSUS = "aligned-consensus"
HAMILTONIAN_DESCENT = "hamiltonian-descent"
OMD = "omd"

KINDS = (SIMGD, SGA, SGA_ALIGNED, CONSENSUS, ALIGNED_CONSENSUS,
         HAMILTONIAN_DESCENT, OMD)
# Rules whose Euler iteration is linear on quadratic games (oracle-eligible).
LINEAR_KINDS = (SIMGD, SGA, CONSENSUS, HAMILTONIAN_DESCENT, OMD)

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class AdjusterSpec:
    """A named update rule with its adjustment weight and alignment bias.

    ``epsilon`` is consulted only by the aligned-sga rule; everything else
    ignores it.
    """

    kind: str = SIMGD
    lam: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adjuster {self.kind!r}; one of {KINDS}")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class StopCriteria:
    """When to stop a run.

    Converged: the mean over the trailing ``loss_window`` iterations of the
    per-iteration mean absolute loss drops below ``loss_threshold`` (set the
    threshold to 0 to disable), or ``|xi|`` drops below ``xi_threshold`` when
    that is set.  Diverged: the iterate norm exceeds ``divergence_norm`` or
    goes non-finite.
    """

    max_iters: int = 10000
    loss_window: int = 10
    loss_threshold: float = 0.01
    divergence_norm: float = 1e6
    xi_threshold: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (1 <= self.loss_window <= self.max_iters):
            raise ValueError("need 1 <= loss_window <= max_iters")
        for name in ("loss_threshold", "divergence_norm", "xi_threshold"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def check_eta(eta: float) -> None:
    """Reject a learning rate that is not positive and finite (NaN too)."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


@dataclass(frozen=True)
class StepDiagnostics:
    loss: Array          # per-player losses at the pre-step point
    xi_norm: float
    probe: float         # <xi, H' xi>
    sign: float          # sign of the adjustment weight actually applied
    finite: bool         # whether the post-step point is finite


@dataclass
class Trajectory:
    """Iterate history with per-iteration diagnostics.

    ``points`` holds the initial point plus one entry per Euler step taken.
    The diagnostic arrays have one entry per processed iteration (evaluated
    at the pre-step point).  ``outcome_iteration`` is the iteration at which
    the outcome was decided; for MAX_ITERS it equals the iteration budget.
    ``probes`` is computed from the stored points on first read (see there).
    """

    points: Array                 # (steps+1, d)
    losses: Array                 # (iters, n)
    xi_norms: Array               # (iters,)
    signs: Array                  # (iters,)
    outcome: str                  # CONVERGED | DIVERGED | MAX_ITERS
    outcome_iteration: int
    _game: Game = field(repr=False, compare=False)
    _probes: Array | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def probes(self) -> Array:
        """The probe <xi, H' xi> at each processed iteration's pre-step
        point, shape (iters,).

        The loop does not record it: the first read computes it from
        ``points`` with the loop's own field and product code, bit for bit
        what a probe taken during the run would be, and caches it.  On a
        game without an analytic Hessian, ``fd_game(game)`` included, that
        read costs 2d + 1 field evaluations per iteration: the field again,
        then ``thvp``.
        """
        if self._probes is None:
            points = self.points[:len(self.xi_norms)]
            _, xi = _evaluate(self._game, points)
            self._probes = _probes(self._game, points, xi)
        return self._probes

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    def mean_abs_losses(self) -> Array:
        if self.losses.size == 0:
            return np.zeros(0)
        return np.mean(np.abs(self.losses), axis=1)


def _fixed_hessian(game: Game):
    """The game Hessian when it is one constant matrix (a quadratic game),
    else None: the products then go row by row."""
    if isinstance(game, QuadraticGame):
        return game.hessian_matrix
    return None


def _products(game: Game, points: Array, xi: Array, both: bool, hessian):
    """H'xi and (when ``both``) H xi at each row, given the field rows xi.

    ``hessian`` is the constant game Hessian, if any (see
    ``_fixed_hessian``): both products are then one batched matmul, which
    makes one matrix-vector product per row and so matches the row-by-row
    products bit for bit.  Otherwise they go one row at a time: with an
    analytic Hessian it is fetched once per row and both products use it
    (the arithmetic of ``thvp`` and ``hvp``), else both are the
    finite-difference products.
    """
    if hessian is not None:
        grad_h = np.matmul(hessian.T, xi[:, :, None])[..., 0]
        h_xi = np.matmul(hessian, xi[:, :, None])[..., 0] if both else None
        return grad_h, h_xi
    grad_h, h_xi = [], []
    for w, x in zip(points, xi):
        if game.has_analytic_hessian:
            h = game.analytic_hessian(w)
            grad_h.append(h.T @ x)
            if both:
                h_xi.append(h @ x)
        else:
            grad_h.append(thvp(game, w, x))
            if both:
                h_xi.append(hvp(game, w, x))
    # reshape: a batch of no rows still has d columns
    return (np.reshape(grad_h, xi.shape),
            np.reshape(h_xi, xi.shape) if both else None)


def _probes(game: Game, points: Array, xi: Array) -> Array:
    """The probe <xi, H' xi> at each row, with the products the rules use,
    so a probe equals the one an aligned rule computes there, bit for bit."""
    grad_h, _ = _products(game, points, xi, False, _fixed_hessian(game))
    return np.vecdot(xi, grad_h)


def _directions(spec: AdjusterSpec, game: Game, points: Array, xi: Array,
                prev_xi, hessian):
    """Each row's direction, given the field rows xi there, and the sign of
    the adjustment weight the rule actually applied: one sign per row for
    the aligned rules, else one float for every row (0.0 for the rules
    without a weighted adjustment term), so no per-step array is built
    where every row shares it.

    ``prev_xi`` holds omd's previous field rows (None on its first step);
    ``hessian`` is passed on to ``_products``.  A rule takes only the
    Hessian products it uses, none for simgd and omd, and only the aligned
    rules, whose sign depends on it, compute the probe <xi, H' xi>.
    """
    kind = spec.kind
    if kind == SIMGD:
        return xi, 0.0
    if kind == OMD:
        return 2.0 * xi - (xi if prev_xi is None else prev_xi), 0.0
    both = kind in (SGA, SGA_ALIGNED)
    grad_h, h_xi = _products(game, points, xi, both, hessian)
    fixed_sign = 1.0 if spec.lam >= 0 else -1.0
    if both:
        at_xi = 0.5 * (grad_h - h_xi)
        if kind == SGA:
            return xi + spec.lam * at_xi, fixed_sign
        # analysis.alignment_sign, row by row
        value = (np.vecdot(xi, grad_h) * np.vecdot(at_xi, grad_h)
                 / xi.shape[1] + spec.epsilon)
        signs = np.where(value >= 0.0, 1.0, -1.0)
        return xi + (abs(spec.lam) * signs)[:, None] * at_xi, signs
    if kind == CONSENSUS:
        return xi + spec.lam * grad_h, fixed_sign
    if kind == ALIGNED_CONSENSUS:
        signs = np.where(np.vecdot(xi, grad_h) >= 0, 1.0, -1.0)
        return xi + (abs(spec.lam) * signs)[:, None] * grad_h, signs
    if kind == HAMILTONIAN_DESCENT:
        return grad_h, 0.0
    raise ValueError(f"unknown adjuster {spec.kind!r}")  # AdjusterSpec checks


def _evaluate(game: Game, points: Array):
    """Losses and field at every row of ``points``, as C-ordered arrays:
    a BLAS dot product may sum a strided row in another order than a
    contiguous one, so every row the engine hands on is contiguous."""
    loss, xi = game.batch_losses_and_field(points)
    return np.ascontiguousarray(loss), np.ascontiguousarray(xi)


def _at_point(spec: AdjusterSpec, game: Game, w, prev_xi):
    """Losses, field, direction and sign at one point w, each as a one-row
    batch of the engine's arrays (w included)."""
    w = np.asarray(w, dtype=float).reshape(1, -1)
    if w.shape[1] != game.dim:
        raise ValueError(f"point has length {w.shape[1]}, game needs "
                         f"{game.dim}")
    if prev_xi is not None:
        prev_xi = np.asarray(prev_xi, dtype=float).reshape(1, -1)
    loss, xi = _evaluate(game, w)
    vec, signs = _directions(spec, game, w, xi, prev_xi, _fixed_hessian(game))
    return w, loss, xi, vec, signs


def direction(spec: AdjusterSpec, game: Game, w, prev_xi=None) -> Array:
    """The adjusted update direction at w.

    ``prev_xi`` is the previous field value, used only by the omd rule;
    omitting it makes omd fall back to the plain field on its first step.
    """
    return _at_point(spec, game, w, prev_xi)[3][0]


def step(spec: AdjusterSpec, game: Game, w, eta: float, prev_xi=None):
    """One explicit-Euler step ``w - eta * direction`` with diagnostics.

    A non-finite post-step point is reported through ``diagnostics.finite``
    rather than raised; the caller decides how to treat divergence.
    """
    check_eta(eta)
    w, loss, xi, vec, signs = _at_point(spec, game, w, prev_xi)
    w_new = (w - eta * vec)[0]
    diag = StepDiagnostics(
        loss=loss[0],
        xi_norm=float(np.sqrt(np.vecdot(xi[0], xi[0]))),
        probe=float(_probes(game, w, xi)[0]),
        sign=float(np.full(1, signs)[0]),
        finite=bool(np.isfinite(w_new).all()),
    )
    return w_new, diag


class _CellEnd(NamedTuple):
    """How one cell of the engine stopped: its outcome, the iteration that
    decided it, and the trailing window of per-iteration mean absolute
    losses (oldest first; shorter than the window if fewer were recorded)."""

    outcome: str
    iteration: int
    window: Array


def _euler(spec: AdjusterSpec, game: Game, starts, etas, stop: StopCriteria,
           record: bool = False):
    """The Euler loop, for C cells of one rule on one game at once.

    Cell k starts at ``starts[k]`` with rate ``etas[k]``.  The state is one
    ``(C, d)`` array; every step evaluates and moves all cells still
    running, and a cell that stops leaves the array, so the budget a slow
    cell uses costs the others nothing.  Each row's arithmetic is that of a
    lone cell, bit for bit: matrix products are one matrix-vector product
    per row and reductions run along rows.

    Returns one ``_CellEnd`` per cell and, with ``record`` (a batch of one
    only), the cell's history (else None): a list with (losses, xi norm,
    sign) per processed iteration and a list with the start point plus one
    point per step taken, all as the engine's one-row arrays.
    Norms are ``sqrt(v @ v)``, what ``np.linalg.norm`` computes for a real
    vector.
    """
    w = np.array(starts, dtype=float, ndmin=2)
    if w.ndim != 2 or w.shape[1] != game.dim:
        raise ValueError(f"start point has length {w.shape[-1]}, game needs "
                         f"{game.dim}")
    if record and len(w) != 1:
        raise ValueError("only a batch of one records its history")
    eta = np.asarray(etas, dtype=float).reshape(-1, 1)
    ends = [None] * len(w)
    steps, points = [], [w]
    rows = np.arange(len(w))           # cell index of each remaining row
    hessian = _fixed_hessian(game)
    n, span = game.num_players, stop.loss_window
    bound, xi_threshold = stop.divergence_norm, stop.xi_threshold
    loss_threshold = stop.loss_threshold
    finite_bound = math.isfinite(bound)
    # Each step's mean absolute loss is written at t % span and t % span +
    # span, so the last k means are always one contiguous, oldest-first
    # slice ending at t % span + span (see ``tail``), and a window mean
    # sums them in the order a list of the last ``span`` means would.
    ring = np.empty((len(w), 2 * span))
    prev_xi = None

    def tail(t, mask):
        """The means recorded up to step t of the masked rows."""
        end = t % span + span + 1
        return ring[mask, end - min(t + 1, span):end]

    def finish(mask, outcome, t, windows):
        for cell, window in zip(rows[mask], windows):
            ends[cell] = _CellEnd(outcome, t, window)

    for t in range(stop.max_iters):
        # A non-finite norm is a non-finite row, unless w @ w overflowed:
        # with a finite bound that is still above it.
        if finite_bound:
            ok = np.sqrt(np.vecdot(w, w)) <= bound
        else:
            ok = np.isfinite(w).all(axis=1)
        if np.count_nonzero(ok) < len(ok):
            finish(~ok, DIVERGED, t, tail(t - 1, ~ok))
            w, eta, ring, rows = w[ok], eta[ok], ring[ok], rows[ok]
            prev_xi = None if prev_xi is None else prev_xi[ok]
            if not len(rows):
                break
        loss, xi = _evaluate(game, w)
        vec, signs = _directions(spec, game, w, xi, prev_xi, hessian)
        xi_norm = np.sqrt(np.vecdot(xi, xi))
        mean_abs = np.add.reduce(np.absolute(loss), axis=1) / n
        # A finite mean and norm imply finite losses and field; only where
        # their sum is not finite does the exact test decide.  A diverging
        # row's window is read before this step's mean enters the ring.
        go = np.isfinite(mean_abs + xi_norm)
        stopping = np.count_nonzero(go) < len(go)
        if stopping:
            diverged = ~(np.isfinite(loss).all(axis=1) & np.isfinite(xi_norm))
            finish(diverged, DIVERGED, t, tail(t - 1, diverged))
            go = ~diverged
        if record and go[0]:
            steps.append((loss, xi_norm, np.full(1, signs)))
        slot = t % span
        ring[:, slot] = mean_abs
        ring[:, slot + span] = mean_abs

        converged = None
        if xi_threshold is not None:
            converged = xi_norm < xi_threshold
        if loss_threshold > 0 and t + 1 >= span:
            window = ring[:, slot + 1:slot + span + 1]
            low = np.add.reduce(window, axis=1) / span < loss_threshold
            converged = low if converged is None else converged | low
        if converged is not None and np.count_nonzero(converged):
            converged &= go
            finish(converged, CONVERGED, t, tail(t, converged))
            go &= ~converged
            stopping = True
        if stopping:
            w, eta, ring, rows = w[go], eta[go], ring[go], rows[go]
            vec, xi = vec[go], xi[go]
            if not len(rows):
                break
        w = w - eta * vec
        prev_xi = xi
        if record:
            points.append(w)
    else:
        finish(slice(None), MAX_ITERS, stop.max_iters,
               tail(stop.max_iters - 1, slice(None)))
    return ends, ((steps, points) if record else None)


def run(spec: AdjusterSpec, game: Game, w0, eta: float,
        stop: StopCriteria = StopCriteria()) -> Trajectory:
    """Iterate Euler steps until convergence, divergence, or the budget.

    A blow-up during the run lands in ``Trajectory.outcome``; only bad
    input raises: a start point that is non-finite or of the wrong length,
    or a bad ``eta``.  This is the batch of one of the engine that steps a
    sweep's cells together, so a run and the matching sweep cell agree bit
    for bit.
    """
    check_eta(eta)
    w = as_point(game.partition, w0).reshape(1, -1)
    (end,), (steps, points) = _euler(spec, game, w, (eta,), stop, record=True)
    if steps:
        losses, xi_norms, signs = (
            np.concatenate(column) for column in zip(*steps))
    else:
        losses = np.zeros((0, game.num_players))
        xi_norms = signs = np.zeros(0)
    return Trajectory(
        points=np.concatenate(points),
        losses=losses,
        xi_norms=xi_norms,
        signs=signs,
        outcome=end.outcome,
        outcome_iteration=end.iteration,
        _game=game,
    )


@dataclass(frozen=True)
class SpectralPrediction:
    spectral_radius: float
    predicts_convergence: bool


def iteration_matrix(spec: AdjusterSpec, game: QuadraticGame,
                     eta: float) -> Array:
    """Exact linear iteration matrix of a fixed-weight rule.

    Only defined for quadratic games with zero gradient offsets, where every
    non-aligned rule reduces to ``w_next = M w`` (omd needs its companion
    form on the doubled state (w_t, w_{t-1})).
    """
    if not isinstance(game, QuadraticGame):
        raise ValueError("the spectral oracle needs a quadratic game")
    if np.any(game.gradient_offset != 0.0):
        raise ValueError("the spectral oracle needs zero gradient offsets")
    if spec.kind not in LINEAR_KINDS:
        raise ValueError(
            f"adjuster {spec.kind!r} is not a fixed linear rule; "
            f"oracle-eligible kinds: {LINEAR_KINDS}"
        )
    h = game.hessian_matrix
    d = h.shape[0]
    eye = np.eye(d)
    if spec.kind == SIMGD:
        return eye - eta * h
    if spec.kind == SGA:
        anti = 0.5 * (h - h.T)
        return eye - eta * (eye + spec.lam * anti.T) @ h
    if spec.kind == CONSENSUS:
        return eye - eta * (eye + spec.lam * h.T) @ h
    if spec.kind == HAMILTONIAN_DESCENT:
        return eye - eta * h.T @ h
    # OMD companion form: w_next = (I - 2 eta H) w_t + eta H w_{t-1}.
    m = np.zeros((2 * d, 2 * d))
    m[:d, :d] = eye - 2.0 * eta * h
    m[:d, d:] = eta * h
    m[d:, :d] = eye
    return m


def spectral_oracle(spec: AdjusterSpec, game: QuadraticGame,
                    eta: float) -> SpectralPrediction:
    """Exact convergence prediction from the iteration matrix spectrum."""
    m = iteration_matrix(spec, game, eta)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    return SpectralPrediction(spectral_radius=rho,
                              predicts_convergence=rho < 1.0)
