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

A step evaluates only the field and pays only for the Hessian products its
rule's direction uses: none for simgd and omd, H' xi for the consensus
rules and hamiltonian descent, H' xi and H xi for the sga rules.  The probe diagnostic <xi, H' xi> is not
recorded by the loop; ``Trajectory.probes`` computes it from the stored
points on first read, with the same field and product code, so it holds
the bits a probe taken during the run would have.

At the small d of the presets a step costs its NumPy calls, not its
flops, and testing for a stop after every step (the norm bound, the
non-finite test, the loss window) would take about half of them.  So on a
quadratic game the loop takes a block of steps before it tests for a
stop: a step inside the block makes only the calls of its field, its
direction and its update, and keeps its point and field; the losses, read
only by the stop tests, are then evaluated at all the block's points in
one call, and one pass makes the tests of every step of the block.
A cell that stopped inside the block ends at its exact iteration with
its exact window, and its later steps are discarded, so no result
depends on the block length.  On a general game those discarded steps
would run the user's callables past a stop, so there the loop tests
after every step (``_block_length``).  A blow-up is a stop, so on a
quadratic game the loop runs with NumPy's overflow and invalid-value
warnings off; a general game's callables keep the caller's settings.  A
rule whose rows all share one adjustment sign (0 for the rules without a
weight) returns it as one float, not an array.  The stop tests build only
the masks that are switched on, and a count decides whether any row
stops: who stopped and why, and the compaction, are worked out only in a
block where one does.
"""

from __future__ import annotations

import contextlib
import math
import numbers
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
        if not np.isfinite(_number(self.lam, "lam")):
            raise ValueError("lam must be finite")
        check_epsilon(self.epsilon)


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
        for name, value in vars(self).items():
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def _number(value, what: str) -> float:
    """A real number (True is not one), as a float; ``what`` names it in
    the error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def check_eta(eta: float) -> float:
    """A learning rate as a float; rejects one that is not a positive and
    finite number (NaN and True too)."""
    if not 0 < _number(eta, "eta") < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    return float(eta)


def check_epsilon(epsilon: float) -> None:
    """Reject an alignment bias that is not a number, negative or NaN."""
    if not _number(epsilon, "epsilon") >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")


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
        then ``thvp``.  Near a blow-up a probe may overflow to inf; like
        the loop, the read does not warn about it.
        """
        if self._probes is None:
            points = self.points[:len(self.xi_norms)]
            with _quiet(self._game):
                xi = _field(self._game, points)
                grad_h, _ = _products(self._game, points, xi, False)
                self._probes = np.vecdot(xi, grad_h)
        return self._probes

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    def mean_abs_losses(self) -> Array:
        if self.losses.size == 0:
            return np.zeros(0)
        return np.mean(np.abs(self.losses), axis=1)


def _products(game: Game, points: Array, xi: Array, both: bool):
    """H'xi and (when ``both``) H xi at each row, given the field rows xi.

    On a quadratic game the Hessian is one constant matrix: both products
    are then one batched matmul, which makes one matrix-vector product per
    row and so matches the row-by-row products bit for bit.  Otherwise they
    are ``thvp`` and ``hvp``, one row at a time.
    """
    if isinstance(game, QuadraticGame):
        h = game.hessian_matrix
        grad_h = np.matmul(h.T, xi[:, :, None])[..., 0]
        h_xi = np.matmul(h, xi[:, :, None])[..., 0] if both else None
        return grad_h, h_xi
    grad_h, h_xi = [], []
    for w, x in zip(points, xi):
        grad_h.append(thvp(game, w, x))
        if both:
            h_xi.append(hvp(game, w, x))
    # reshape: a batch of no rows still has d columns
    return (np.reshape(grad_h, xi.shape),
            np.reshape(h_xi, xi.shape) if both else None)


def _aligned_signs(xi: Array, at_xi: Array, grad_h: Array,
                   epsilon: float) -> Array:
    """The aligned sga rule's sign at each row: that of
    ``(1/d) <xi, grad_h> <at_xi, grad_h> + epsilon``, with sign(0) = +1
    (``analysis.alignment_sign`` is its one-row case).  A NaN value gets
    -1."""
    value = (np.vecdot(xi, grad_h) * np.vecdot(at_xi, grad_h)
             / xi.shape[1] + epsilon)
    return np.where(value >= 0.0, 1.0, -1.0)


def _directions(spec: AdjusterSpec, game: Game, points: Array, xi: Array,
                prev_xi):
    """Each row's direction, given the field rows xi there, and the sign of
    the adjustment weight the rule actually applied: one sign per row for
    the aligned rules, else one float for every row (0.0 for the rules
    without a weighted adjustment term), so no per-step array is built
    where every row shares it.

    ``prev_xi`` holds omd's previous field rows (None on its first step).
    A rule takes only the Hessian products it uses, none for simgd and omd,
    and only the aligned rules, whose sign depends on it, compute the probe
    <xi, H' xi>.
    """
    kind = spec.kind
    if kind == SIMGD:
        return xi, 0.0
    if kind == OMD:
        return 2.0 * xi - (xi if prev_xi is None else prev_xi), 0.0
    both = kind in (SGA, SGA_ALIGNED)
    grad_h, h_xi = _products(game, points, xi, both)
    fixed_sign = 1.0 if spec.lam >= 0 else -1.0
    if both:
        at_xi = 0.5 * (grad_h - h_xi)
        if kind == SGA:
            return xi + spec.lam * at_xi, fixed_sign
        signs = _aligned_signs(xi, at_xi, grad_h, spec.epsilon)
        return xi + (abs(spec.lam) * signs)[:, None] * at_xi, signs
    if kind == CONSENSUS:
        return xi + spec.lam * grad_h, fixed_sign
    if kind == ALIGNED_CONSENSUS:
        signs = np.where(np.vecdot(xi, grad_h) >= 0, 1.0, -1.0)
        return xi + (abs(spec.lam) * signs)[:, None] * grad_h, signs
    if kind == HAMILTONIAN_DESCENT:
        return grad_h, 0.0
    raise ValueError(f"unknown adjuster {spec.kind!r}")  # AdjusterSpec checks


def _quiet(game: Game):
    """NumPy's overflow and invalid-value warnings off on a quadratic game,
    whose blow-up the engine reports as a stop; any other game runs the
    user's callables, so it keeps the caller's settings."""
    if isinstance(game, QuadraticGame):
        return np.errstate(over="ignore", invalid="ignore")
    return contextlib.nullcontext()


def _field(game: Game, points: Array) -> Array:
    """The field at every row of ``points``, as a C-ordered array: a BLAS
    dot product may sum a strided row in another order than a contiguous
    one, so every row the engine hands on is contiguous."""
    return np.ascontiguousarray(game.batch_field(points))


def _adjusted(spec: AdjusterSpec, game: Game, w: Array, prev_xi):
    """Field, direction and sign at each row of w."""
    xi = _field(game, w)
    return (xi,) + _directions(spec, game, w, xi, prev_xi)


def direction(spec: AdjusterSpec, game: Game, w, prev_xi=None) -> Array:
    """The adjusted update direction at w: the engine's direction for a
    batch of one row, so ``run``'s first step from w is
    ``w - eta * direction``.

    ``prev_xi`` is the previous field value, used only by the omd rule;
    omitting it makes omd fall back to the plain field on its first step.
    Raises ValueError for a point that is non-finite or of the wrong
    length, and for a ``prev_xi`` of the wrong length.
    """
    w = as_point(game.partition, w).reshape(1, -1)
    if prev_xi is not None:
        prev_xi = np.asarray(prev_xi, dtype=float).reshape(1, -1)
        if prev_xi.shape[1] != game.dim:
            raise ValueError(f"prev_xi has length {prev_xi.shape[1]}, game "
                             f"needs {game.dim}")
    return _adjusted(spec, game, w, prev_xi)[1][0]


class _CellEnd(NamedTuple):
    """How one cell of the engine stopped: its outcome, the iteration that
    decided it, and the trailing window of per-iteration mean absolute
    losses (oldest first; shorter than the window if fewer were recorded)."""

    outcome: str
    iteration: int
    window: Array


# Steps per block on a quadratic game (see ``_block_length``).  A block
# makes one pass of stop tests for all its steps, which at the small d of
# the presets halves the NumPy calls per step, while a batch runs at most
# _BLOCK_STEPS - 1 steps past its last stop.  Blocks of 8 to 64 steps ran
# the three presets in about the same time; 16 wastes less.
_BLOCK_STEPS = 16


def _block_length(game: Game) -> int:
    """How many steps the engine takes before it tests for a stop.

    Only a quadratic game steps in blocks.  The evaluation of any other
    game runs the user's callables, which must not run past a stop: they
    may raise there, and on a game without an analytic Hessian such a
    wasted step costs up to 2d + 1 field evaluations.
    """
    return _BLOCK_STEPS if isinstance(game, QuadraticGame) else 1


def _kept(keep, *arrays):
    """The kept rows of each per-row array (None stays None)."""
    return [None if a is None else a[keep] for a in arrays]


def _euler(spec: AdjusterSpec, game: Game, starts, etas, stop: StopCriteria,
           record: bool = False):
    """The Euler loop, for C cells of one rule on one game at once.

    Cell c starts at ``starts[c]`` with rate ``etas[c]``.  The state is one
    ``(C, d)`` array.  The loop steps every cell still running through a
    block of k steps (``_block_length``), keeping each step's point and
    field, then takes the losses at the k points (one contiguous run of
    rows) in one call and decides the stop tests of all k steps at once.
    A cell stops at its first step that fires a test, in this order: the
    norm bound on the point (tested before evaluating there, on the first
    point of a block before the block runs), non-finite losses or field,
    convergence.  Its outcome, iteration and trailing window are those of
    that step; the block's later steps of that cell are discarded, and the
    cell leaves the array at the end of the block, so the budget a slow
    cell uses costs the others nothing.  Each row's arithmetic is that of a
    lone cell, bit for bit: matrix products are one matrix-vector product
    per row and reductions run along contiguous rows.  A blow-up is a stop,
    so the loop runs with NumPy's overflow and invalid-value warnings off,
    except in a general game's evaluations and direction, which run the
    user's callables under the caller's settings.

    Returns one ``_CellEnd`` per cell and, with ``record`` (a batch of one
    only), the cell's history (else None): a list of (losses, xi norms,
    signs) array triples whose rows, joined, hold one entry per processed
    iteration, and a list of point arrays whose rows, joined, are the start
    point and one point per step taken.
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
    n, d, span = game.num_players, game.dim, stop.loss_window
    bound, xi_threshold = stop.divergence_norm, stop.xi_threshold
    loss_threshold, max_iters = stop.loss_threshold, stop.max_iters
    block = _block_length(game)
    # Row c holds cell c's mean absolute losses, oldest first:
    # means[:, o:o + span] those of the span steps before the block and
    # means[:, o + span + j] that of the block's step j, so every window is
    # one contiguous row slice and sums in the order a list of the last
    # ``span`` means would.  The window moves k columns right per block and
    # back to the front only once past span, which copies span means per
    # row at most once every span steps.
    means = np.zeros((len(w), 2 * span + block))
    o = 0
    prev_xi = None
    adjusted, losses_at = _adjusted, game.batch_losses
    if not isinstance(game, QuadraticGame):
        # A general game's evaluations and direction run the user's
        # callables: they keep the caller's NumPy error settings inside
        # the quiet loop.
        user = np.errstate(**np.geterr())
        adjusted, losses_at = user(_adjusted), user(losses_at)

    def beyond(w):
        """Rows of w past the norm bound.  A non-finite norm is a
        non-finite row, unless w @ w overflowed: with a finite bound that
        is still above it."""
        if math.isfinite(bound):
            return ~(np.sqrt(np.vecdot(w, w)) <= bound)
        return ~np.isfinite(w).all(axis=-1)

    def finish(row, outcome, t, last):
        """Row ``row`` stops at iteration t with a window of the means up
        to iteration ``last``; t0 is the first iteration of the block."""
        end = o + span + last - t0 + 1
        ends[rows[row]] = _CellEnd(
            outcome, t, means[row, end - min(last + 1, span):end].copy())

    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t0 < max_iters:
            far = beyond(w)
            if np.count_nonzero(far):
                for row in np.flatnonzero(far):
                    finish(row, DIVERGED, t0, t0 - 1)
                w, eta, means, rows, prev_xi = _kept(
                    ~far, w, eta, means, rows, prev_xi)
                if not len(rows):
                    break
            k, c = min(block, max_iters - t0), len(rows)
            # ws[j] is the point step j starts from, ws[k] the last result.
            ws, xis = np.empty((k + 1, c, d)), np.empty((k, c, d))
            ws[0] = w
            signs = np.empty((k, c)) if record else None
            for j in range(k):
                xi, vec, sign = adjusted(spec, game, w, prev_xi)
                xis[j] = xi
                if record:
                    signs[j] = sign
                w = np.subtract(w, eta * vec, out=ws[j + 1])
                prev_xi = xi
            losses = np.ascontiguousarray(
                losses_at(ws[:k].reshape(k * c, d))).reshape(k, c, n)

            # The stop tests of all k steps, each an array of shape (k, C).
            xi_norm = np.sqrt(np.vecdot(xis, xis))
            mean_abs = np.add.reduce(np.absolute(losses), axis=2) / n
            means[:, o + span:o + span + k] = mean_abs.T
            # A finite mean and norm imply finite losses and field; only
            # where their sum is not finite does the exact test decide.
            diverged = ~np.isfinite(mean_abs + xi_norm)
            if np.count_nonzero(diverged):
                diverged = ~(np.isfinite(losses).all(axis=2)
                             & np.isfinite(xi_norm))
            if k > 1:
                diverged[1:] |= beyond(ws[1:k])
            stopping = diverged
            if xi_threshold is not None:
                stopping = stopping | (xi_norm < xi_threshold)
            first = max(span - 1 - t0, 0)    # the first full window
            if loss_threshold > 0 and first < k:
                sums = np.full((k, c), np.inf)
                for j in range(first, k):
                    np.add.reduce(means[:, o + j + 1:o + j + 1 + span],
                                  axis=1, out=sums[j])
                stopping = stopping | (sums / span < loss_threshold)

            fired = None
            if np.count_nonzero(stopping):
                fired = stopping.any(axis=0)
                at = stopping.argmax(axis=0)
                for row in np.flatnonzero(fired):
                    j = int(at[row])
                    t = t0 + j
                    if diverged[j, row]:
                        finish(row, DIVERGED, t, t - 1)
                    else:
                        finish(row, CONVERGED, t, t)
            done = t0 + k == max_iters
            if done:
                for row in (range(c) if fired is None
                            else np.flatnonzero(~fired)):
                    finish(row, MAX_ITERS, max_iters, max_iters - 1)
            if record:
                # A stopped cell took the steps before its stop, and
                # processed the step it stops at when it converged there.
                taken = k if fired is None else at[0]
                processed = taken + (fired is not None
                                     and not diverged[taken, 0])
                steps.append((losses[:processed, 0], xi_norm[:processed, 0],
                              signs[:processed, 0]))
                points.append(ws[1:taken + 1, 0])
            if done:
                break
            prev_xi = xis[-1]
            if fired is not None:
                w, eta, means, rows, prev_xi = _kept(
                    ~fired, w, eta, means, rows, prev_xi)
                if not len(rows):
                    break
            t0, o = t0 + k, o + k
            if o > span:
                means[:, :span] = means[:, o:o + span]
                o = 0
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


def _why_no_oracle(spec: AdjusterSpec, game: Game) -> str | None:
    """Why the spectral oracle does not apply, or None where it does."""
    if not isinstance(game, QuadraticGame):
        return "the spectral oracle needs a quadratic game"
    if np.any(game.gradient_offset != 0.0):
        return "the spectral oracle needs zero gradient offsets"
    if spec.kind not in LINEAR_KINDS:
        return (f"adjuster {spec.kind!r} is not a fixed linear rule; "
                f"oracle-eligible kinds: {LINEAR_KINDS}")
    return None


def iteration_matrix(spec: AdjusterSpec, game: QuadraticGame,
                     eta: float) -> Array:
    """Exact linear iteration matrix of a fixed-weight rule.

    Only defined for quadratic games with zero gradient offsets, where every
    non-aligned rule reduces to ``w_next = M w`` (omd needs its companion
    form on the doubled state (w_t, w_{t-1})).
    """
    check_eta(eta)
    reason = _why_no_oracle(spec, game)
    if reason is not None:
        raise ValueError(reason)
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
    """Exact convergence prediction from the iteration matrix spectrum.

    Raises ValueError for a bad eta, where the oracle does not apply, and
    where the iteration matrix or its spectral radius overflows at eta.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = iteration_matrix(spec, game, eta)
        rho = (float(np.max(np.abs(np.linalg.eigvals(m))))
               if np.isfinite(m).all() else math.inf)
    if not math.isfinite(rho):
        raise ValueError(f"the spectral oracle of {spec.kind!r} overflows "
                         f"at eta={eta!r}")
    return SpectralPrediction(spectral_radius=rho,
                              predicts_convergence=rho < 1.0)
