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

A step is one step of the rule's block kernel (``_stepper``), which works
in buffers the batch keeps (``_Workspace``); ``direction`` and
``Trajectory.probes`` run the same kernel.  On a quadratic game the loop
takes a block of steps (``_block_length``) before one pass tests all of
them for a stop, and a cell ends at its first step that fires a test, so
no result depends on the block length.  A general game runs the user's
callables, which must not run past a stop, so it steps one at a time.  The
per-row stop state, and what a stopped cell processed, are a ``_Ledger``.

The quiet rule.  A blow-up is a stop, reported as ``diverged``, so the
engine (``_euler``, ``direction``, ``Trajectory.probes``) and
``experiments.analyze_point`` run inside one block with NumPy's overflow
and invalid-value warnings off: on a quadratic game they never warn.  On
a general game the callables they run, the kernel's step, the losses and
``analyze_point``'s report, keep the caller's NumPy error settings
(``_user``), which ``_stepper`` binds into the block kernel it returns;
each of the engine's three callers builds its kernel before it enters
the block.  The means of finite losses, whose sums may overflow to inf,
are quiet on every game: ``Trajectory.mean_abs_losses`` and the trailing
loss that a run or a sweep reports (``experiments._trailing_loss``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .derivatives import _hvp, _thvp
from .games import (Game, QuadraticGame, _as_vector, _number, _whole,
                    as_point)

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
    goes non-finite.  Every field is a number >= 0, not a boolean, and
    ``max_iters`` and ``loss_window`` are whole numbers (stored as ints);
    anything else raises a ValueError that names the field.
    """

    max_iters: int = 10000
    loss_window: int = 10
    loss_threshold: float = 0.01
    divergence_norm: float = 1e6
    xi_threshold: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is None and name == "xi_threshold":
                continue
            if not _number(value, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        for name in ("max_iters", "loss_window"):
            object.__setattr__(self, name,
                               _whole(getattr(self, name), name, least=1))
        if self.loss_window > self.max_iters:
            raise ValueError(f"need loss_window <= max_iters, got "
                             f"loss_window={self.loss_window} and "
                             f"max_iters={self.max_iters}")


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

    ``outcome_iteration`` is the iteration at which the outcome was
    decided; for MAX_ITERS it equals the iteration budget.  ``points``
    holds the initial point plus one entry per Euler step taken,
    ``outcome_iteration + 1`` in all.  The diagnostic arrays have one entry
    per processed iteration (evaluated at the pre-step point):
    ``outcome_iteration + 1`` where the run converged, else
    ``outcome_iteration``.  ``probes`` is computed from the stored points
    on first read (see there).
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
        ``points`` with the loop's own block kernel (``_stepper``) of
        hamiltonian descent, whose direction is H' xi, as one step of all
        the points, bit for bit what a probe taken during the run would
        be, and caches it.  On a game without an
        analytic Hessian, ``fd_game(game)`` included, that read costs
        2d + 1 field evaluations per iteration: the field again, then
        ``thvp``.  Near a blow-up a probe may overflow to inf, which the
        read reports without a warning (the quiet rule of the module
        docstring).
        """
        if self._probes is None:
            space = _Workspace(self.points[:len(self.xi_norms), :, None],
                               None, 1)
            block = _stepper(AdjusterSpec(HAMILTONIAN_DESCENT), self._game)
            with np.errstate(over="ignore", invalid="ignore"):
                grad_h = block(space, 1, 1.0)
                self._probes = np.vecdot(space.fields[0, ..., 0],
                                         grad_h[..., 0])
        return self._probes

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    def mean_abs_losses(self) -> Array:
        """The mean absolute loss at each iteration; a mean whose sum
        overflows reads inf, without a warning (the quiet rule)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.mean(np.abs(self.losses), axis=1)


def _products(game: Game):
    """The functions ``(w, xi, out) -> H'xi`` and ``-> H xi`` at each
    column, given the field columns xi, written into ``out``, a C-ordered
    array of xi's shape: on a quadratic game (one that overrides
    ``batch_field`` included) the game's own, built with it from its
    constant Hessian, one stacked matmul with H or its transpose, one
    matrix-vector product per column, so bit for bit the row-by-row
    products; otherwise ``thvp`` and ``hvp`` row by row, unchecked.  A
    row whose field overflowed stops at that step, so its products are
    NaN, not evaluated: a finite difference there would call the user's
    gradients at non-finite points."""
    if isinstance(game, QuadraticGame):
        return game._products

    def row_by_row(p):
        def product(w, xi, out):
            out.fill(np.nan)
            for row in np.flatnonzero(np.isfinite(xi).all(axis=(1, 2))):
                out[row, :, 0] = p(game, w[row, :, 0], xi[row, :, 0])
            return out
        return product
    return [row_by_row(p) for p in (_thvp, _hvp)]


def _aligned_signs(xi: Array, at_xi: Array, grad_h: Array,
                   epsilon: float) -> Array:
    """The aligned sga rule's sign at each column of a ``(C, d, 1)`` stack,
    shape ``(C, 1)``: that of ``(1/d) <xi, grad_h> <at_xi, grad_h> +
    epsilon``, with sign(0) = +1 (``analysis.alignment_sign`` is its
    one-column case).  A NaN value gets -1."""
    value = (np.vecdot(xi, grad_h, axis=-2)
             * np.vecdot(at_xi, grad_h, axis=-2) / xi.shape[1] + epsilon)
    return np.where(value >= 0.0, 1.0, -1.0)


class _Workspace:
    """The engine's buffers for a batch of C rows of d coordinates, kept
    from block to block for blocks of up to ``size`` steps.

    ``points`` is a ``(size + 1, C, d, 1)`` stack of column vectors whose
    slot j is the point step j starts from, made with slot 0 holding w,
    and ``fields`` a ``(size, C, d, 1)`` one whose slot j gets step j's
    field.  ``vec`` and ``tmp`` are ``(C, d, 1)`` scratch for a step's
    direction, and ``prev`` is omd's previous field, owned by the
    workspace (None before its first step).  ``signs`` is a ``(size, C)``
    array whose row j gets the sign of the adjustment weight each row
    applied at step j: the kernels of sga and consensus fill a block's
    rows with lam's sign, the aligned rules write each step's, and simgd,
    omd and hamiltonian descent, which have no weighted adjustment term,
    leave the 0.0 it is made with.
    """

    def __init__(self, w: Array, prev: Array | None, size: int):
        c, d, _ = w.shape
        self.points = np.empty((size + 1, c, d, 1))
        self.points[0] = w
        self.fields = np.empty((size, c, d, 1))
        self.vec, self.tmp = np.empty((2, c, d, 1))
        self.signs = np.zeros((size, c))
        self.prev = prev
        self._steps = []

    def steps(self, k: int) -> list:
        """The (point, field, next point) views of the first k steps, each
        made once, when a block first needs it."""
        steps = self._steps
        for j in range(len(steps), k):
            steps.append((self.points[j], self.fields[j],
                          self.points[j + 1]))
        return steps[:k]


def _stepper(spec: AdjusterSpec, game: Game):
    """The rule's block kernel on the game, ``block(space, k, eta) ->
    vec``, with the rule's branch, weights and sign, the field and the
    products (``_products``) bound once, and the caller's NumPy error
    settings bound by ``_user``: call it before entering the quiet block.

    The kernel takes the first k steps of a ``_Workspace`` in one loop.
    Step j reads its point, a ``(C, d, 1)`` stack of column vectors, from
    the workspace's point slot j, writes the field there into field slot
    j (C-ordered: a BLAS dot product may sum a strided vector in another
    order than a contiguous one), the rule's direction into the scratch
    ``space.vec``, and ``w - eta * vec`` into point slot j + 1, first the
    product and then the difference.  Every operation is a ufunc or
    matmul call given its output (positionally: NumPy parses that faster
    than ``out=``), in the order the direction's expression would
    evaluate it (``2 xi - prev``; ``xi + lam * (0.5 * (H' xi - H xi))``),
    so a step builds no view and keeps the bits of that expression.  It
    returns the last step's direction: ``space.vec``, or its field for
    simgd, whose direction it is.  It leaves the sign of each step's
    adjustment weight in ``space.signs`` (see ``_Workspace``).  Omd reads
    its previous field from ``space.prev`` (the field itself on its first
    step, where that is None) and leaves its last field there.

    The four adjusted rules share one loop, ``xi + weight * adj``.  The
    adjustment is ``A' xi = 0.5 * (H' xi - H xi)`` for sga and
    sga-aligned, built in ``space.tmp``, and ``gradH = H' xi`` for
    consensus and aligned-consensus, left in ``space.vec``.  The weight
    is lam, or for an aligned rule ``sign * abs(lam)`` with each row's
    sign picked at every step: by ``_aligned_signs`` for sga-aligned, and
    as that of the probe <xi, H' xi> for aligned-consensus, one dot
    product along each column (``axis=-2``).

    On a stock ``QuadraticGame`` the field, H w + c, is the game's own
    column kernel, built with the game: one stacked gemv straight on the
    columns made by one C-level call, plus the offset only where the game
    has linear terms.  Its ``batch_field`` runs the same kernel, so the
    step has its bits.  Any other game, and a subclass that overrides
    ``batch_field``, has its ``batch_field`` called once per step on
    ``(C, d)`` row views of the columns, and the rows it returns are
    copied into the field slot, so it sees every step.
    """
    kind, rows = spec.kind, game.batch_field
    sga = kind in (SGA, SGA_ALIGNED)
    aligned = kind in (SGA_ALIGNED, ALIGNED_CONSENSUS)
    # The game's batch_field is QuadraticGame's own, not an override.
    if type(game).batch_field is QuadraticGame.batch_field:
        field = game._field
    else:
        def field(w, out):
            out[..., 0] = rows(w[..., 0])
    # The constants as 0-d arrays: NumPy multiplies an array by one faster
    # than by a Python number, with the same bits.
    lam, weight, two, half = (np.array(x, dtype=float)
                              for x in (spec.lam, abs(spec.lam), 2.0, 0.5))
    trans, plain = _products(game)
    if kind == SIMGD:
        def block(space, k, eta):
            for w, xi, new in space.steps(k):
                field(w, xi)
                np.multiply(eta, xi, new)
                np.subtract(w, new, new)
            return xi
    elif kind == OMD:
        def block(space, k, eta):
            vec, prev = space.vec, space.prev
            for w, xi, new in space.steps(k):
                field(w, xi)
                np.multiply(two, xi, vec)
                np.subtract(vec, xi if prev is None else prev, vec)
                np.multiply(eta, vec, new)
                np.subtract(w, new, new)
                prev = xi
            # The next block writes its fields over this one's.
            if space.prev is None:
                space.prev = np.empty_like(vec)
            np.copyto(space.prev, prev)
            return vec
    elif kind == HAMILTONIAN_DESCENT:
        def block(space, k, eta):
            vec = space.vec
            for w, xi, new in space.steps(k):
                field(w, xi)
                trans(w, xi, vec)
                np.multiply(eta, vec, new)
                np.subtract(w, new, new)
            return vec
    else:   # the adjusted rules; AdjusterSpec checks the kind
        lam_sign = 1.0 if spec.lam >= 0 else -1.0

        def block(space, k, eta):
            vec, tmp, signs = space.vec, space.tmp, space.signs
            adj, scale = (tmp if sga else vec), lam
            if not aligned:
                signs[:k] = lam_sign
            for j, (w, xi, new) in enumerate(space.steps(k)):
                field(w, xi)
                trans(w, xi, vec)
                if sga:
                    plain(w, xi, tmp)
                    np.subtract(vec, tmp, tmp)
                    np.multiply(half, tmp, tmp)
                if aligned:
                    sign = (_aligned_signs(xi, tmp, vec, spec.epsilon) if sga
                            else np.where(np.vecdot(xi, vec, axis=-2) >= 0,
                                          1.0, -1.0))
                    scale = (weight * sign)[:, None]
                    signs[j] = sign[:, 0]
                np.multiply(scale, adj, vec)
                np.add(xi, vec, vec)
                np.multiply(eta, vec, new)
                np.subtract(w, new, new)
            return vec
    return _user(game, block)


def _user(game: Game, fn):
    """``fn`` to run inside the engine's quiet block (see the module
    docstring): on a quadratic game ``fn`` itself; on any other game,
    whose callables are the user's, ``fn`` at the NumPy error settings in
    force when ``_user`` is called, so call it before entering that
    block."""
    if isinstance(game, QuadraticGame):
        return fn
    return np.errstate(**np.geterr())(fn)


def direction(spec: AdjusterSpec, game: Game, w, prev_xi=None) -> Array:
    """The adjusted update direction at w: the engine's direction for a
    batch of one row, so ``run``'s first step from w is
    ``w - eta * direction``.

    ``prev_xi`` is the previous field value, used only by the omd rule;
    omitting it makes omd fall back to the plain field on its first step.
    Raises ValueError for a point or a ``prev_xi`` that ``as_point`` would
    reject: of the wrong length, or with an entry that is non-finite or
    not a number.  Like ``run``, it keeps the quiet rule of the module
    docstring.
    """
    w = as_point(game.partition, w).reshape(1, -1, 1)
    if prev_xi is not None:
        # A copy: the kernel leaves the field in it.
        prev_xi = np.array(_as_vector(prev_xi, game.dim, "prev_xi")
                           ).reshape(1, -1, 1)
    block = _stepper(spec, game)
    with np.errstate(over="ignore", invalid="ignore"):
        return block(_Workspace(w, prev_xi, 1), 1, 1.0).reshape(-1)


class _CellEnd(NamedTuple):
    """How one cell of the engine stopped: its outcome, the iteration that
    decided it, the trailing window of per-iteration mean absolute losses
    (oldest first; shorter than the window if fewer were recorded) and the
    number of iterations it processed (``_Ledger.finish``)."""

    outcome: str
    iteration: int
    window: Array
    processed: int


# The least number of steps in a block on a quadratic game (see
# ``_block_length``).  A block makes one pass of stop tests for all its
# steps, which at the small d of the presets halves the NumPy calls per
# step.  Fixed blocks of 8 to 64 steps ran the three presets in about the
# same time; 16 wastes less.
_BLOCK_STEPS = 16
# A batch that has run t0 iterations takes blocks of t0 // _BLOCK_AGE steps
# once that is more (from iteration 136 on): the steps it discards past its
# last stop stay under 1 / _BLOCK_AGE of those it took.  Fixed blocks of 128
# cost the bench's `wide` cells, which stop at 100 to 120 iterations, half
# again as many steps.
_BLOCK_AGE = 8
# Bytes of one block's points (k steps of C rows of d floats) past which a
# block grows no longer: a large sweep keeps blocks of _BLOCK_STEPS, while
# a preset's few rows of d <= 4 grow to hundreds of steps.
_BLOCK_BYTES = 1 << 18
# Bytes of gathered loss windows ``_Ledger.window_means`` reduces per call.
# Temporaries of 64 KB there raised the presets' peak RSS by 0.2 MB (heap
# fragmentation); at this size they leave it as it was.
_WINDOW_BYTES = 1 << 14


def _block_length(game: Game, t0: int, rows: int, left: int) -> int:
    """How many steps the engine takes from iteration t0 before it tests
    for a stop, with ``rows`` cells running and ``left`` iterations of the
    budget left.

    Only a quadratic game steps in blocks: of ``_BLOCK_STEPS`` steps, or
    of ``t0 // _BLOCK_AGE`` once that is more and the block's points fit
    in ``_BLOCK_BYTES``, and never past the budget.  The evaluation of any
    other game runs the user's callables, which must not run past a stop:
    they may raise there, and on a game without an analytic Hessian such a
    wasted step costs up to 2d + 1 field evaluations.
    """
    if not isinstance(game, QuadraticGame):
        return 1
    fit = _BLOCK_BYTES // (8 * rows * game.dim)
    return min(max(_BLOCK_STEPS, min(t0 // _BLOCK_AGE, fit)), left)


def _beyond(w, bound: float) -> Array:
    """Rows of w past the norm bound.  A non-finite norm is a non-finite
    row, unless w @ w overflowed: with a finite bound that is still above
    it."""
    if math.isfinite(bound):
        return ~(np.sqrt(np.vecdot(w, w)) <= bound)
    return ~np.isfinite(w).all(axis=-1)


class _Ledger:
    """The per-row stop state of the engine's running cells, and the end of
    each cell that stopped.

    Row i of the batch is cell ``rows[i]``, stepping at rate ``eta[i]``
    (the rate repeated down a ``(d, 1)`` column, the shape of the engine's
    points: at small d a broadcast would cost a step more than its
    product); ``ends[c]`` is cell c's ``_CellEnd`` once it stops.  ``t0``
    is the first iteration of the current block.  Row i of
    the means array holds the row's mean absolute losses, oldest first:
    those of the span steps before the block (+inf before iteration 0, so
    a window that is not yet full sums to inf and never fires), then that
    of each step of the block, so every window is one contiguous row slice
    and sums in the order a list of the last span means would, and column
    span is always the block's first step.  ``store`` makes a new array
    per block from the last span means and the block's; none is written
    after it is made.  ``compact`` drops
    the stopped rows from every per-row array at once, the caller's too,
    so state added here follows the batch for free.
    """

    def __init__(self, count: int, etas, span: int, dim: int):
        self.eta = np.repeat(np.asarray(etas, dtype=float).reshape(-1, 1, 1),
                             dim, axis=1)
        self.rows = np.arange(count)
        self.ends = [None] * count
        self.span, self.t0 = span, 0
        self._means = np.full((count, span), np.inf)

    def store(self, mean_abs: Array) -> None:
        """Store the block's mean absolute losses, shape (k, C)."""
        self._means = np.concatenate(
            (self._means[:, -self.span:], mean_abs.T), axis=1)

    def _read(self, k: int) -> Array:
        """The means that the windows of the block's k steps read, a view
        of shape (C, span + k - 1) whose column j is the first of step j's
        window."""
        return self._means[:, 1:self.span + k]

    def floor(self, k: int) -> float:
        """A lower bound on the computed mean of every window of the block's
        k steps, which spares a block where no window can stop the gather
        of ``window_means``: span copies of the least mean those windows
        read, summed as a window sums (a one-row ``np.add.reduce`` of the
        same length adds in the same order), over span.  Rounded addition
        and division are monotone, so a window of means that are each at
        least that one comes out at least as large.  A NaN mean makes the
        bound NaN, which fails every comparison."""
        least = self._read(k).min()
        return np.add.reduce(np.full(self.span, least)) / self.span

    def window_means(self, k: int) -> Array:
        """The mean of each step's window, shape (k, C), inf at a step
        whose window is not yet full.

        Each window sums as a one-row ``np.add.reduce`` of its span means
        does: ``np.take`` gathers the windows into a new C-ordered
        ``(C, windows, span)`` array, at most ``_WINDOW_BYTES`` of it at a
        time, which is reduced along its contiguous last axis.  (A strided
        sliding-window view would leave the summation order to NumPy's
        choice of inner axis, and a copy of one grew the process's peak
        memory from call to call.)
        """
        c, span = len(self.rows), self.span
        sums = np.empty((k, c))
        read, offsets = self._read(k), np.arange(span)
        chunk = max(1, _WINDOW_BYTES // (8 * c * span))
        for lo in range(0, k, chunk):
            starts = np.arange(lo, min(lo + chunk, k))
            windows = np.take(read, starts[:, None] + offsets, axis=1)
            sums[lo:lo + chunk] = np.add.reduce(windows, axis=2).T
        return sums / span

    def finish(self, row: int, outcome: str, t: int) -> None:
        """Row ``row`` stops at iteration t with ``outcome``.

        This is the engine's one statement of what a stopped cell
        processed: a cell that converged at t processed iteration t, and
        one that diverged or ran out of budget at t did not, so its last
        processed iteration is t - 1.  The cell's window ends there, and
        its ``_CellEnd.processed`` counts the iterations up to there."""
        last = t if outcome == CONVERGED else t - 1
        end = self.span + last - self.t0 + 1
        self.ends[self.rows[row]] = _CellEnd(
            outcome, t,
            self._means[row, end - min(last + 1, self.span):end].copy(),
            last + 1)

    def compact(self, keep: Array, *arrays) -> list:
        """Keep only the rows ``keep`` of the ledger and of each per-row
        array given (None stays None), which it returns."""
        self.rows, self.eta = self.rows[keep], self.eta[keep]
        self._means = self._means[keep]
        return [None if a is None else a[keep] for a in arrays]

    def advance(self, k: int) -> None:
        """Close a block of k steps."""
        self.t0 += k


def _euler(spec: AdjusterSpec, game: Game, starts, etas, stop: StopCriteria,
           record: bool = False):
    """The Euler loop, for C cells of one rule on one game at once.

    Cell c starts at ``starts[c]`` with rate ``etas[c]``.  The state is one
    ``(C, d, 1)`` stack of column vectors; the per-row stop state (cell
    index, rate, loss means) and the ends of the stopped cells are a
    ``_Ledger``.  The loop steps every cell still running through a block
    of k steps, one call of the rule's block kernel (``_stepper``) on the
    batch's ``_Workspace``: step j reads its point from point slot j,
    writes its field into field slot j and its result into point slot
    j + 1.  The workspace, with omd's previous field, is kept from block
    to block; it is made again, from the last point, only where rows
    stopped (``_Ledger.compact`` carries the previous field) or a block
    needs more steps than it holds, with room for twice as many, up to
    ``_BLOCK_BYTES`` of points.  The pass then reads both buffers as
    ``(k, C, d)`` rows: it takes the losses at the k points the block
    started from (one contiguous run of rows) in one call and decides the
    stop tests of all k steps at once.
    On a quadratic game k is 16 until iteration 136 and grows with the
    batch's age from there (``_block_length``).  A cell stops at its first
    step that fires a test, in this order: the norm bound on the point
    (tested as the step that made it finishes, the starts once before the
    loop, so no point past it is evaluated), non-finite losses or field,
    convergence.  A cell's outcome, iteration and trailing window are
    those of its stop; the block's later steps of that cell are discarded,
    and the cell leaves the array at the end of the block, so the budget a
    slow cell uses costs the others nothing.  Each test is one mask over
    the block (the window means behind their floor), each row's arithmetic
    is that of a lone cell, and the loop keeps the quiet rule of the module
    docstring.

    Returns one ``_CellEnd`` per cell and, with ``record`` (``run``'s
    batch of one), the cell's history (else None): a list of (losses, xi
    norms, signs) array triples whose rows, joined, hold one entry per
    processed iteration (``_Ledger.finish``; the signs copied from the
    workspace's, which the kernel wrote), and a list of point arrays
    whose rows, joined, are the start point and one point per step taken
    (copies: the workspace is reused).  Norms are ``sqrt(v @ v)``, what
    ``np.linalg.norm`` computes for a real vector.
    """
    w = np.array(starts, dtype=float, ndmin=2)
    if w.ndim != 2 or w.shape[1] != game.dim:
        raise ValueError(f"start point has length {w.shape[-1]}, game needs "
                         f"{game.dim}")
    if len(etas) != len(w):
        raise ValueError(f"got {len(etas)} learning rates for {len(w)} "
                         f"start points")
    n, d = game.num_players, game.dim
    bound, xi_threshold = stop.divergence_norm, stop.xi_threshold
    loss_threshold, max_iters = stop.loss_threshold, stop.max_iters
    ledger = _Ledger(len(w), etas, stop.loss_window, d)
    steps = [(np.zeros((0, n)), np.zeros(0), np.zeros(0))]
    points, prev_xi, space = [w], None, None
    block = _stepper(spec, game)
    losses_at = _user(game, game.batch_losses)
    with np.errstate(over="ignore", invalid="ignore"):
        far = _beyond(w, bound)
        for row in np.flatnonzero(far):
            ledger.finish(row, DIVERGED, 0)
        (w,) = ledger.compact(~far, w)
        w = w[:, :, None]
        while len(w):
            t0, eta, c = ledger.t0, ledger.eta, len(w)
            k = _block_length(game, t0, c, max_iters - t0)
            done = t0 + k == max_iters
            # The pass decides iterations t0 to t0 + r - 1: the k steps,
            # and the bound on the block's last point unless it is done.
            r = k if done else k + 1
            if space is None or len(space.vec) != c or len(space.fields) < k:
                # Rows stopped, or the block outgrew the workspace: a new
                # one, with room for the blocks to grow into.
                fit = _BLOCK_BYTES // (8 * c * d)
                space = _Workspace(w, prev_xi, max(k, min(2 * k, fit)))
            else:
                space.points[0] = w
            block(space, k, eta)
            # The next block starts from the last point; the pass reads
            # the block's points and fields as (k, C, d) rows.
            w, prev_xi = space.points[k], space.prev
            ws, xis = space.points[:k + 1, ..., 0], space.fields[:k, ..., 0]
            losses = np.ascontiguousarray(
                losses_at(ws[:k].reshape(k * c, d))).reshape(k, c, n)

            xi_norm = np.sqrt(np.vecdot(xis, xis))
            mean_abs = np.add.reduce(np.absolute(losses), axis=2) / n
            ledger.store(mean_abs)
            # The stop tests of the r iterations, each an array of shape
            # (r, C); row k, if any, holds only the bound.
            diverged = np.zeros((r, c), dtype=bool)
            diverged[:k] = ~(np.isfinite(losses).all(axis=2)
                             & np.isfinite(xi_norm))
            diverged[1:] |= _beyond(ws[1:r], bound)
            stopping = diverged.copy()
            if xi_threshold is not None:
                stopping[:k] |= xi_norm < xi_threshold
            # Where no window can stop, the floor spares the block the
            # gather of window_means, which grows with rows, steps and span.
            if loss_threshold > 0 and not ledger.floor(k) >= loss_threshold:
                stopping[:k] |= ledger.window_means(k) < loss_threshold
            fired = None
            if np.count_nonzero(stopping):
                fired = stopping.any(axis=0)
                at = stopping.argmax(axis=0)
                for row in np.flatnonzero(fired):
                    j = int(at[row])
                    ledger.finish(row, DIVERGED if diverged[j, row]
                                  else CONVERGED, t0 + j)
            if record:
                # The batch of one took every step of the block and
                # processed every iteration while it runs, and what its
                # end says once it stopped.
                end = ledger.ends[0]
                taken, processed = ((k, k) if end is None else
                                    (end.iteration - t0, end.processed - t0))
                steps.append((losses[:processed, 0], xi_norm[:processed, 0],
                              space.signs[:processed, 0].copy()))
                points.append(ws[1:taken + 1, 0].copy())
            if done:
                for row in (range(c) if fired is None
                            else np.flatnonzero(~fired)):
                    ledger.finish(row, MAX_ITERS, max_iters)
                break
            if fired is not None:
                w, prev_xi = ledger.compact(~fired, w, prev_xi)
            ledger.advance(k)
    return ledger.ends, ((steps, points) if record else None)


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
    losses, xi_norms, signs = map(np.concatenate, zip(*steps))
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


def _hessian_of(spec: AdjusterSpec, game: Game, eta) -> Array:
    """The game Hessian a public oracle call at ``eta`` reads, once it has
    passed that call's checks: ``check_eta``, then ``_why_no_oracle``."""
    check_eta(eta)
    reason = _why_no_oracle(spec, game)
    if reason is not None:
        raise ValueError(reason)
    return game.hessian_matrix


def _iteration_matrices(spec: AdjusterSpec, h: Array, etas) -> Array:
    """The ``(E, m, m)`` stack of the rule's iteration matrices on the game
    Hessian ``h`` at E rates, bit for bit ``iteration_matrix`` on a game
    whose ``hessian_matrix`` is ``h``.

    This is the oracle's arithmetic alone: it reads no game and checks
    nothing, so ``h`` may be any finite square matrix, and the rates are
    ones ``check_eta`` accepts; the callers decide where the oracle
    applies.  The expressions are those of a lone matrix with eta an
    ``(E, 1, 1)`` array, so each entry takes the same operations in the
    same order (``(eta * P) @ h`` for a rule ``I - eta P h``), and a
    stacked matmul multiplies each matrix as a lone one does.
    """
    eta = np.array(etas, dtype=float).reshape(-1, 1, 1)
    d = h.shape[0]
    eye = np.eye(d)
    if spec.kind == SIMGD:
        return eye - eta * h
    if spec.kind in (SGA, CONSENSUS):
        adj = (0.5 * (h - h.T)).T if spec.kind == SGA else h.T
        return eye - eta * (eye + spec.lam * adj) @ h
    if spec.kind == HAMILTONIAN_DESCENT:
        return eye - eta * h.T @ h
    # OMD companion form: w_next = (I - 2 eta H) w_t + eta H w_{t-1}.
    m = np.zeros((len(eta), 2 * d, 2 * d))
    m[:, :d, :d] = eye - 2.0 * eta * h
    m[:, :d, d:] = eta * h
    m[:, d:, :d] = eye
    return m


# Bytes of iteration matrices the oracle builds and decomposes in one
# stacked call.  A preset's whole grid (m <= 8, 50 rates: 25 KB at most)
# is one stack; from m = 129 up a stack holds one matrix, so a large
# game's oracle holds no more at a time than one lone call does.
_ORACLE_STACK_BYTES = 1 << 18


def _spectral_radii(spec: AdjusterSpec, h: Array, etas) -> list[float]:
    """The spectral radius of the rule's iteration matrix on the game
    Hessian ``h`` at each rate, bit for bit as a lone ``spectral_oracle``
    takes it on a game whose ``hessian_matrix`` is ``h``.  Like
    ``_iteration_matrices`` it reads no game and checks no input.

    The matrices are built in stacks of at most ``_ORACLE_STACK_BYTES``
    (or one matrix) and each stack is decomposed by one ``eigvals`` call,
    which LAPACK runs matrix by matrix as it runs a lone one.  Raises the
    ValueError of ``spectral_oracle`` at the first rate, in the given
    order, whose matrix or radius is not finite, naming that rate as
    given.
    """
    size = 2 * len(h) if spec.kind == OMD else len(h)
    count = max(1, _ORACLE_STACK_BYTES // (8 * size * size))
    radii = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(etas), count):
            m = _iteration_matrices(spec, h, etas[lo:lo + count])
            finite = np.isfinite(m).all(axis=(1, 2))
            # eigvals rejects a non-finite matrix: decompose the ones
            # before the first (a view, not a copy).
            good = len(m) if finite.all() else int(finite.argmin())
            rho = np.abs(np.linalg.eigvals(m[:good])).max(axis=-1)
            del m  # so the next stack is built with this one freed
            bad = np.flatnonzero(~np.isfinite(rho))
            first = int(bad[0]) if bad.size else good
            if first < len(finite):
                raise ValueError(f"the spectral oracle of {spec.kind!r} "
                                 f"overflows at eta={etas[lo + first]!r}")
            radii += rho.tolist()
    return radii


def iteration_matrix(spec: AdjusterSpec, game: QuadraticGame,
                     eta: float) -> Array:
    """Exact linear iteration matrix of a fixed-weight rule.

    Only defined for quadratic games with zero gradient offsets, where every
    non-aligned rule reduces to ``w_next = M w`` (omd needs its companion
    form on the doubled state (w_t, w_{t-1})).
    """
    return _iteration_matrices(spec, _hessian_of(spec, game, eta), (eta,))[0]


def spectral_oracle(spec: AdjusterSpec, game: QuadraticGame,
                    eta: float) -> SpectralPrediction:
    """Exact convergence prediction from the iteration matrix spectrum.

    Raises ValueError for a bad eta, where the oracle does not apply, and
    where the iteration matrix or its spectral radius overflows at eta.
    This is the batch of one of the oracle a sweep takes: one stacked
    eigendecomposition call for all of a rule's rates (per
    ``_ORACLE_STACK_BYTES`` of matrices).
    """
    (rho,) = _spectral_radii(spec, _hessian_of(spec, game, eta), (eta,))
    return SpectralPrediction(spectral_radius=rho,
                              predicts_convergence=rho < 1.0)
