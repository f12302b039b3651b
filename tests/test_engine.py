"""The batched Euler engine: a sweep steps each rule's cells together, and
every cell must equal a lone ``run`` bit for bit; on random games its
outcomes must agree with the exact spectral oracle."""

import dataclasses
import math
import warnings
import zlib

import numpy as np
import pytest

import diffgames as dg
from diffgames import dynamics
from diffgames.dynamics import _euler
from diffgames.experiments import _start_points, _trailing_loss

from conftest import (CATALOG_DEFAULTS, TanhGame, plain_game,
                      random_realizable_game, random_symmetric)

# A finite but huge norm bound: a blow-up is caught by the bound when
# w @ w overflows first, and as non-finite losses or field when they do.
MIXED_STOP = dg.StopCriteria(max_iters=60, loss_window=5,
                             loss_threshold=1e-3, divergence_norm=1e300,
                             xi_threshold=1e-2)
MIXED_ETAS = (0.01, 0.1, 0.3, 0.7, 1.2, 2.5, 30.0, 1e200)
TRAJECTORY_ARRAYS = ("points", "losses", "xi_norms", "probes", "signs")


def stop_reason(traj, stop):
    """Why a run stopped, read off its trajectory."""
    if traj.outcome == dg.MAX_ITERS:
        return "budget"
    if traj.outcome == dg.CONVERGED:
        return "xi" if traj.xi_norms[-1] < stop.xi_threshold else "loss"
    w = traj.points[-1]
    with np.errstate(over="ignore"):
        beyond = not np.isfinite(w).all() or math.sqrt(w @ w) > \
            stop.divergence_norm
    return "norm" if beyond else "nonfinite"


def run_quietly(spec, game, w0, eta, stop):
    """``run``, probes read, with NumPy's overflow and invalid-value
    warnings off: a general game's callables run under the caller's
    settings, and at the rates below they overflow on purpose."""
    with np.errstate(over="ignore", invalid="ignore"):
        traj = dg.run(spec, game, w0, eta, stop)
        traj.probes
    return traj


# The largest rates overflow on purpose, in the batched and the per-row path
# alike; the overflow is what the non-finite and norm-bound stops catch, and
# on a quadratic game the engine reports it as a stop, not as a NumPy
# warning.  The plain games' references run quietly (``run_quietly``).
@pytest.mark.bit_identity
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSweepCellsEqualLoneRuns:
    # Stop reasons seen per game, shared with the coverage test below.
    reasons = {}

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_every_rule(self, name, params):
        game = dg.catalog_game(name, **params)
        plain = plain_game(game)
        self.reasons[name] = set()
        for kind in dg.KINDS:
            config = dg.SweepConfig(
                game=name, game_params=params,
                adjusters=(dg.AdjusterSpec(kind, lam=0.5),),
                etas=MIXED_ETAS, w0=dg.RandomBall(1.0), stop=MIXED_STOP,
                seed=11)
            cells = dg.sweep(config)
            starts = _start_points(config, game.dim)
            stopped_at = set()
            for cell, eta, (w0,) in zip(cells, MIXED_ETAS, starts):
                spec = config.adjusters[0]
                where = (name, kind, eta)
                ref = run_quietly(spec, plain, w0, eta, MIXED_STOP)
                capped = (ref.outcome_iteration if ref.outcome == dg.CONVERGED
                          else MIXED_STOP.max_iters)
                assert cell.outcome == ref.outcome, where
                assert cell.iters == capped, where
                assert cell.trailing_loss == _trailing_loss(
                    ref.mean_abs_losses(), MIXED_STOP.loss_window), where
                fused = dg.run(spec, game, w0, eta, MIXED_STOP)
                for array in TRAJECTORY_ARRAYS:
                    assert np.array_equal(getattr(fused, array),
                                          getattr(ref, array),
                                          equal_nan=True), (where, array)
                assert (fused.outcome, fused.outcome_iteration) == \
                    (ref.outcome, ref.outcome_iteration), where
                stopped_at.add(ref.outcome_iteration)
                self.reasons[name].add(stop_reason(ref, MIXED_STOP))
            # One batch holds cells that stop at different iterations.
            assert len(stopped_at) >= 2, (name, kind)

    @pytest.mark.parametrize("span", (1, 2))
    def test_nonfinite_stop_keeps_the_earlier_window(self, span):
        # A cell that stops on non-finite losses or field reports the window
        # of the steps before, also at a step that reuses the ring's oldest
        # slot (t >= span and t % span == 0).  The windows are compared
        # unclipped: a sweep caps the trailing loss, which hides most errors.
        stop = dg.StopCriteria(max_iters=40, loss_window=span,
                               loss_threshold=1e-3, divergence_norm=1e300,
                               xi_threshold=1e-2)
        etas = tuple(np.geomspace(1e-2, 1e250, 24))
        rng = np.random.default_rng(3)
        at_wrap = 0
        for name, params in CATALOG_DEFAULTS:
            game = dg.catalog_game(name, **params)
            plain = plain_game(game)
            starts = rng.standard_normal((len(etas), game.dim))
            for kind in dg.KINDS:
                spec = dg.AdjusterSpec(kind, lam=0.5)
                ends, _ = _euler(spec, game, starts, etas, stop)
                for end, w0, eta in zip(ends, starts, etas):
                    where = (name, kind, eta)
                    ref = run_quietly(spec, plain, w0, eta, stop)
                    assert (end.outcome, end.iteration) == \
                        (ref.outcome, ref.outcome_iteration), where
                    assert end.window.tobytes() == \
                        ref.mean_abs_losses()[-span:].tobytes(), where
                    t = ref.outcome_iteration
                    at_wrap += (stop_reason(ref, stop) == "nonfinite"
                                and t >= span and t % span == 0)
        assert at_wrap

    def test_grid_covers_every_stop_reason(self):
        for name, params in CATALOG_DEFAULTS:
            if name not in self.reasons:
                self.test_every_rule(name, params)
        assert set().union(*self.reasons.values()) == {
            "budget", "loss", "xi", "norm", "nonfinite"}


class TestEngineBoundary:
    def test_general_game_keeps_the_callers_error_settings(self):
        # A blow-up on a quadratic game is a stop whatever the caller's
        # settings; a general game's callables overflow under them.  With
        # no norm bound the second step evaluates at a point near 1e300.
        game = dg.catalog_game("fig3_weak_attractor")
        spec, w0 = dg.AdjusterSpec("sga-aligned"), np.ones(game.dim)
        stop = dg.StopCriteria(divergence_norm=math.inf)
        with np.errstate(over="raise", invalid="raise"):
            assert dg.run(spec, game, w0, 1e300, stop).outcome == dg.DIVERGED
            with pytest.raises(FloatingPointError, match="overflow"):
                dg.run(spec, plain_game(game), w0, 1e300, stop)
        with pytest.warns(RuntimeWarning, match="overflow"):
            dg.run(spec, plain_game(game), w0, 1e300, stop)

    def test_general_game_losses_keep_the_callers_error_settings(self):
        # The losses are evaluated once per block, after the steps; a
        # general game's loss callables still run under the caller's
        # settings.  Here only the loss overflows, at the start point.
        game = dg.make_game(dg.PlayerPartition((1, 1)),
                            [lambda w: np.exp(1e3 * w[0])] * 2,
                            [lambda w: 0.1 * w[:1], lambda w: 0.1 * w[1:]])
        spec, w0 = dg.AdjusterSpec("simgd"), np.ones(2)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                dg.run(spec, game, w0, 0.1)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert dg.run(spec, game, w0, 0.1).outcome == dg.DIVERGED

    @pytest.mark.parametrize("setting", [{}, {"over": "raise"}],
                             ids=["warn", "raise"])
    def test_probes_read_quietly_on_every_game(self, setting):
        # Every probe <xi, H' xi> of this run overflows.  The read reports
        # inf, as the loop reports a blow-up, on a general game too: the
        # package's own dot product is no callable of the user's.
        game = dg.catalog_game("fig3_weak_attractor", coupling=1e150)
        stop = dg.StopCriteria(max_iters=3, loss_window=1)
        for g in (game, plain_game(game)):
            with warnings.catch_warnings(), np.errstate(**setting):
                warnings.simplefilter("error")
                traj = dg.run(dg.AdjusterSpec("simgd"), g, [1.0, 2.0],
                              1e-160, stop)
                assert traj.outcome == dg.MAX_ITERS
                assert traj.probes.tolist() == [math.inf] * 3

    def test_direction_and_report_keep_the_callers_error_settings(self):
        # The general game's own field overflows at w: under the caller's
        # settings, though ``direction`` and ``analyze_point`` run it
        # inside the engine's quiet block.
        game, w = plain_game(dg.catalog_game("example7")), [1e308, 1e308]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                dg.direction(dg.AdjusterSpec("simgd"), game, w)
            with pytest.raises(FloatingPointError, match="overflow"):
                dg.analyze_point(game, w)

    def test_wrong_length_start_point_raises(self):
        game = dg.catalog_game("fig7_four_player")
        spec = dg.AdjusterSpec("omd")
        with pytest.raises(ValueError, match="length 3"):
            dg.run(spec, game, [0.5, 0.5, 0.5], 0.1)
        with pytest.raises(ValueError, match="length 3"):
            _euler(spec, game, [[0.5] * 3] * 2, (0.1, 0.2), dg.StopCriteria())
        with pytest.raises(ValueError):
            dg.direction(spec, game, [0.5] * 5)

    # A single rate was broadcast to every row of a batch in which no row
    # stops (a budget of 5); where a row stops (the start past the bound)
    # the batch failed in NumPy.
    @pytest.mark.parametrize("far", [False, True])
    @pytest.mark.parametrize("etas", [(0.1,), (0.1, 0.2), (0.1,) * 4])
    def test_one_rate_per_start_point(self, etas, far):
        game = dg.catalog_game("example4")
        starts = [[0.5, 0.5], [-0.5, 1.0], [20.0 if far else 2.0, 0.0]]
        stop = dg.StopCriteria(max_iters=5, loss_window=5,
                               divergence_norm=10.0)
        with pytest.raises(ValueError, match=(
                f"got {len(etas)} learning rates for 3 start points")):
            _euler(dg.AdjusterSpec("simgd"), game, starts, etas, stop)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_point_raises(self, bad):
        game = dg.catalog_game("example1")
        with pytest.raises(ValueError, match="non-finite"):
            dg.run(dg.AdjusterSpec("simgd"), game, [bad, 0.0, 0.0, 0.0], 0.1)

    def test_cells_are_independent_of_their_batch(self):
        # A cell's result does not depend on which cells share its batch,
        # also when one of them starts past the norm bound: that cell ends
        # at iteration 0 with an empty window and leaves the batch before
        # its first step.
        game = dg.catalog_game("fig7_four_player")
        spec = dg.AdjusterSpec("sga-aligned", lam=1.0)
        stop = dg.StopCriteria(max_iters=400)
        rng = np.random.default_rng(5)
        starts = np.insert(rng.standard_normal((6, game.dim)), 2,
                           np.full(game.dim, stop.divergence_norm), axis=0)
        etas = (0.05, 0.2, 0.3, 0.4, 0.6, 0.9, 1.5)
        together, _ = _euler(spec, game, starts, etas, stop)
        assert (together[2].outcome, together[2].iteration) == \
            (dg.DIVERGED, 0)
        assert together[2].window.shape == (0,)
        for k, end in enumerate(together):
            (alone,), _ = _euler(spec, game, starts[k:k + 1], etas[k:k + 1],
                                 stop)
            assert (end.outcome, end.iteration) == \
                (alone.outcome, alone.iteration)
            assert np.array_equal(end.window, alone.window)


# The oracle rule of the benchmark: a cell is judged only when rho is at
# least DELTA away from 1; below 1 it must converge within about
# 3 log(tol / |w0|) / log(rho) iterations, above 1 diverge within
# 3 log(divergence_norm / |w0|) / log(rho), and where the budget is too
# short for that only the opposite outcome is ruled out.  Convergence is
# |xi| < XI_TOL with the loss window off: with S >= I, |w| <= |xi|, so no
# transient can pass for convergence.  (The loss window can: a start with a
# small component along the one expanding mode dips below the loss
# threshold before that mode takes over.)
DELTA = 0.02
XI_TOL = 1e-6
ORACLE_STOP = dg.StopCriteria(max_iters=1500, loss_threshold=0.0,
                              xi_threshold=XI_TOL)
ORACLE_ETAS = tuple(np.geomspace(0.005, 4.0, 18))
PARTITIONS = {2: (1, 1), 4: (2, 2), 8: (3, 3, 2)}


@pytest.mark.parametrize("d", sorted(PARTITIONS))
@pytest.mark.parametrize("kind", dg.LINEAR_KINDS)
def test_outcomes_agree_with_the_oracle(d, kind):
    rng = np.random.default_rng(100 + d)
    # S eigenvalues in [1, 2]: every rule has cells on both sides of 1.
    game = random_realizable_game(rng, dg.PlayerPartition(PARTITIONS[d]),
                                  1.0, 2.0)
    starts = rng.standard_normal((len(ORACLE_ETAS), d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    spec = dg.AdjusterSpec(kind, lam=1.0)
    stop = ORACLE_STOP
    ends, _ = _euler(spec, game, starts, ORACLE_ETAS, stop)
    # |w| below tol implies |xi| below XI_TOL.
    tol = XI_TOL / np.linalg.norm(game.hessian_matrix, 2)
    sides = set()
    for eta, end in zip(ORACLE_ETAS, ends):
        rho = dg.spectral_oracle(spec, game, eta).spectral_radius
        if rho < 1.0 - DELTA:
            need = 3 * math.log(tol) / math.log(rho)
            ok = (end.outcome == dg.CONVERGED if stop.max_iters >= need
                  else end.outcome != dg.DIVERGED)
            sides.add("below")
        elif rho > 1.0 + DELTA:
            need = 3 * math.log(stop.divergence_norm) / math.log(rho)
            ok = (end.outcome == dg.DIVERGED if stop.max_iters >= need
                  else end.outcome != dg.CONVERGED)
            sides.add("above")
        else:
            continue
        assert ok, (kind, d, eta, rho, end.outcome)
    assert sides == {"below", "above"}, (kind, d)


# Block stepping: the engine decides its stop tests once per block of steps,
# and a cell's result must not depend on the block length.  Blocks of one
# step test every step, as a loop without blocks would; each other length k
# is compared with them, at loss windows and budgets of 1, k - 1, k, k + 1
# and a few blocks, and at rates from a slow descent to an overflow in one
# step, so every stop reason falls at several offsets inside a block.  The
# engine's own schedule, whose blocks grow with the batch's age, is compared
# with them at budgets of a thousand iterations and more.
BLOCKS = (2, 3, 7, dynamics._BLOCK_STEPS)
BLOCK_ETAS = (tuple(np.geomspace(1e-2, 4.0, 20))
              + tuple(np.geomspace(10.0, 1e250, 12)))
BLOCK_SCALES = np.random.default_rng(0).permutation(
    np.geomspace(1e-2, 1.0, len(BLOCK_ETAS)))
# The cells also run alone: they stop on the loss window, |xi|, the norm
# bound and the budget at many offsets, and on non-finite values at two.
RUN_CELLS = [3, 16, 21, 22]


def fixed_blocks(patch, k):
    """Make the engine step a quadratic game in blocks of k steps (the
    last one cut at the budget) instead of its own schedule."""
    patch.setattr(dynamics, "_block_length",
                  lambda game, t0, rows, left: min(k, left))


def recorded_blocks(patch):
    """Record the (t0, k) of every block the engine's own schedule takes,
    in the list returned."""
    blocks, schedule = [], dynamics._block_length

    def block_length(game, t0, rows, left):
        k = schedule(game, t0, rows, left)
        blocks.append((t0, k))
        return k
    patch.setattr(dynamics, "_block_length", block_length)
    return blocks


def block_stops(k):
    """Each loss window with a budget of several blocks and a norm bound
    of 1e6, and each budget with no norm bound, so that a blow-up stops on
    the bound at one setting and on non-finite losses or field at the
    other, and both forms of the bound test run."""
    windows = sorted({1, k - 1, k, k + 1, 3 * k})
    budgets = sorted({1, k - 1, k, k + 1, 2 * k + 3})
    common = dict(loss_threshold=1e-2, xi_threshold=1e-2)
    return ([dg.StopCriteria(max_iters=max(2 * k + 3, window + k),
                             loss_window=window, divergence_norm=1e6,
                             **common)
             for window in windows]
            + [dg.StopCriteria(max_iters=budget, loss_window=min(k, budget),
                               divergence_norm=math.inf, **common)
               for budget in budgets])


@pytest.mark.bit_identity
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockLength:
    # Stop offsets (iteration mod k) seen per reason at the default k, and
    # the games that were run there.
    offsets = {}
    covered = set()

    def outcomes(self, monkeypatch, k, spec, game, starts, stop):
        """The engine's cell ends and the lone runs of the RUN_CELLS, with
        blocks of k steps."""
        with monkeypatch.context() as patch:
            fixed_blocks(patch, k)
            ends, _ = _euler(spec, game, starts, BLOCK_ETAS, stop)
            runs = [dg.run(spec, game, starts[c], BLOCK_ETAS[c], stop)
                    for c in RUN_CELLS]
        return ends, runs

    def check_against_blocks_of_one(self, ends, runs, ref_ends, ref_runs,
                                    where):
        for end, ref in zip(ends, ref_ends, strict=True):
            assert (end.outcome, end.iteration) == \
                (ref.outcome, ref.iteration), where
            assert end.window.tobytes() == ref.window.tobytes(), where
        for traj, ref in zip(runs, ref_runs, strict=True):
            for array in TRAJECTORY_ARRAYS:
                assert getattr(traj, array).tobytes() == \
                    getattr(ref, array).tobytes(), (where, array)
            assert (traj.outcome, traj.outcome_iteration) == \
                (ref.outcome, ref.outcome_iteration), where

    @pytest.mark.parametrize("k", BLOCKS)
    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_results_do_not_depend_on_the_block_length(self, monkeypatch,
                                                       name, params, k):
        game = dg.catalog_game(name, **params)
        # The budgets below end before the engine's blocks grow.
        assert dynamics._block_length(game, 63, len(BLOCK_ETAS), 64) == \
            dynamics._BLOCK_STEPS
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        starts = (rng.standard_normal((len(BLOCK_ETAS), game.dim))
                  * BLOCK_SCALES[:, None])
        for stop in block_stops(k):
            for kind in dg.KINDS:
                spec = dg.AdjusterSpec(kind, lam=0.5)
                where = (kind, stop.loss_window, stop.max_iters)
                ends, runs = self.outcomes(monkeypatch, k, spec, game, starts,
                                           stop)
                ref_ends, ref_runs = self.outcomes(monkeypatch, 1, spec, game,
                                                   starts, stop)
                self.check_against_blocks_of_one(ends, runs, ref_ends,
                                                 ref_runs, where)
                for ref in ref_runs:
                    if k == dynamics._BLOCK_STEPS:
                        self.offsets.setdefault(
                            stop_reason(ref, stop), set()).add(
                            ref.outcome_iteration % k)
        if k == dynamics._BLOCK_STEPS:
            self.covered.add(name)

    def test_grid_puts_every_stop_reason_at_several_offsets(self,
                                                           monkeypatch):
        for name, params in CATALOG_DEFAULTS:
            if name not in self.covered:
                self.test_results_do_not_depend_on_the_block_length(
                    monkeypatch, name, params, dynamics._BLOCK_STEPS)
        assert set(self.offsets) == {"budget", "loss", "xi", "norm",
                                     "nonfinite"}
        assert all(len(seen) >= 2 for seen in self.offsets.values())

    # Two budgets of 1,200 iterations: a loss window of 10 with |xi| at
    # 1e-3 and a norm bound of 1e6; and a window of 300 at a loss
    # threshold of 1e-5 with |xi| at 1e-2 and no norm bound.  From slow
    # descents to slow blow-ups, every stop reason falls past iteration 136,
    # where the blocks have grown.
    GROWN_ETAS = (tuple(np.geomspace(1e-4, 2.0, 20))
                  + tuple(np.geomspace(2.5, 40.0, 8)))
    GROWN_STOPS = (
        dg.StopCriteria(max_iters=1200, loss_window=10, loss_threshold=1e-2,
                        xi_threshold=1e-3, divergence_norm=1e6),
        dg.StopCriteria(max_iters=1200, loss_window=300,
                        loss_threshold=1e-5, xi_threshold=1e-2,
                        divergence_norm=math.inf))
    GROWN_RUN_CELLS = (4, 19)

    @pytest.mark.parametrize("name", ["example6", "fig7_four_player"])
    def test_grown_blocks_equal_blocks_of_one(self, monkeypatch, name):
        game = dg.catalog_game(name)
        etas = self.GROWN_ETAS
        starts = np.random.default_rng(1).standard_normal((len(etas),
                                                           game.dim))
        grown = set()
        for stop in self.GROWN_STOPS:
            for kind in dg.KINDS:
                spec = dg.AdjusterSpec(kind, lam=0.5)
                where = (kind, stop.loss_window)
                with monkeypatch.context() as patch:
                    blocks = recorded_blocks(patch)
                    ends, _ = _euler(spec, game, starts, etas, stop)
                runs = [dg.run(spec, game, starts[c], etas[c], stop)
                        for c in self.GROWN_RUN_CELLS]
                with monkeypatch.context() as patch:
                    fixed_blocks(patch, 1)
                    ref_ends, _ = _euler(spec, game, starts, etas, stop)
                    ref_runs = [dg.run(spec, game, starts[c], etas[c], stop)
                                for c in self.GROWN_RUN_CELLS]
                self.check_against_blocks_of_one(ends, runs, ref_ends,
                                                 ref_runs, where)
                for end, w0, eta in zip(ends, starts, etas):
                    reason = stop_reason(
                        run_quietly(spec, game, w0, eta, stop), stop)
                    # The pass of the block [t0, t0 + k) tests the bound on
                    # the points its steps made, iterations t0 + 1 to
                    # t0 + k, and the other tests at its steps.
                    t = end.iteration - (reason in ("norm", "budget"))
                    k = next(k for t0, k in blocks if t0 <= t < t0 + k)
                    if k > dynamics._BLOCK_STEPS:
                        grown.add(reason)
        assert grown == {"budget", "loss", "xi", "norm", "nonfinite"}


class CountingQuadraticGame(dg.QuadraticGame):
    """A quadratic game that counts its batched field evaluations, one per
    engine step."""

    def __init__(self, game):
        super().__init__(game.partition, game.coefficients, game.linear_terms)
        self.calls = 0

    def batch_field(self, points):
        self.calls += 1
        return super().batch_field(points)


def processed(end):
    """The iterations a cell evaluated: a cell past the norm bound at t
    was not evaluated there, one that converged at t was.  (The rates
    below blow up through the norm bound, not to non-finite values.)"""
    return end.iteration + (end.outcome == dg.CONVERGED)


def waste_bound(last):
    """The most iterations a batch evaluates past its last stop, which it
    processed up to iteration ``last``: one less than its last block,
    which started at an iteration t0 <= last and so has at most
    max(_BLOCK_STEPS, last // _BLOCK_AGE) steps."""
    return max(dynamics._BLOCK_STEPS, last // dynamics._BLOCK_AGE) - 1


class TestBlockGate:
    """Only a quadratic game steps in blocks, and there a batch evaluates
    at most ``waste_bound`` iterations past its last stop: _BLOCK_STEPS - 1
    up to iteration 136, under 1 / _BLOCK_AGE of those it processed from
    there on.  A general game evaluates once per iteration
    (``test_general_game.py``'s ``TestFieldEvaluationsPerIteration``)."""

    @pytest.mark.parametrize("sizes", [(1, 1), (8, 8, 8, 8), (32,) * 8,
                                       (2, 2)])
    def test_quadratic_games_step_in_blocks(self, sizes):
        game = random_realizable_game(np.random.default_rng(0),
                                      dg.PlayerPartition(sizes), 0.5, 1.0)
        length = dynamics._block_length
        steps = dynamics._BLOCK_STEPS
        assert length(game, 0, 1, 10**4) == steps
        assert length(game, 135, 1, 10**4) == steps
        # A block grows with the batch's age, never past the budget ...
        assert length(game, 136, 1, 10**4) == 17
        assert length(game, 200, 1, 10) == 10
        # ... nor past _BLOCK_BYTES of points, unless it has only
        # _BLOCK_STEPS: a lone row of d <= 32 grows to 1,000 steps, a
        # large sweep keeps blocks of 16.
        fit = dynamics._BLOCK_BYTES // (8 * game.dim)
        assert length(game, 8000, 1, 10**4) == min(1000, fit)
        assert length(game, 8000, 1000, 10**4) == max(steps, fit // 1000)
        assert length(plain_game(game), 0, 1, 10**4) == 1
        assert length(plain_game(game), 8000, 1, 10**4) == 1

    @staticmethod
    def potential_game(sizes):
        """A counting quadratic game with H symmetric, eigenvalues in
        [0.5, 1], and a start point: every rule converges at rates 0.25
        and 0.45 and diverges at 3."""
        partition = dg.PlayerPartition(sizes)
        rng = np.random.default_rng(len(sizes))
        h = random_symmetric(rng, partition.total, 0.5, 1.0)
        return (CountingQuadraticGame(
                    dg.quadratic_game_from_hessian(partition, h)),
                rng.standard_normal(partition.total))

    @pytest.mark.parametrize("kind", dg.KINDS)
    @pytest.mark.parametrize("sizes", [(2, 2), (32,) * 8])
    def test_evaluates_at_most_a_block_past_its_stop(self, sizes, kind):
        # (32,) * 8 is the size of the bench's `wide` game.
        game, w0 = self.potential_game(sizes)
        spec, stop = dg.AdjusterSpec(kind), dg.StopCriteria(max_iters=300)
        traj = dg.run(spec, game, w0, 0.25, stop)
        assert traj.outcome == dg.CONVERGED
        assert len(traj.xi_norms) <= game.calls \
            <= len(traj.xi_norms) + dynamics._BLOCK_STEPS - 1
        game.calls = 0
        ends, _ = _euler(spec, game, [w0, w0, -w0], (0.25, 0.45, 3.0), stop)
        assert {end.outcome for end in ends} == {dg.CONVERGED, dg.DIVERGED}
        last = max(map(processed, ends))
        assert last <= game.calls <= last + dynamics._BLOCK_STEPS - 1

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_evaluates_a_share_of_its_steps_past_a_late_stop(self, kind):
        # At rate 0.005 every rule converges after more than 136
        # iterations, inside a grown block.
        game, w0 = self.potential_game((2, 2))
        spec, stop = dg.AdjusterSpec(kind), dg.StopCriteria(max_iters=10**4)
        traj = dg.run(spec, game, w0, 0.005, stop)
        last = len(traj.xi_norms)
        assert traj.outcome == dg.CONVERGED and last > 136 + 16
        assert last <= game.calls <= last + waste_bound(last)
        game.calls = 0
        ends, _ = _euler(spec, game, [w0, w0, -w0], (0.005, 0.01, 3.0), stop)
        assert [end.outcome for end in ends] == \
            [dg.CONVERGED, dg.CONVERGED, dg.DIVERGED]
        last = max(map(processed, ends))
        assert last > 136 + 16
        assert last <= game.calls <= last + waste_bound(last)


def plain_simgd(game, w0, eta, stop):
    """Simultaneous gradient descent from w0, one step at a time, with each
    stop test written out after every step in the engine's order.  Returns
    the outcome, the deciding iteration, the window (a list) and the point
    the cell stopped at."""
    w, means, span = np.array(w0, dtype=float), [], stop.loss_window
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(stop.max_iters):
            if math.isfinite(stop.divergence_norm):
                beyond = not math.sqrt(w @ w) <= stop.divergence_norm
            else:
                beyond = not np.isfinite(w).all()
            if beyond:
                return dg.DIVERGED, t, means[-span:], w
            losses = game.loss_vector(w)
            xi = np.concatenate([game.player_gradient(i, w)
                                 for i in range(game.num_players)])
            if not (np.isfinite(losses).all() and np.isfinite(xi).all()):
                return dg.DIVERGED, t, means[-span:], w
            means.append(np.add.reduce(np.absolute(losses)) / len(losses))
            if (stop.xi_threshold is not None
                    and math.sqrt(xi @ xi) < stop.xi_threshold):
                return dg.CONVERGED, t, means[-span:], w
            if (len(means) >= span
                    and np.add.reduce(means[-span:]) / span
                    < stop.loss_threshold):
                return dg.CONVERGED, t, means[-span:], w
            w = w - eta * xi
    return dg.MAX_ITERS, stop.max_iters, means[-span:], w


@pytest.mark.bit_identity
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStopScreens:
    """The stop pass decides each test of a block's steps with one mask,
    and the loss window only where a lower bound on its means (the least
    mean the windows read) does not already clear the threshold.  Each
    case sits on the edge of one test, where a mask or a bound that was
    not exact would skip a stop or make one, and the engine must then
    match a plain per-step loop at blocks of one step and at the engine's
    own blocks."""

    def check(self, monkeypatch, game, starts, etas, stop):
        """The plain loop's result for each cell, after checking that the
        engine's equals it."""
        refs = [plain_simgd(game, w0, eta, stop)
                for w0, eta in zip(starts, etas)]
        for k in (1, None):
            with monkeypatch.context() as patch:
                if k is not None:
                    fixed_blocks(patch, k)
                ends, _ = _euler(dg.AdjusterSpec("simgd"), game, starts,
                                 etas, stop)
            for end, (outcome, t, window, _) in zip(ends, refs, strict=True):
                where = (k, stop, outcome, t)
                assert (end.outcome, end.iteration) == (outcome, t), where
                assert end.window.tobytes() == \
                    np.array(window, dtype=float).tobytes(), where
        return refs

    def test_loss_window_at_a_constant_mean(self, monkeypatch):
        # Player 1's loss is 0.6 w_2^2 and player 2's is 0, so the field
        # is 0 everywhere: each cell stays at its start, where the mean
        # absolute loss is m = 0.3 at every step.
        game = dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                                [np.diag([0.0, 1.2]), np.zeros((2, 2))])
        starts, etas = [[0.0, 1.0], [2.0, 1.0], [-3.0, -1.0]], (0.1, 0.5, 1.0)
        m = np.add.reduce(np.absolute(game.loss_vector(np.ones(2)))) / 2
        below = 0
        for span in range(1, 21):
            mean = np.add.reduce([m] * span) / span
            below += mean < m
            for threshold in (np.nextafter(mean, -np.inf), mean,
                              np.nextafter(mean, np.inf)):
                stop = dg.StopCriteria(max_iters=40, loss_window=span,
                                       loss_threshold=threshold)
                refs = self.check(monkeypatch, game, starts, etas, stop)
                assert {ref[:2] for ref in refs} == (
                    {(dg.CONVERGED, span - 1)} if threshold > mean
                    else {(dg.MAX_ITERS, 40)})
        # Some windows of m sum to less than span * m: there the least
        # mean alone is no lower bound on the window mean.
        assert below

    def test_norm_bound_at_an_observed_norm(self, monkeypatch):
        # Simultaneous descent on x^2 - y^2 (example4) grows |w| at every
        # step from (0.5, 0.5); the bound is the norm of its point t, so
        # that cell stops at t + 1, or at t when the bound is a float
        # less.  t = 16 and 32 are tested before a block of 16.
        game = dg.catalog_game("example4")
        starts, etas = [[0.5, 0.5], [0.3, -0.4], [1.0, 0.01]], (0.1, 0.1, 0.05)
        free = dg.StopCriteria(max_iters=40, loss_threshold=0.0,
                               divergence_norm=math.inf)
        points = dg.run(dg.AdjusterSpec("simgd"), game, starts[0], etas[0],
                        free).points
        for t in (1, 5, 15, 16, 17, 32, 33):
            norm = math.sqrt(points[t] @ points[t])
            for bound in (norm, np.nextafter(norm, 0.0)):
                stop = dg.StopCriteria(max_iters=40, loss_threshold=0.0,
                                       divergence_norm=bound)
                refs = self.check(monkeypatch, game, starts, etas, stop)
                assert refs[0][:2] == (dg.DIVERGED, t + (bound == norm))

    def test_xi_threshold_at_an_observed_field_norm(self, monkeypatch):
        # Player 1's loss is x^2 / 2 and player 2's y^2 / 2, so the field
        # is w and simultaneous descent shrinks |xi| at every step; the
        # threshold is the field norm at iteration t, so that cell stops
        # at t + 1, or at t when the threshold is a float more.  Blocks
        # of 16 end at 15 and 16, and grown blocks start at 136 and 152.
        game = dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        starts = [[0.5, 0.5], [0.3, -0.4], [1.0, 0.01]]
        etas = (0.01, 0.02, 0.005)
        free = dg.StopCriteria(max_iters=240, loss_threshold=0.0)
        norms = dg.run(dg.AdjusterSpec("simgd"), game, starts[0], etas[0],
                       free).xi_norms
        for t in (1, 15, 16, 17, 136, 151, 152, 200):
            for threshold in (norms[t], np.nextafter(norms[t], np.inf)):
                stop = dg.StopCriteria(max_iters=240, loss_threshold=0.0,
                                       xi_threshold=threshold)
                refs = self.check(monkeypatch, game, starts, etas, stop)
                assert refs[0][:2] == (dg.CONVERGED,
                                       t + (threshold == norms[t]))

    def test_a_row_turns_nan_mid_block(self, monkeypatch):
        # Player 1's loss is x^2 / 2 - 1e150 y and player 2's y^2 / 2, so
        # the field is w and a step scales w by 1 - eta.  From (1, 1) at a
        # huge eta, x = y reaches about 1e160 after an even number of
        # steps; there player 1's loss is inf - inf: NaN at a finite point,
        # mid-block for all but the first rate.  The last cell runs on.
        game = dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                                [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                                [[0.0, -1e150], [0.0, 0.0]])
        starts = [[1.0, 1.0]] * 4 + [[1.0, 0.5]]
        etas = (1e10, 3e11, 1e20, 1e30, 0.05)
        stop = dg.StopCriteria(max_iters=40, loss_window=3,
                               divergence_norm=math.inf)
        refs = self.check(monkeypatch, game, starts, etas, stop)
        with np.errstate(over="ignore", invalid="ignore"):
            nan_at = [t for _, t, _, w in refs
                      if np.isnan(game.loss_vector(w)).any()
                      and np.isfinite(w).all()]
        assert nan_at == [16, 14, 8, 6]
        assert refs[4][0] == dg.MAX_ITERS


@pytest.mark.bit_identity
class TestWindowMeans:
    """``_Ledger.window_means`` sums every window of a block in one reduce
    over the gathered windows; each must have the bits of one
    ``np.add.reduce`` of that window alone.  NumPy sums pairwise from 8
    terms on, so the spans straddle 8, and the blocks include grown ones
    longer than the span.  ``finish`` must cut each row's window from the
    means at a stop on the block's first step and on its last."""

    @pytest.mark.parametrize("rows", [1, 3, 20])
    @pytest.mark.parametrize("span", [1, 2, 7, 8, 9, 10, 100, 129])
    def test_each_window_sums_as_a_lone_reduce(self, span, rows):
        rng = np.random.default_rng(100 * span + rows)
        ledger = dynamics._Ledger(rows, np.ones(rows), span, 4)
        history = np.empty((rows, 0))
        for k in (1, 16, 17, 5, 40, 300):
            # Means over several orders of magnitude, so that rounding
            # depends on the order of the sum.
            means = rng.lognormal(sigma=4.0, size=(k, rows))
            ledger.store(means)
            history = np.concatenate([history, means.T], axis=1)
            want = np.full((k, rows), np.inf)
            for j in range(k):
                t = ledger.t0 + j
                if t + 1 >= span:
                    for row in range(rows):
                        window = history[row, t + 1 - span:t + 1]
                        want[j, row] = np.add.reduce(window) / span
            assert ledger.window_means(k).tobytes() == want.tobytes(), k
            for last in (ledger.t0 - 1, ledger.t0 + k - 1):
                for row in range(rows):
                    ledger.finish(row, dynamics.CONVERGED, last)
                    window = history[row, max(last + 1 - span, 0):last + 1]
                    assert (ledger.ends[row].window.tobytes()
                            == window.tobytes()), (k, last, row)
            ledger.advance(k)


def reference_loop(spec, game, w0, eta, steps):
    """``steps`` Euler steps written out as a plain Python loop of
    ``w - eta * direction(spec, game, w, prev_xi)``, with the field and the
    sign each step applies taken by the public functions.  Returns the
    points, the field norms, the signs and the mean absolute losses."""
    w, prev = np.array(w0, dtype=float), None
    points, norms, signs, means = [w], [], [], []
    weighted = 1.0 if spec.lam >= 0 else -1.0
    for _ in range(steps):
        xi = dg.simultaneous_gradient(game, w)
        grad_h = dg.thvp(game, w, xi)
        if spec.kind == dg.ALIGNED_CONSENSUS:
            signs.append(1.0 if xi @ grad_h >= 0 else -1.0)
        elif spec.kind == dg.SGA_ALIGNED:
            at_xi = 0.5 * (grad_h - dg.hvp(game, w, xi))
            signs.append(dg.alignment_sign(xi, at_xi, grad_h, spec.epsilon))
        elif spec.kind in (dg.CONSENSUS, dg.SGA):
            signs.append(weighted)
        else:
            signs.append(0.0)
        losses = game.loss_vector(w)
        means.append(np.add.reduce(np.absolute(losses)) / len(losses))
        norms.append(np.sqrt(xi @ xi))
        w = w - eta * dg.direction(spec, game, w, prev)
        points.append(w)
        prev = xi
    return np.array(points), np.array(norms), np.array(signs), means


@pytest.mark.bit_identity
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestReferenceLoop:
    """Every rule's engine equals a plain loop of ``direction`` steps bit
    for bit, over many blocks: on a quadratic game whose blocks outgrow the
    engine's buffers, in a lone run and in a batch whose other rows stopped
    first, and on a general game, stepped in blocks of one.  Unlike
    ``TestBlockLength``, whose reference runs the engine with blocks of
    one, the reference shares none of the engine's buffers, so it also
    sees a step that reads a buffer a later step wrote (omd's previous
    field above all)."""

    BUDGET = 700
    STOP = dg.StopCriteria(max_iters=BUDGET, loss_window=10,
                           loss_threshold=0.0, divergence_norm=1e6)

    @staticmethod
    def check_run(spec, game, w0, eta, stop):
        """Check ``run`` against the reference loop up to its stop, and
        return its outcome and iteration."""
        traj = dg.run(spec, game, w0, eta, stop)
        t = traj.outcome_iteration
        # A run that converged at t processed iteration t; any other did
        # not, and the reference must not step from a point past a stop.
        processed = t + (traj.outcome == dg.CONVERGED)
        points, norms, signs, means = reference_loop(spec, game, w0, eta,
                                                     processed)
        assert len(traj.points) == t + 1
        assert traj.points.tobytes() == points[:t + 1].tobytes()
        mean_abs = (np.add.reduce(np.absolute(traj.losses), axis=1)
                    / game.num_players)
        for got, want in ((traj.xi_norms, norms), (traj.signs, signs),
                          (mean_abs, np.array(means))):
            assert len(got) == processed
            assert got.tobytes() == want.tobytes()
        return traj.outcome, t

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_quadratic_game(self, monkeypatch, kind):
        game, eta = dg.catalog_game("fig7_four_player"), 0.01
        spec = dg.AdjusterSpec(kind, lam=0.5)
        w0 = np.random.default_rng(3).standard_normal(game.dim)
        assert self.check_run(spec, game, w0, eta, self.STOP) == (
            dg.MAX_ITERS, self.BUDGET)
        # A batch: the other rows blow up in the first blocks and leave it,
        # then the blocks of the last one outgrow the buffers made after.
        builds, workspace = [], dynamics._Workspace

        def recorded(w, prev, size):
            builds.append((len(w), size))
            return workspace(w, prev, size)
        monkeypatch.setattr(dynamics, "_Workspace", recorded)
        ends, _ = _euler(spec, game, [w0, w0, -w0], (eta, 30.0, 300.0),
                         self.STOP)
        assert [end.outcome for end in ends] == [dg.MAX_ITERS, dg.DIVERGED,
                                                 dg.DIVERGED]
        assert ends[1].iteration < 64 and ends[2].iteration < 64
        rows = [c for c, _ in builds]
        assert rows[0] == 3 and rows[-1] == 1
        assert builds[-1][1] > min(size for c, size in builds if c == 1)
        _, _, _, means = reference_loop(spec, game, w0, eta, self.BUDGET)
        assert ends[0].window.tobytes() == np.array(means[-10:]).tobytes()

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_general_game(self, kind):
        # A general game steps in blocks of one, one step per pass.
        game = TanhGame().build(analytic_hessian=True)
        w0 = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
        stop = dg.StopCriteria(max_iters=40, loss_window=10,
                               loss_threshold=0.0)
        assert self.check_run(dg.AdjusterSpec(kind, lam=0.5), game, w0, 0.05,
                              stop) == (dg.MAX_ITERS, 40)

    # The aligned rules with a sign that flips inside a block: once, at
    # iteration 9, and 331 times.
    @pytest.mark.parametrize("kind,name,w0,epsilon", [
        (dg.ALIGNED_CONSENSUS, "example7", [0.3, -0.7], 0.1),
        (dg.SGA_ALIGNED, "example1",
         np.random.default_rng(0).standard_normal(4), 0.0),
    ])
    def test_aligned_sign_flips(self, kind, name, w0, epsilon):
        game, eta = dg.catalog_game(name), 0.01
        spec = dg.AdjusterSpec(kind, lam=0.5, epsilon=epsilon)
        assert self.check_run(spec, game, w0, eta, self.STOP) == (
            dg.MAX_ITERS, self.BUDGET)
        signs = dg.run(spec, game, w0, eta, self.STOP).signs
        assert set(signs.tolist()) == {-1.0, 1.0}

    # A run that stops by each test: on fig7 inside a block longer than 16
    # steps (blocks 204-228, 229-256 and 365-409), on the general game at
    # a step of its own.  (A non-finite stop is left out: the reference
    # loop would warn there.)
    @pytest.mark.parametrize("name,kind,eta,limit,want", [
        ("fig7", dg.OMD, 0.2, {"loss_threshold": 0.01}, (dg.CONVERGED, 382)),
        ("fig7", dg.HAMILTONIAN_DESCENT, 0.2, {"xi_threshold": 1e-3},
         (dg.CONVERGED, 205)),
        ("fig7", dg.SIMGD, 0.1, {"divergence_norm": 1e3}, (dg.DIVERGED, 242)),
        ("tanh", dg.SGA, 0.01, {"loss_threshold": 0.01}, (dg.CONVERGED, 95)),
        ("tanh", dg.CONSENSUS, 0.1, {"xi_threshold": 1e-3},
         (dg.CONVERGED, 84)),
        ("tanh", dg.HAMILTONIAN_DESCENT, 0.5, {"divergence_norm": 1e3},
         (dg.DIVERGED, 66)),
    ])
    def test_run_that_stops(self, name, kind, eta, limit, want):
        if name == "fig7":
            game = dg.catalog_game("fig7_four_player")
            w0 = np.random.default_rng(3).standard_normal(game.dim)
        else:
            game = TanhGame().build(analytic_hessian=True)
            w0 = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
        # Only the test given a limit fires: the others are off or out of
        # reach.
        stop = dataclasses.replace(self.STOP, **limit)
        assert self.check_run(dg.AdjusterSpec(kind, lam=0.5), game, w0, eta,
                              stop) == want
