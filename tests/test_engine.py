"""The batched Euler engine: a sweep steps each rule's cells together, and
every cell must equal a lone ``run`` bit for bit; on random games its
outcomes must agree with the exact spectral oracle."""

import math

import numpy as np
import pytest

import diffgames as dg
from diffgames.dynamics import _euler
from diffgames.experiments import _start_points, _trailing_loss

from conftest import CATALOG_DEFAULTS, plain_game, random_realizable_game

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


# The largest rates overflow on purpose, in the batched and the per-row path
# alike; the overflow is what the non-finite and norm-bound stops catch.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
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
            cells = dg.sweep(config).cells
            starts = _start_points(config, game.dim)
            stopped_at = set()
            for cell, eta, (w0,) in zip(cells, MIXED_ETAS, starts):
                spec = config.adjusters[0]
                where = (name, kind, eta)
                ref = dg.run(spec, plain, w0, eta, MIXED_STOP)
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
                    ref = dg.run(spec, plain, w0, eta, stop)
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
    def test_wrong_length_start_point_raises(self):
        game = dg.catalog_game("fig7_four_player")
        spec = dg.AdjusterSpec("omd")
        with pytest.raises(ValueError, match="length 3"):
            dg.run(spec, game, [0.5, 0.5, 0.5], 0.1)
        with pytest.raises(ValueError, match="length 3"):
            _euler(spec, game, [[0.5] * 3] * 2, (0.1, 0.2), dg.StopCriteria())
        with pytest.raises(ValueError):
            dg.direction(spec, game, [0.5] * 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_point_raises(self, bad):
        game = dg.catalog_game("example1")
        with pytest.raises(ValueError, match="non-finite"):
            dg.run(dg.AdjusterSpec("simgd"), game, [bad, 0.0, 0.0, 0.0], 0.1)

    def test_cells_are_independent_of_their_batch(self):
        # A cell's result does not depend on which cells share its batch.
        game = dg.catalog_game("fig7_four_player")
        spec = dg.AdjusterSpec("sga-aligned", lam=1.0)
        stop = dg.StopCriteria(max_iters=400)
        rng = np.random.default_rng(5)
        starts = rng.standard_normal((6, game.dim))
        etas = (0.05, 0.2, 0.4, 0.6, 0.9, 1.5)
        together, _ = _euler(spec, game, starts, etas, stop)
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
