"""The general (non-quadratic) paths end to end, on the tanh-coupled game
of ``conftest``: every rule with and without an analytic Hessian, the probe
diagnostic computed on first read, and the number of field evaluations
each rule pays per iteration."""

import numpy as np
import pytest

import diffgames as dg
from diffgames.dynamics import _euler

from conftest import CATALOG_DEFAULTS, CountingGame, TanhGame

ETA = 0.1
ITERS = 40
# A fixed budget: the loss window is off, so both builds take every step.
BUDGET = dg.StopCriteria(max_iters=ITERS, loss_threshold=0.0)
W0 = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
# Rules whose direction uses no Hessian product.
FIELD_ONLY = (dg.SIMGD, dg.OMD)


def evals_per_iteration(kind, d):
    """Field evaluations one iteration of a rule costs on a game without an
    analytic Hessian: the field, then thvp (2d) and, for the sga rules,
    hvp (2)."""
    if kind in FIELD_ONLY:
        return 1
    return 1 + 2 * d + (2 if kind in (dg.SGA, dg.SGA_ALIGNED) else 0)


@pytest.fixture(scope="module")
def builds():
    tanh = TanhGame()
    return tanh.build(analytic_hessian=True), tanh.build(analytic_hessian=False)


class TestEndToEnd:
    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_both_builds_agree(self, builds, kind):
        spec = dg.AdjusterSpec(kind, lam=1.0)
        analytic, fd = (dg.run(spec, game, W0, ETA, BUDGET) for game in builds)
        for traj in (analytic, fd):
            assert traj.outcome == dg.MAX_ITERS
            assert len(traj.xi_norms) == ITERS
            assert traj.xi_norms[-1] < traj.xi_norms[0]
        np.testing.assert_allclose(fd.points, analytic.points, rtol=0,
                                   atol=1e-6)
        np.testing.assert_allclose(fd.xi_norms, analytic.xi_norms, rtol=0,
                                   atol=1e-6)
        np.testing.assert_allclose(fd.probes, analytic.probes, rtol=0,
                                   atol=1e-6)
        np.testing.assert_array_equal(fd.signs, analytic.signs)

    def test_origin_is_a_stable_nash_point(self, builds):
        for game in builds:
            bundle = dg.analyze_point(game, np.zeros(game.dim))
            assert bundle["game_class"] == dg.GENERAL
            assert bundle["stability"] == dg.STABLE
            assert bundle["local_nash"] is True


class TestProbesOnFirstRead:
    @pytest.mark.parametrize("hessian", [True, False])
    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_equal_the_stability_probe(self, kind, hessian):
        game = TanhGame().build(analytic_hessian=hessian)
        traj = dg.run(dg.AdjusterSpec(kind), game, W0, ETA, BUDGET)
        want = [dg.stability_probe(game, w) for w in traj.points[:ITERS]]
        assert traj.probes.tolist() == want

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_equal_the_stability_probe_on_the_catalog(self, name, params):
        game = dg.catalog_game(name, **params)
        for kind in dg.KINDS:
            traj = dg.run(dg.AdjusterSpec(kind), game,
                          np.full(game.dim, 0.5), 0.05,
                          dg.StopCriteria(max_iters=30))
            n = len(traj.xi_norms)
            want = [dg.stability_probe(game, w) for w in traj.points[:n]]
            assert traj.probes.tolist() == want, kind

    def test_step_probe_is_the_first(self, builds):
        for game in builds:
            want = dg.stability_probe(game, W0)
            for kind in dg.KINDS:
                traj = dg.run(dg.AdjusterSpec(kind), game, W0, ETA, BUDGET)
                assert traj.probes[0] == want

    def test_read_once_and_read_only(self, builds):
        game = CountingGame(builds[1])
        traj = dg.run(dg.AdjusterSpec(dg.SIMGD), game, W0, ETA, BUDGET)
        before = game.field_evals
        probes = traj.probes
        # the field again, then thvp, at every recorded point
        assert game.field_evals - before == ITERS * (1 + 2 * game.dim)
        assert traj.probes is probes
        assert game.field_evals - before == ITERS * (1 + 2 * game.dim)
        with pytest.raises(AttributeError):
            traj.probes = np.zeros(ITERS)

    def test_no_iteration_no_probe(self, builds):
        # On a quadratic game too, whose probes of no points are a batch
        # of no rows.
        quadratic = dg.quadratic_game_from_hessian(TanhGame.partition,
                                                   np.eye(5))
        stop = dg.StopCriteria(divergence_norm=0.1)
        for game in (builds[1], quadratic):
            traj = dg.run(dg.AdjusterSpec(dg.SGA), game, W0, ETA, stop)
            assert traj.outcome == dg.DIVERGED
            assert traj.probes.shape == (0,)


class TestNormBoundMidRun:
    """A cell that crosses a finite norm bound mid-run stops at the first
    point past it, and the game's callables never run there: with an
    analytic Hessian every rule evaluates the field once per processed
    iteration, in a run and in a batch whose cells stop at different
    iterations or not at all."""

    STOP = dg.StopCriteria(max_iters=ITERS, loss_threshold=0.0,
                           divergence_norm=10.0)

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_no_field_evaluation_past_the_bound(self, builds, kind):
        spec, game = dg.AdjusterSpec(kind), CountingGame(builds[0])
        traj = dg.run(spec, game, W0, 1.0, self.STOP)
        assert traj.outcome == dg.DIVERGED
        assert traj.outcome_iteration >= 2
        assert game.field_evals == len(traj.xi_norms) == \
            traj.outcome_iteration
        game.field_evals = 0
        ends, _ = _euler(spec, game, [W0, W0, -W0], [ETA, 1.0, 1.5],
                         self.STOP)
        assert [end.outcome for end in ends] == \
            [dg.MAX_ITERS, dg.DIVERGED, dg.DIVERGED]
        # A cell past the bound at t processed t iterations, one that ran
        # out of budget processed all of them.
        assert game.field_evals == sum(end.iteration for end in ends)


def overflowing_game(analytic_hessian):
    """Two scalar players whose field is infinite wherever player 0's
    coordinate is not 0 (Python floats overflow without a warning)."""
    hessian = (lambda w: np.diag([1e300 * 1e300, 1.0])) \
        if analytic_hessian else None
    return dg.make_game(dg.PlayerPartition((1, 1)),
                        [lambda w: float(w[0]), lambda w: float(w[1])],
                        [lambda w: [float(w[0]) * 1e300 * 1e300],
                         lambda w: [float(w[1])]],
                        hessian)


class TestOverflowingField:
    """A field that overflows at a finite point is a divergence, not bad
    input: the loop hands it to its products unchecked, where the public
    ``hvp`` and ``thvp`` would reject it."""

    @pytest.mark.parametrize("hessian", [True, False],
                             ids=["analytic", "fd"])
    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_run_ends_diverged(self, kind, hessian):
        game = overflowing_game(hessian)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = dg.run(dg.AdjusterSpec(kind), game, [0.5, 0.5], ETA)
            ends, _ = _euler(dg.AdjusterSpec(kind), game,
                             [[0.5, 0.5], [-2.0, 1.0]], [ETA, 1.0], BUDGET)
        assert (traj.outcome, traj.outcome_iteration) == (dg.DIVERGED, 0)
        assert traj.xi_norms.shape == (0,)
        assert [(end.outcome, end.iteration) for end in ends] == \
            [(dg.DIVERGED, 0)] * 2
        with pytest.raises(ValueError, match="^v has non-finite entries$"):
            dg.thvp(game, [0.5, 0.5], dg.simultaneous_gradient(game,
                                                               [0.5, 0.5]))


def recording_game(seen):
    """Player 0's gradient overflows where w_0 > 1 and is w_0 elsewhere,
    player 1's is w_1; every point a callable is given is appended to
    ``seen``."""
    def recorded(f):
        def call(w):
            seen.append(np.array(w, dtype=float))
            return f(w)
        return call

    return dg.make_game(
        dg.PlayerPartition((1, 1)),
        [recorded(lambda w: float(w[0])), recorded(lambda w: float(w[1]))],
        [recorded(lambda w: [float(w[0]) * (1e300 * 1e300 if w[0] > 1
                                            else 1.0)]),
         recorded(lambda w: [float(w[1])])])


class TestNoCallsAtNonFinitePoints:
    """A row whose field overflowed stops at that step, so the loop takes
    no Hessian product there: a finite-difference hvp of a non-finite v
    would call the user's gradients at w +- h * nan."""

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_callables_see_only_finite_points(self, kind):
        seen = []
        game, spec = recording_game(seen), dg.AdjusterSpec(kind)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = dg.run(spec, game, [2.0, 0.5], ETA)
            ends, _ = _euler(spec, game, [[2.0, 0.5], [0.5, 0.5]],
                             [ETA, ETA], BUDGET)
        assert (traj.outcome, traj.outcome_iteration) == (dg.DIVERGED, 0)
        assert (ends[0].outcome, ends[0].iteration) == (dg.DIVERGED, 0)
        assert seen and all(np.isfinite(w).all() for w in seen), kind
        # The finite row is the lone run of its cell.
        (alone,), _ = _euler(spec, game, [[0.5, 0.5]], [ETA], BUDGET)
        assert (ends[1].outcome, ends[1].iteration) == \
            (alone.outcome, alone.iteration) == (dg.MAX_ITERS, ITERS)
        assert ends[1].window.tobytes() == alone.window.tobytes()


class TestFieldEvaluationsPerIteration:
    """Without an analytic Hessian a rule pays only for the products its
    direction uses: the probe diagnostic adds nothing."""

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_run(self, builds, kind):
        game = CountingGame(builds[1])
        dg.run(dg.AdjusterSpec(kind), game, W0, ETA, BUDGET)
        assert game.field_evals == ITERS * evals_per_iteration(kind, game.dim)

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_engine_batch(self, builds, kind):
        game = CountingGame(builds[1])
        starts = [W0, -W0, 0.5 * W0]
        ends, _ = _euler(dg.AdjusterSpec(kind), game, starts,
                         [ETA, 0.05, 0.2], BUDGET)
        assert all(end.outcome == dg.MAX_ITERS for end in ends)
        assert game.field_evals == (len(starts) * ITERS
                                    * evals_per_iteration(kind, game.dim))

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_direction(self, builds, kind):
        game = CountingGame(builds[1])
        dg.direction(dg.AdjusterSpec(kind), game, W0)
        assert game.field_evals == evals_per_iteration(kind, game.dim)

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_one_per_iteration_with_an_analytic_hessian(self, builds, kind):
        game = CountingGame(builds[0])
        dg.run(dg.AdjusterSpec(kind), game, W0, ETA, BUDGET)
        assert game.field_evals == ITERS
