import re
import warnings

import numpy as np
import pytest

import diffgames as dg
from diffgames import dynamics, experiments

from conftest import (HAMILTONIAN_GAMES, POTENTIAL_GAMES, TanhGame,
                      plain_game, random_orthogonal, random_realizable_game,
                      random_symmetric, rel_err)


STOP_FIELDS = ("max_iters", "loss_window", "loss_threshold",
               "divergence_norm", "xi_threshold")


class TestSpecs:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            dg.AdjusterSpec("newton")

    def test_lam_finite(self):
        with pytest.raises(ValueError):
            dg.AdjusterSpec("sga", lam=np.inf)

    def test_epsilon_nonnegative(self):
        with pytest.raises(ValueError):
            dg.AdjusterSpec("sga-aligned", epsilon=-1.0)

    def test_epsilon_not_nan(self):
        with pytest.raises(ValueError):
            dg.AdjusterSpec("sga-aligned", epsilon=np.nan)

    # A boolean is not a number, and a string is named by its parameter,
    # not by float(); nor is an int too large for a float, which float()
    # would raise OverflowError for.
    @pytest.mark.parametrize("value", [True, "x", 10**400],
                             ids=["True", "x", "10**400"])
    @pytest.mark.parametrize("call,name", [
        (lambda v: dg.AdjusterSpec("sga", lam=v), "lam"),
        (lambda v: dg.AdjusterSpec("sga-aligned", epsilon=v), "epsilon"),
        (lambda v: dg.alignment_sign([1.0], [1.0], [1.0], epsilon=v),
         "epsilon"),
        (lambda v: dg.run(dg.AdjusterSpec("simgd"),
                          dg.catalog_game("example7"), [0.5, 0.5], v), "eta"),
        (lambda v: dg.spectral_oracle(dg.AdjusterSpec("simgd"),
                                      dg.catalog_game("example7"), v), "eta"),
    ] + [(lambda v, name=name: dg.StopCriteria(**{name: v}), name)
         for name in STOP_FIELDS],
        ids=["AdjusterSpec.lam", "AdjusterSpec.epsilon", "alignment_sign",
             "run", "spectral_oracle"]
        + [f"StopCriteria.{name}" for name in STOP_FIELDS])
    def test_number_is_not_a_boolean_or_string(self, call, name, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a number, got {value!r}")):
            call(value)

    # 0 passed the whole-number check, and its message then said nothing
    # of the least count.
    @pytest.mark.parametrize("value", [2.5, np.inf, 0])
    @pytest.mark.parametrize("name", ["max_iters", "loss_window"])
    def test_stop_counts_are_whole_numbers(self, name, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a whole number >= 1, got {value!r}")):
            dg.StopCriteria(**{name: value})

    def test_whole_stop_counts_become_ints(self):
        stop = dg.StopCriteria(max_iters=20.0, loss_window=np.int64(5))
        assert (type(stop.max_iters), type(stop.loss_window)) == (int, int)
        assert stop == dg.StopCriteria(max_iters=20, loss_window=5)

    def test_stop_window_within_budget(self):
        with pytest.raises(ValueError, match=re.escape(
                "need loss_window <= max_iters, got loss_window=10 and "
                "max_iters=5")):
            dg.StopCriteria(max_iters=5, loss_window=10)

    @pytest.mark.parametrize("name", ["divergence_norm", "loss_threshold",
                                      "xi_threshold"])
    def test_stop_thresholds_nonnegative(self, name):
        with pytest.raises(ValueError):
            dg.StopCriteria(**{name: -1.0})


class TestDirection:
    def test_sga_adds_rotational_pull(self):
        game = dg.catalog_game("fig3_weak_attractor")
        out = dg.direction(dg.AdjusterSpec("sga", lam=1.0), game, [1.0, 1.0])
        assert np.allclose(out, [101.0, 101.0])

    def test_consensus_closed_form_on_shared_loss_game(self):
        game = dg.catalog_game("example5", kappa=10.0)
        spec = dg.AdjusterSpec("consensus", lam=0.05)
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.standard_normal(2)
            # kappa (lam kappa - 1) w = -5 w for kappa=10, lam=0.05
            assert np.allclose(dg.direction(spec, game, w), -5.0 * w)

    @pytest.mark.parametrize("name", POTENTIAL_GAMES)
    def test_sga_reduces_to_field_without_rotation(self, name):
        game = dg.catalog_game(name)
        rng = np.random.default_rng(5)
        for lam in (0.5, 1.0, -2.0):
            spec = dg.AdjusterSpec("sga", lam=lam)
            w = rng.standard_normal(game.dim)
            xi = dg.simultaneous_gradient(game, w)
            assert np.array_equal(dg.direction(spec, game, w), xi)

    def test_simgd_is_the_field(self):
        game = dg.catalog_game("fig3_weak_attractor")
        w = [0.3, -0.7]
        xi = dg.simultaneous_gradient(game, w)
        assert np.array_equal(dg.direction(dg.AdjusterSpec("simgd"), game, w), xi)

    def test_hamiltonian_descent_follows_grad_h(self):
        game = dg.catalog_game("example1", payoff=np.eye(2))
        w = np.array([1.0, -0.5, 0.25, 2.0])
        expected = dg.grad_hamiltonian(game, w)
        spec = dg.AdjusterSpec("hamiltonian-descent")
        assert np.allclose(dg.direction(spec, game, w), expected)

    def test_omd_extrapolates_previous_field(self):
        game = dg.catalog_game("fig4_bilinear")
        spec = dg.AdjusterSpec("omd")
        w = np.array([1.0, 0.0])
        xi = dg.simultaneous_gradient(game, w)
        assert np.array_equal(dg.direction(spec, game, w), xi)  # empty history
        prev = np.array([0.5, 0.5])
        assert np.allclose(dg.direction(spec, game, w, prev_xi=prev),
                           2.0 * xi - prev)

    def test_aligned_consensus_flips_against_repellor(self):
        game = dg.catalog_game("example5", kappa=10.0)
        spec = dg.AdjusterSpec("aligned-consensus", lam=0.5)
        w = np.array([1.0, 1.0])
        xi = dg.simultaneous_gradient(game, w)
        gh = dg.grad_hamiltonian(game, w)
        # probe is negative here, so the adjustment must subtract grad H
        assert dg.stability_probe(game, w) < 0
        assert np.allclose(dg.direction(spec, game, w), xi - 0.5 * gh)

    def test_rejects_a_wrong_length_prev_xi(self):
        game = dg.catalog_game("fig3_weak_attractor")
        with pytest.raises(ValueError,
                           match="prev_xi has length 1, game needs 2"):
            dg.direction(dg.AdjusterSpec("omd"), game, [1, 1], prev_xi=[1.0])

    @pytest.mark.parametrize("prev_xi,message", [
        ([True, 1], "prev_xi must hold numbers, got True"),
        ([np.nan, 1], "prev_xi has non-finite entries"),
        (["1", 1], "prev_xi must hold numbers, got '1'"),
    ])
    def test_checks_prev_xi_as_a_point(self, prev_xi, message):
        # True was taken as 1.0 and NaN passed into the direction.
        game = dg.catalog_game("example7")
        with pytest.raises(ValueError, match=re.escape(message)):
            dg.direction(dg.AdjusterSpec("omd"), game, [0.5, 0.5],
                         prev_xi=prev_xi)

    @pytest.mark.parametrize("w,message", [
        ([1.0, 1.0, 1.0], "point has length 3, game needs 2"),
        ([np.nan, 1.0], "non-finite"),
    ])
    def test_checks_the_point_as_run_does(self, w, message):
        game = dg.catalog_game("fig3_weak_attractor")
        spec = dg.AdjusterSpec("simgd")
        with pytest.raises(ValueError, match=message):
            dg.direction(spec, game, w)
        with pytest.raises(ValueError, match=message):
            dg.run(spec, game, w, 0.1)

    def test_sga_aligned_uses_sign(self):
        game = dg.catalog_game("example6", epsilon=0.1)
        spec = dg.AdjusterSpec("sga-aligned", lam=1.0, epsilon=0.1)
        w = [2.0, 0.0]
        xi = dg.simultaneous_gradient(game, w)
        adj = dg.sym_adjustment(game, w)
        assert np.allclose(dg.direction(spec, game, w), xi - adj)


# One Euler step of ``run``, with every stop test but the budget off.
ONE_STEP = dg.StopCriteria(max_iters=1, loss_window=1, loss_threshold=0,
                           divergence_norm=np.inf)


class TestStep:
    def test_euler_arithmetic(self):
        game = dg.catalog_game("fig3_weak_attractor")
        traj = dg.run(dg.AdjusterSpec("simgd"), game, [1.0, 1.0], 0.01,
                      ONE_STEP)
        assert np.allclose(traj.points[1], [0.89, 1.09])
        assert traj.xi_norms[0] == pytest.approx(np.sqrt(11.0 ** 2 + 81.0))
        assert np.isfinite(traj.points[1]).all()

    def test_fixed_point_is_stationary(self):
        game = dg.catalog_game("example5")
        for kind in dg.KINDS:
            spec = dg.AdjusterSpec(kind)
            traj = dg.run(spec, game, [0.0, 0.0], 0.1, ONE_STEP)
            assert np.all(traj.points[1] == 0.0)

    def test_omd_first_step(self):
        game = dg.catalog_game("fig4_bilinear")
        traj = dg.run(dg.AdjusterSpec("omd"), game, [1.0, 0.0], 0.5, ONE_STEP)
        assert np.allclose(traj.points[1], [1.0, 0.5])

    def test_rejects_nonpositive_eta(self):
        game = dg.catalog_game("example5")
        with pytest.raises(ValueError):
            dg.run(dg.AdjusterSpec("simgd"), game, [1.0, 1.0], 0.0, ONE_STEP)

    def test_rejects_nan_eta(self):
        game = dg.catalog_game("example5")
        with pytest.raises(ValueError):
            dg.run(dg.AdjusterSpec("simgd"), game, [1.0, 1.0], np.nan,
                   ONE_STEP)


class TestRun:
    def test_descent_on_squared_field_reaches_equilibrium(self):
        game = dg.catalog_game("example1", payoff=np.eye(2))
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal(4)
        w0 /= np.linalg.norm(w0)
        stop = dg.StopCriteria(max_iters=5000, loss_threshold=0.0,
                               xi_threshold=1e-3)
        traj = dg.run(dg.AdjusterSpec("hamiltonian-descent"), game, w0, 0.1, stop)
        assert traj.outcome == dg.CONVERGED
        assert np.linalg.norm(traj.final_point) < 1e-3

    def test_plain_descent_cycles_forever(self):
        game = dg.catalog_game("example1", payoff=np.eye(2))
        w0 = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        stop = dg.StopCriteria(max_iters=500, loss_threshold=0.0,
                               xi_threshold=1e-3)
        traj = dg.run(dg.AdjusterSpec("simgd"), game, w0, 1e-3, stop)
        assert traj.outcome == dg.MAX_ITERS
        # the field norm barely moves: conservation up to Euler error
        assert abs(traj.xi_norms[-1] - traj.xi_norms[0]) <= 0.01 * traj.xi_norms[0]

    def test_consensus_reaches_shared_maximum(self):
        game = dg.catalog_game("example5", kappa=10.0)
        stop = dg.StopCriteria(max_iters=1000, loss_threshold=0.0,
                               xi_threshold=1e-3)
        traj = dg.run(dg.AdjusterSpec("consensus", lam=0.5), game,
                      [1.0, 1.0], 0.01, stop)
        assert traj.outcome == dg.CONVERGED
        assert np.linalg.norm(traj.final_point) < 1e-4

    def test_divergence_detected_by_norm(self):
        game = dg.catalog_game("fig3_weak_attractor")
        stop = dg.StopCriteria(max_iters=10000, loss_threshold=0.0)
        traj = dg.run(dg.AdjusterSpec("simgd"), game, [0.5, 0.5], 0.1, stop)
        assert traj.outcome == dg.DIVERGED
        assert np.linalg.norm(traj.points[-1]) > 1e6

    def test_window_convergence_criterion(self):
        game = dg.catalog_game("fig4_bilinear")
        stop = dg.StopCriteria(max_iters=250)
        traj = dg.run(dg.AdjusterSpec("sga", lam=1.0), game, [0.5, 0.5], 0.5, stop)
        assert traj.outcome == dg.CONVERGED
        means = traj.mean_abs_losses()
        window = means[traj.outcome_iteration - 9:traj.outcome_iteration + 1]
        assert np.mean(window) < 0.01

    def test_diagnostics_shapes(self):
        game = dg.catalog_game("fig4_bilinear")
        stop = dg.StopCriteria(max_iters=50, loss_threshold=0.0)
        traj = dg.run(dg.AdjusterSpec("omd"), game, [0.5, 0.5], 0.1, stop)
        iters = traj.losses.shape[0]
        assert traj.xi_norms.shape == (iters,)
        assert traj.probes.shape == (iters,)
        assert traj.signs.shape == (iters,)
        assert traj.points.shape[0] == iters + 1
        assert traj.losses.shape[1] == game.num_players

    def test_rejects_nan_eta(self):
        game = dg.catalog_game("fig4_bilinear")
        with pytest.raises(ValueError):
            dg.run(dg.AdjusterSpec("simgd"), game, [0.5, 0.5], np.nan)

    def test_overflowing_loss_mean_is_recorded(self):
        """Finite losses whose mean overflows are not a divergence, and the
        step is still recorded.  Each player's loss is half the next one's
        squared coordinate, so the field is 0 and w stays put."""
        game = dg.QuadraticGame(dg.PlayerPartition((1, 1, 1)),
                                [np.diag(np.roll([1.0, 0.0, 0.0], i + 1))
                                 for i in range(3)])
        stop = dg.StopCriteria(max_iters=3, loss_window=3,
                               loss_threshold=0.0, divergence_norm=np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = dg.run(dg.AdjusterSpec("simgd"), game, [1.3e154] * 3,
                          0.1, stop)
            # The mean of three losses of 8.45e307 reads inf, quietly.
            assert np.isinf(traj.mean_abs_losses()).all()
        assert traj.outcome == dg.MAX_ITERS
        assert np.isfinite(traj.losses).all()
        assert traj.losses.shape == (3, 3)
        assert traj.xi_norms.tolist() == [0.0] * 3
        assert traj.points.shape == (4, 3)


def _offset_game(seed):
    """A realizable quadratic game with nonzero offsets, and the same game
    rebuilt as a plain Game from its own public callables, which takes the
    per-player evaluation path."""
    rng = np.random.default_rng(seed)
    partition = dg.PlayerPartition((2, 3, 1))
    game = random_realizable_game(rng, partition, 0.2, 1.0,
                                  offset=rng.standard_normal(partition.total))
    return game, plain_game(game), rng.standard_normal(partition.total)


class TestFusedEvaluation:
    """The quadratic game's batched field (from the game Hessian) and
    batched losses change no bit."""

    def test_losses_and_field_equal_the_parts(self):
        game, plain, _ = _offset_game(0)
        rows = np.random.default_rng(9).standard_normal((5, game.dim))
        for g in (game, plain):
            losses, xi = g.batch_losses(rows), g.batch_field(rows)
            for k, r in enumerate(rows):
                assert np.array_equal(losses[k], game.loss_vector(r))
                assert np.array_equal(xi[k],
                                      dg.simultaneous_gradient(game, r))

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_run_equals_the_plain_rebuild(self, kind):
        game, plain, w0 = _offset_game(1)
        spec = dg.AdjusterSpec(kind, lam=0.8)
        stop = dg.StopCriteria(max_iters=300, xi_threshold=1e-3)
        # Mostly converged at the two small rates, diverged at the large one.
        for eta in (0.05, 0.4, 3.0):
            fused = dg.run(spec, game, w0, eta, stop)
            unfused = dg.run(spec, plain, w0, eta, stop)
            for name in ("points", "losses", "xi_norms", "probes", "signs"):
                assert np.array_equal(getattr(fused, name),
                                      getattr(unfused, name),
                                      equal_nan=True), (eta, name)
            assert fused.outcome == unfused.outcome
            assert fused.outcome_iteration == unfused.outcome_iteration

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_step_equals_the_first_run_entries(self, kind):
        game, _, w0 = _offset_game(2)
        spec = dg.AdjusterSpec(kind, lam=0.8)
        eta = 0.05
        one = dg.run(spec, game, w0, eta, ONE_STEP)
        traj = dg.run(spec, game, w0, eta,
                      dg.StopCriteria(max_iters=2, loss_window=1))
        assert np.array_equal(one.losses[0], traj.losses[0])
        assert one.xi_norms[0] == traj.xi_norms[0]
        assert one.probes[0] == traj.probes[0]
        assert one.signs[0] == traj.signs[0]
        w1 = one.points[1]
        assert np.array_equal(w1, traj.points[1])
        assert np.array_equal(w0 - eta * dg.direction(spec, game, w0), w1)

    @staticmethod
    def public_products(game, w):
        xi = dg.simultaneous_gradient(game, w)
        grad_h = dg.thvp(game, w, xi)
        return xi, grad_h, 0.5 * (grad_h - dg.hvp(game, w, xi))

    @pytest.mark.bit_identity
    def test_directions_equal_the_public_products(self):
        game, _, w = _offset_game(3)
        xi, grad_h, at_xi = self.public_products(game, w)
        for lam in (0.8, -0.8):
            expected = {"sga": xi + lam * at_xi,
                        "consensus": xi + lam * grad_h,
                        "hamiltonian-descent": grad_h}
            for kind, want in expected.items():
                spec = dg.AdjusterSpec(kind, lam=lam)
                assert np.array_equal(dg.direction(spec, game, w), want)
                traj = dg.run(spec, game, w, 0.1, ONE_STEP)
                assert traj.probes[0] == float(xi @ grad_h)
        # The aligned rules at points where their sign is -1.
        for kind, name, w in ((dg.SGA_ALIGNED, "example6", [2.0, 0.0]),
                              (dg.ALIGNED_CONSENSUS, "example5", [1.0, 1.0])):
            game = dg.catalog_game(name)
            xi, grad_h, at_xi = self.public_products(game, w)
            for lam in (0.8, -0.8):
                spec = dg.AdjusterSpec(kind, lam=lam)
                if kind == dg.SGA_ALIGNED:
                    sign = dg.alignment_sign(xi, at_xi, grad_h, spec.epsilon)
                    adj = at_xi
                else:
                    sign = 1.0 if xi @ grad_h >= 0 else -1.0
                    adj = grad_h
                assert sign == -1.0
                want = xi + (abs(lam) * sign) * adj
                assert np.array_equal(dg.direction(spec, game, w), want)


@pytest.mark.bit_identity
class TestOneStep:
    """``direction``, ``run``'s first step and ``Trajectory.probes`` are
    the engine's bound step (``_stepper``) bit for bit, for every rule."""

    GAMES = {
        "quadratic": lambda: _offset_game(4)[::2],
        "general": lambda: (TanhGame().build(analytic_hessian=False),
                            np.array([0.3, -0.2, 0.5, 0.1, -0.4])),
    }

    @staticmethod
    def step(spec, game, w, prev_xi=None):
        # The engine runs a block of steps on (C, d, 1) stacks of column
        # vectors; this is a block of one step of one row.
        prev_xi = None if prev_xi is None else prev_xi[..., None].copy()
        space = dynamics._Workspace(w[None, :, None], prev_xi, 1)
        vec = dynamics._stepper(spec, game)(space, 1, 1.0)
        return space.fields[0, 0, :, 0], vec[0, :, 0], space.signs[0]

    @pytest.mark.parametrize("name", sorted(GAMES))
    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_agree_with_the_stepper(self, kind, name):
        game, w0 = self.GAMES[name]()
        spec, eta = dg.AdjusterSpec(kind, lam=0.8), 0.05
        xi, vec, sign = self.step(spec, game, w0)
        assert dg.direction(spec, game, w0).tobytes() == vec.tobytes()
        prev = np.linspace(-1.0, 1.0, game.dim)
        assert (dg.direction(spec, game, w0, prev_xi=prev).tobytes()
                == self.step(spec, game, w0, prev[None])[1].tobytes())
        traj = dg.run(spec, game, w0, eta, ONE_STEP)
        assert traj.points[1].tobytes() == (w0 - eta * vec).tobytes()
        assert traj.xi_norms[0] == np.sqrt(xi @ xi)
        assert traj.signs[0] == np.reshape(sign, -1)[0]
        xi, grad_h, _ = self.step(dg.AdjusterSpec(dg.HAMILTONIAN_DESCENT),
                                  game, w0)
        assert traj.probes[0] == np.vecdot(xi, grad_h)

    @pytest.mark.parametrize("kind", dg.KINDS)
    def test_direction_is_as_quiet_as_run(self, kind):
        # The field is finite at w, but H' xi overflows.
        game = dg.catalog_game("fig3_weak_attractor", coupling=1e200)
        w, eta = np.array([1e-50, 2e-50]), 0.01
        spec = dg.AdjusterSpec(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(dg.simultaneous_gradient(game, w)).all()
            step = w - eta * dg.direction(spec, game, w)
            traj = dg.run(spec, game, w, eta, ONE_STEP)
            assert step.tobytes() == traj.points[1].tobytes()


@pytest.mark.bit_identity
class TestBlockSigns:
    """A block of the engine's kernel leaves in ``space.signs`` the sign
    of the adjustment weight each row applied at each step: what the
    row's lone ``run`` records in ``Trajectory.signs``."""

    STEPS = 16
    STOP = dg.StopCriteria(max_iters=STEPS, loss_window=1,
                           loss_threshold=0.0)

    # sga-aligned's and aligned-consensus's signs flip inside the block.
    @pytest.mark.parametrize("spec,name,starts,both", [
        (dg.AdjusterSpec(dg.SGA_ALIGNED, lam=0.5, epsilon=0.0), "example1",
         np.random.default_rng(0).standard_normal((3, 4)), True),
        (dg.AdjusterSpec(dg.ALIGNED_CONSENSUS, lam=0.5), "example7",
         [[0.3, -0.7], [0.5, 0.2], [-0.4, 0.9]], True),
        (dg.AdjusterSpec(dg.SGA, lam=-0.8), "example1",
         np.random.default_rng(1).standard_normal((3, 4)), False),
        (dg.AdjusterSpec(dg.SIMGD), "example7",
         [[0.3, -0.7], [0.5, 0.2], [-0.4, 0.9]], False),
    ], ids=["sga-aligned", "aligned-consensus", "sga", "simgd"])
    def test_block_records_each_runs_signs(self, spec, name, starts, both):
        game = dg.catalog_game(name)
        starts, etas = np.array(starts), (0.01, 0.02, 0.05)
        space = dynamics._Workspace(starts[:, :, None], None, self.STEPS)
        eta = np.repeat(np.reshape(etas, (3, 1, 1)), game.dim, axis=1)
        dynamics._stepper(spec, game)(space, self.STEPS, eta)
        for row, (w0, rate) in enumerate(zip(starts, etas)):
            want = dg.run(spec, game, w0, rate, self.STOP).signs
            assert want.shape == (self.STEPS,)
            assert space.signs[:, row].tobytes() == want.tobytes(), row
        values = set(space.signs.ravel().tolist())
        if both:
            assert values == {-1.0, 1.0}
        else:
            assert values == {-1.0 if spec.kind == dg.SGA else 0.0}


class TestCompatibilityProperties:
    def test_field_alignment_preserved(self):
        # <adjusted, xi> = |xi|^2 for every weight: the rotation term is
        # orthogonal to the field
        rng = np.random.default_rng(13)
        partition = dg.PlayerPartition((2, 2))
        for _ in range(200):
            game = random_realizable_game(rng, partition, -1.0, 1.0)
            w = rng.standard_normal(4)
            xi = dg.simultaneous_gradient(game, w)
            lam = rng.uniform(-5, 5)
            vec = dg.direction(dg.AdjusterSpec("sga", lam=lam), game, w)
            norm_sq = xi @ xi
            assert abs(vec @ xi - norm_sq) <= 1e-9 * max(norm_sq, 1.0)

    @pytest.mark.parametrize("name", POTENTIAL_GAMES)
    def test_no_rotation_means_no_adjustment(self, name):
        game = dg.catalog_game(name)
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = rng.standard_normal(game.dim)
            xi = dg.simultaneous_gradient(game, w)
            vec = dg.direction(dg.AdjusterSpec("sga", lam=1.0), game, w)
            assert np.array_equal(vec, xi)

    @pytest.mark.parametrize("name", HAMILTONIAN_GAMES)
    def test_pure_rotation_descends_squared_field(self, name):
        game = dg.catalog_game(name)
        rng = np.random.default_rng(19)
        for lam in (0.5, 1.0, 2.0):
            spec = dg.AdjusterSpec("sga", lam=lam)
            for _ in range(30):
                w = rng.standard_normal(game.dim)
                gh = dg.grad_hamiltonian(game, w)
                vec = dg.direction(spec, game, w)
                gh_sq = float(gh @ gh)
                assert abs(vec @ gh - lam * gh_sq) <= 1e-9 * max(gh_sq, 1.0)


class TestSpectralOracle:
    def test_weak_attractor_regimes(self):
        game = dg.catalog_game("fig3_weak_attractor")
        spec = dg.AdjusterSpec("simgd")
        rho = {eta: dg.spectral_oracle(spec, game, eta).spectral_radius
               for eta in (0.01, 0.032, 0.1)}
        assert rho[0.01] == pytest.approx(np.sqrt(0.99 ** 2 + 0.01), rel=1e-12)
        assert rho[0.01] < 1 < rho[0.032] < rho[0.1]

    def test_sga_threshold_on_bilinear(self):
        game = dg.catalog_game("fig4_bilinear")
        spec = dg.AdjusterSpec("sga", lam=1.0)
        for eta in (0.1, 0.5, 0.9, 0.99, 1.01, 1.5):
            pred = dg.spectral_oracle(spec, game, eta)
            assert pred.spectral_radius == pytest.approx(
                np.sqrt((1 - eta) ** 2 + eta ** 2), rel=1e-12)
            assert pred.predicts_convergence == (eta < 1.0)

    def test_zero_hessian_is_neutral(self):
        p = dg.PlayerPartition((1, 1))
        game = dg.QuadraticGame(p, [np.zeros((2, 2)), np.zeros((2, 2))])
        pred = dg.spectral_oracle(dg.AdjusterSpec("simgd"), game, 0.3)
        assert pred.spectral_radius == 1.0

    def test_omd_uses_companion_form(self):
        game = dg.catalog_game("fig7_four_player")
        m = dg.iteration_matrix(dg.AdjusterSpec("omd"), game, 0.1)
        assert m.shape == (8, 8)

    @pytest.mark.parametrize("kind", dg.LINEAR_KINDS)
    def test_iteration_matrix_bits(self, kind):
        """Each rule's matrix, the omd companion form included, equals the
        same expressions assembled with ``np.block``, bit for bit."""
        spec = dg.AdjusterSpec(kind, lam=0.7)
        for name in ("fig7_four_player", "example6"):
            game = dg.catalog_game(name)
            h = game.hessian_matrix
            eye = np.eye(game.dim)
            for eta in (0.025, 0.3, 1.7):
                want = {
                    "simgd": lambda: eye - eta * h,
                    "sga": lambda: eye - eta * (
                        eye + spec.lam * (0.5 * (h - h.T)).T) @ h,
                    "consensus": lambda: eye - eta * (
                        eye + spec.lam * h.T) @ h,
                    "hamiltonian-descent": lambda: eye - eta * h.T @ h,
                    "omd": lambda: np.block([
                        [eye - 2.0 * eta * h, eta * h],
                        [eye, np.zeros_like(h)]]),
                }[kind]()
                got = dg.iteration_matrix(spec, game, eta)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_rejects_offsets(self):
        game = dg.catalog_game("example3")  # shifted equilibrium
        with pytest.raises(ValueError, match="offset"):
            dg.spectral_oracle(dg.AdjusterSpec("simgd"), game, 0.1)

    def test_rejects_aligned_rules(self):
        game = dg.catalog_game("fig4_bilinear")
        with pytest.raises(ValueError):
            dg.spectral_oracle(dg.AdjusterSpec("sga-aligned"), game, 0.1)
        with pytest.raises(ValueError):
            dg.spectral_oracle(dg.AdjusterSpec("aligned-consensus"), game, 0.1)

    @pytest.mark.parametrize("kind,eta", [
        ("consensus", 1e307), ("hamiltonian-descent", 1e307),
        ("omd", 1e307),
        # The matrix is finite, its spectral radius is not.
        ("simgd", 1.795e307)])
    def test_overflow_names_the_rule_and_rate(self, kind, eta):
        game = dg.catalog_game("fig3_weak_attractor")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"'{kind}' overflows at eta={eta!r}")):
                dg.spectral_oracle(dg.AdjusterSpec(kind), game, eta)

    @pytest.mark.parametrize("eta", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_a_bad_rate(self, eta):
        game = dg.catalog_game("fig4_bilinear")
        with pytest.raises(ValueError, match="eta must be positive"):
            dg.spectral_oracle(dg.AdjusterSpec("simgd"), game, eta)

    # A bad rate is reported before a game or rule the oracle refuses.
    @pytest.mark.parametrize("call", [dg.iteration_matrix,
                                      dg.spectral_oracle])
    def test_reports_a_bad_rate_first(self, call):
        with pytest.raises(ValueError, match="eta must be positive"):
            call(dg.AdjusterSpec("sga-aligned"), dg.catalog_game("example3"),
                 0.0)

    def test_eligibility_is_checked_once_per_call_and_swept_rule(
            self, monkeypatch):
        checked, why = [], dynamics._why_no_oracle

        def counted(spec, game):
            checked.append(spec.kind)
            return why(spec, game)

        monkeypatch.setattr(dynamics, "_why_no_oracle", counted)
        monkeypatch.setattr(experiments, "_why_no_oracle", counted)
        game = dg.catalog_game("fig4_bilinear")
        dg.spectral_oracle(dg.AdjusterSpec("sga"), game, 0.1)
        dg.iteration_matrix(dg.AdjusterSpec("omd"), game, 0.1)
        assert checked == ["sga", "omd"]
        # One stack per rate, so a per-stack check would show.
        monkeypatch.setattr(dynamics, "_ORACLE_STACK_BYTES", 1)
        checked.clear()
        dg.sweep(dg.SweepConfig(
            "fig4_bilinear", tuple(map(dg.AdjusterSpec, (
                "sga", "omd", "sga-aligned"))), (0.1, 0.2, 0.3),
            stop=dg.StopCriteria(max_iters=20)))
        assert checked == ["sga", "omd", "sga-aligned"]

    def test_rejects_non_quadratic_games(self):
        p = dg.PlayerPartition((1, 1))
        game = dg.make_game(
            p,
            losses=[lambda w: w[0] * w[1], lambda w: -w[0] * w[1]],
            gradients=[lambda w: w[1:2], lambda w: -w[0:1]],
        )
        with pytest.raises(ValueError):
            dg.spectral_oracle(dg.AdjusterSpec("simgd"), game, 0.1)


def _lone_matrix(spec, h, eta):
    """One rule's iteration matrix at one rate, written out."""
    eye = np.eye(len(h))
    return {
        "simgd": lambda: eye - eta * h,
        "sga": lambda: eye - eta * (eye + spec.lam * (0.5 * (h - h.T)).T) @ h,
        "consensus": lambda: eye - eta * (eye + spec.lam * h.T) @ h,
        "hamiltonian-descent": lambda: eye - eta * h.T @ h,
        "omd": lambda: np.block([[eye - 2.0 * eta * h, eta * h],
                                 [eye, np.zeros_like(h)]]),
    }[spec.kind]()


def _stacked_oracle_cases():
    """Every preset config's oracle rules with its rate grid, and seeded
    random games with each linear rule at three weights."""
    cases = []
    for preset in dg.PRESETS:
        for i, config in enumerate(dg.preset_configs(preset)):
            game = dg.catalog_game(config.game, **config.game_params)
            cases += [(f"{preset}.{i}-{spec.kind}", game, spec, config.etas)
                      for spec in config.adjusters
                      if spec.kind in dg.LINEAR_KINDS]
    etas = tuple(np.geomspace(0.001, 2.5, 13))
    for seed, parts in enumerate([(2, 2), (1, 2, 3), (16, 16), (8,) * 8]):
        rng = np.random.default_rng(seed)
        game = random_realizable_game(rng, dg.PlayerPartition(parts),
                                      -0.5, 2.0)
        label = "x".join(map(str, parts))
        cases += [(f"{label}-{kind}-{lam}", game, dg.AdjusterSpec(kind, lam),
                   etas) for kind in dg.LINEAR_KINDS
                  for lam in (1.0, 0.3, -0.7)]
    return cases


@pytest.mark.bit_identity
class TestStackedOracle:
    """A rule's stacked matrices and radii (one eigvals call per stack) hold
    the bits of lone ones; the claim rests on LAPACK decomposing a matrix of
    a stack as it decomposes a lone one."""

    CASES = _stacked_oracle_cases()

    # The default budget, and one matrix per stack.
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("label,game,spec,etas", CASES,
                             ids=[c[0] for c in CASES])
    def test_bits_of_lone_matrices(self, monkeypatch, budget, label, game,
                                   spec, etas):
        if budget is not None:
            monkeypatch.setattr(dynamics, "_ORACLE_STACK_BYTES", budget)
        h = game.hessian_matrix
        lone = [_lone_matrix(spec, h, eta) for eta in etas]
        stack = dynamics._iteration_matrices(spec, h, etas)
        assert stack.shape == (len(etas),) + lone[0].shape
        assert [m.tobytes() for m in stack] == [m.tobytes() for m in lone]
        radii = dynamics._spectral_radii(spec, h, etas)
        assert [r.hex() for r in radii] == [
            float(np.max(np.abs(np.linalg.eigvals(m)))).hex() for m in lone]

    # The arithmetic takes a Hessian, not a game: example3's offset keeps
    # the oracle from that game, and a matrix whose diagonal blocks are
    # not symmetric is the Hessian of no game quadratic_game_from_hessian
    # builds.
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("kind", dg.LINEAR_KINDS)
    def test_bits_on_a_hessian_no_eligible_game_owns(self, monkeypatch,
                                                      budget, kind):
        if budget is not None:
            monkeypatch.setattr(dynamics, "_ORACLE_STACK_BYTES", budget)
        spec = dg.AdjusterSpec(kind, lam=0.7)
        shifted = dg.catalog_game("example3")
        assert dynamics._why_no_oracle(spec, shifted) is not None
        odd = np.random.default_rng(11).standard_normal((4, 4))
        with pytest.raises(ValueError, match="must be symmetric"):
            dg.quadratic_game_from_hessian(dg.PlayerPartition((2, 2)), odd)
        etas = tuple(np.geomspace(0.001, 2.5, 13))
        for h in (shifted.hessian_matrix, odd):
            lone = [_lone_matrix(spec, h, eta) for eta in etas]
            stack = dynamics._iteration_matrices(spec, h, etas)
            assert [m.tobytes() for m in stack] == [m.tobytes() for m in lone]
            radii = dynamics._spectral_radii(spec, h, etas)
            assert [r.hex() for r in radii] == [
                float(np.max(np.abs(np.linalg.eigvals(m)))).hex()
                for m in lone]


class TestOracleAgreement:
    CASES = [
        ("fig3_weak_attractor", {}, "simgd", 1.0),
        ("fig3_weak_attractor", {}, "sga", 0.1),
        ("fig4_bilinear", {}, "sga", 1.0),
        ("fig4_bilinear", {}, "omd", 1.0),
        ("example5", {}, "consensus", 0.05),
        ("example5", {}, "simgd", 1.0),
        ("fig7_four_player", {"epsilon": 0.01}, "sga", 1.0),
        ("fig7_four_player", {"epsilon": 0.01}, "omd", 1.0),
        ("example1", {}, "hamiltonian-descent", 1.0),
    ]

    @pytest.mark.parametrize("name,params,kind,lam", CASES)
    def test_simulation_matches_prediction(self, name, params, kind, lam):
        game = dg.catalog_game(name, **params)
        spec = dg.AdjusterSpec(kind, lam=lam)
        stop = dg.StopCriteria(max_iters=4000, loss_threshold=0.0,
                               xi_threshold=1e-6)
        rng = np.random.default_rng(23)
        w0 = rng.standard_normal(game.dim)
        w0 /= np.linalg.norm(w0)
        for eta in np.geomspace(0.002, 0.6, 9):
            rho = dg.spectral_oracle(spec, game, eta).spectral_radius
            if not (rho <= 0.99 or rho >= 1.01):
                continue  # marginal band: budget-limited, no verdict required
            traj = dg.run(spec, game, w0, float(eta), stop)
            if rho <= 0.99:
                assert traj.outcome == dg.CONVERGED, (name, kind, eta, rho)
            else:
                assert traj.outcome != dg.CONVERGED, (name, kind, eta, rho)


class TestStepSizeDescentBound:
    def test_quadratic_descent_inequality(self):
        # stepping along any direction of matching norm with the angle-scaled
        # optimal rate drops a convex quadratic by cos^2(theta)/(2L) |grad|^2
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            m = random_symmetric(rng, d, 0.05, 3.0)
            b = rng.standard_normal(d)
            lip = float(np.linalg.eigvalsh(m)[-1])

            def f(x):
                return 0.5 * x @ m @ x + b @ x

            w = rng.standard_normal(d)
            grad = m @ w + b
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-9:
                continue
            v = rng.standard_normal(d)
            v *= gnorm / np.linalg.norm(v)
            cos = float(grad @ v) / (gnorm * gnorm)
            eta = cos / lip
            drop = cos * cos / (2.0 * lip) * gnorm * gnorm
            assert f(w - eta * v) <= f(w) - drop + 1e-12

    def test_unit_ball_is_not_left(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            xi = rng.standard_normal(d)
            xi /= np.linalg.norm(xi)
            dot = float(w @ xi)
            if dot <= 0:
                xi, dot = -xi, -dot
            eta = rng.uniform(0.0, 2.0 * dot)
            assert np.linalg.norm(w - eta * xi) <= 1.0 + 1e-12
