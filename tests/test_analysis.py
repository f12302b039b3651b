import re

import numpy as np
import pytest

import diffgames as dg

from conftest import (fd_cos2_derivative, random_antisymmetric,
                      random_block_antisymmetric, random_orthogonal,
                      random_realizable_game, random_symmetric, rel_err)


class TestHelmholtzSplit:
    def test_weak_attractor(self):
        dec = dg.helmholtz_split([[1.0, 10.0], [-10.0, 1.0]])
        assert np.array_equal(dec.symmetric, np.eye(2))
        assert np.array_equal(dec.antisymmetric, [[0.0, 10.0], [-10.0, 0.0]])
        assert dec.additive_condition_number == 0.0

    def test_saddle_potential(self):
        dec = dg.helmholtz_split([[1.0, 2.0], [2.0, 1.0]])
        assert np.all(dec.antisymmetric == 0.0)
        assert np.allclose(dec.s_eigenvalues, [3.0, -1.0])
        assert dec.additive_condition_number == pytest.approx(4.0)

    def test_four_player_game(self):
        game = dg.catalog_game("fig7_four_player", epsilon=0.01)
        dec = dg.helmholtz_split(game.hessian_matrix)
        assert np.allclose(dec.symmetric, 0.01 * np.eye(4))
        expected = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [-1.0, 0.0, 1.0, 1.0],
            [-1.0, -1.0, 0.0, 1.0],
            [-1.0, -1.0, -1.0, 0.0],
        ])
        assert np.allclose(dec.antisymmetric, expected)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            dg.helmholtz_split(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError,
                           match="^matrix has non-finite entries$"):
            dg.helmholtz_split([[1.0, bad], [0.0, 1.0]])

    def test_rejects_an_empty_matrix_naming_its_shape(self):
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            dg.helmholtz_split(np.zeros((0, 0)))

    def test_reconstruction_and_idempotence(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(2, 17))
            h = rng.standard_normal((d, d))
            dec = dg.helmholtz_split(h)
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(dec.symmetric + dec.antisymmetric - h)) \
                <= 1e-14 * scale
            assert np.max(np.abs(dec.symmetric - dec.symmetric.T)) \
                <= 1e-14 * scale
            assert np.max(np.abs(dec.antisymmetric + dec.antisymmetric.T)) \
                <= 1e-14 * scale
            # splitting a pure part returns it unchanged
            again = dg.helmholtz_split(dec.symmetric)
            assert np.max(np.abs(again.symmetric - dec.symmetric)) \
                <= 1e-14 * scale
            assert np.max(np.abs(again.antisymmetric)) <= 1e-14 * scale

    def test_orthogonal_conjugation_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 13))
            h = rng.standard_normal((d, d))
            p = random_orthogonal(rng, d)
            dec = dg.helmholtz_split(h)
            rotated = dg.helmholtz_split(p.T @ h @ p)
            assert np.max(np.abs(rotated.symmetric - p.T @ dec.symmetric @ p)) \
                <= 1e-10
            assert np.max(np.abs(rotated.antisymmetric
                                 - p.T @ dec.antisymmetric @ p)) <= 1e-10

    def test_kappa_zero_iff_isotropic(self):
        dec = dg.helmholtz_split(3.0 * np.eye(5))
        assert dec.additive_condition_number <= 1e-12
        dec = dg.helmholtz_split(np.diag([3.0, 2.0, 3.0]))
        assert dec.additive_condition_number == pytest.approx(1.0)


class TestClassifyGame:
    def sample_points(self, game, count=5):
        rng = np.random.default_rng(42)
        return [rng.uniform(-2, 2, size=game.dim) for _ in range(count)]

    def test_rotation_only_game(self):
        game = dg.catalog_game("example3", a=0.0, b=0.0)
        cls = dg.classify_game(game, self.sample_points(game))
        assert cls.kind == dg.HAMILTONIAN
        assert cls.max_symmetric <= 1e-12

    def test_gradient_flow_game(self):
        game = dg.catalog_game("example4")
        cls = dg.classify_game(game, self.sample_points(game))
        assert cls.kind == dg.POTENTIAL
        assert cls.max_antisymmetric <= 1e-12

    def test_mixed_game(self):
        game = dg.catalog_game("fig3_weak_attractor")
        cls = dg.classify_game(game, self.sample_points(game))
        assert cls.kind == dg.GENERAL
        assert cls.max_antisymmetric == pytest.approx(10.0)
        assert cls.max_symmetric == pytest.approx(1.0)

    def test_needs_a_sample(self):
        game = dg.catalog_game("example4")
        with pytest.raises(ValueError):
            dg.classify_game(game, [])


class TestStabilityProbe:
    def test_positive_definite_region(self):
        game = dg.catalog_game("fig3_weak_attractor")
        assert dg.stability_probe(game, [1.0, 1.0]) == pytest.approx(202.0)

    def test_negative_definite_region(self):
        game = dg.catalog_game("example6", epsilon=0.1)
        assert dg.stability_probe(game, [1.0, 0.0]) == pytest.approx(-0.101)

    def test_zero_in_conserving_games(self):
        rng = np.random.default_rng(4)
        game = dg.catalog_game("example1", payoff=rng.standard_normal((2, 2)))
        for _ in range(50):
            w = rng.uniform(-3, 3, size=4)
            xi = dg.simultaneous_gradient(game, w)
            gh = dg.grad_hamiltonian(game, w)
            bound = 1e-10 * np.linalg.norm(xi) * np.linalg.norm(gh)
            assert abs(dg.stability_probe(game, w)) <= max(bound, 1e-300)

    def test_sign_law_on_random_games(self):
        rng = np.random.default_rng(8)
        partition = dg.PlayerPartition((2, 3))
        for definite in (1, -1):
            for _ in range(100):
                sym = random_symmetric(rng, 5, 0.1, 2.0) * definite
                anti = random_block_antisymmetric(rng, partition)
                game = dg.quadratic_game_from_hessian(partition, sym + anti)
                w = rng.standard_normal(5)
                xi = dg.simultaneous_gradient(game, w)
                if xi @ xi == 0.0:
                    continue
                probe = dg.stability_probe(game, w)
                assert np.sign(probe) == definite


class TestClassifyFixedPoint:
    def test_saddle_potential_local_nash(self):
        game = dg.catalog_game("example7")
        report = dg.classify_fixed_point(game, [0.0, 0.0])
        assert report.stability == dg.INDEFINITE
        assert report.is_local_nash is True

    def test_conserving_game_stable(self):
        game = dg.catalog_game("example1", payoff=np.eye(2))
        report = dg.classify_fixed_point(game, np.zeros(4))
        assert report.stability == dg.STABLE
        assert report.is_local_nash is True

    def test_repellor_unstable(self):
        game = dg.catalog_game("example6", epsilon=0.1)
        report = dg.classify_fixed_point(game, [0.0, 0.0])
        assert report.stability == dg.UNSTABLE
        assert report.is_local_nash is False
        assert report.probe_value < 0.0

    def test_rejects_moving_points(self):
        game = dg.catalog_game("example7")
        with pytest.raises(dg.NotAFixedPointError):
            dg.classify_fixed_point(game, [1.0, 1.0])

    def test_shifted_equilibrium(self):
        game = dg.catalog_game("example3", a=2.0, b=-1.0)
        report = dg.classify_fixed_point(game, [2.0, -1.0])
        assert report.stability == dg.STABLE  # S = 0 everywhere

    def test_general_game_neighborhood_probing(self):
        # quartic single-well per player: stable through the whole region
        p = dg.PlayerPartition((1, 1))
        game = dg.make_game(
            p,
            losses=[lambda w: 0.5 * w[0] ** 2 + 0.25 * w[0] ** 4,
                    lambda w: 0.5 * w[1] ** 2 + 0.25 * w[1] ** 4],
            gradients=[lambda w: np.array([w[0] + w[0] ** 3]),
                       lambda w: np.array([w[1] + w[1] ** 3])],
        )
        report = dg.classify_fixed_point(game, [0.0, 0.0])
        assert report.stability == dg.STABLE
        assert report.is_local_nash is True

    def test_verdict_must_hold_around_a_general_point(self):
        # One player with loss x^3/3 has S = 2x: 0 at the fixed point, where
        # alone it reads stable (as the zero quadratic game does), and
        # negative at the nearby samples left of it.
        game = dg.make_game(dg.PlayerPartition((1,)),
                            losses=[lambda w: w[0] ** 3 / 3],
                            gradients=[lambda w: np.array([w[0] ** 2])],
                            hessian=lambda w: np.array([[2.0 * w[0]]]))
        flat = dg.QuadraticGame(dg.PlayerPartition((1,)), [np.zeros((1, 1))])
        assert dg.classify_fixed_point(flat, [0.0]).stability == dg.STABLE
        assert dg.classify_fixed_point(game, [0.0]).stability == dg.INDEFINITE


class TestAlignmentSign:
    def test_repelled_from_unstable_point(self):
        game = dg.catalog_game("example6", epsilon=0.1)
        w = [2.0, 0.0]
        xi = dg.simultaneous_gradient(game, w)
        gh = dg.grad_hamiltonian(game, w)
        adj = dg.sym_adjustment(game, w)
        assert xi @ gh == pytest.approx(-0.404)
        assert adj @ gh == pytest.approx(4.04)
        assert dg.alignment_sign(xi, adj, gh, epsilon=0.1) == -1.0

    def test_attracted_to_stable_point(self):
        game = dg.catalog_game("fig3_weak_attractor")
        w = [1.0, 1.0]
        xi = dg.simultaneous_gradient(game, w)
        gh = dg.grad_hamiltonian(game, w)
        adj = dg.sym_adjustment(game, w)
        assert adj @ gh == pytest.approx(20200.0)
        assert dg.alignment_sign(xi, adj, gh, epsilon=0.1) == 1.0

    def test_zero_vectors_bias_positive(self):
        z = np.zeros(2)
        assert dg.alignment_sign(z, z, z, epsilon=0.1) == 1.0
        assert dg.alignment_sign(z, z, z, epsilon=0.0) == 1.0  # sign(0) := +1

    def test_near_fixed_point_bias_dominates(self):
        # the product term scales like |xi|^4, so close to the repellor the
        # fixed epsilon forces +1 even though the true sign there is -1
        game = dg.catalog_game("example6", epsilon=0.1)
        w = [1.0, 0.0]
        xi = dg.simultaneous_gradient(game, w)
        gh = dg.grad_hamiltonian(game, w)
        adj = dg.sym_adjustment(game, w)
        assert dg.alignment_sign(xi, adj, gh, epsilon=0.1) == 1.0
        assert dg.alignment_sign(xi, adj, gh, epsilon=0.0) == -1.0

    def test_rejects_negative_epsilon(self):
        z = np.ones(2)
        with pytest.raises(ValueError):
            dg.alignment_sign(z, z, z, epsilon=-0.1)

    def test_rejects_nan_epsilon(self):
        # As AdjusterSpec does: a NaN bias would silently pick -1.
        z = np.ones(2)
        with pytest.raises(ValueError,
                           match="epsilon must be nonnegative, got nan"):
            dg.alignment_sign(z, z, z, epsilon=np.nan)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_is_the_sign_the_aligned_rule_applies(self, epsilon):
        spec = dg.AdjusterSpec("sga-aligned", epsilon=epsilon)
        one_step = dg.StopCriteria(max_iters=1, loss_window=1,
                                   loss_threshold=0.0,
                                   divergence_norm=np.inf)
        rng = np.random.default_rng(17)
        seen = set()
        for name in ("example2", "example6", "fig3_weak_attractor",
                     "fig7_four_player"):
            game = dg.catalog_game(name)
            for _ in range(10):
                w = rng.uniform(-2.0, 2.0, game.dim)
                xi = dg.simultaneous_gradient(game, w)
                grad_h = dg.thvp(game, w, xi)
                at_xi = 0.5 * (grad_h - dg.hvp(game, w, xi))
                sign = dg.alignment_sign(xi, at_xi, grad_h, epsilon)
                assert dg.run(spec, game, w, 0.01,
                              one_step).signs[0] == sign, (name, w)
                seen.add(sign)
        assert seen == {1.0, -1.0}


# Each vector is checked as a point is, with its name in the message: a
# boolean is not a number, and a NaN would silently pick a sign.
@pytest.mark.parametrize("call,args,said", [
    (dg.alignment_sign, ([True], [1.0], [1.0]),
     "xi must hold numbers, got True"),
    (dg.alignment_sign, ([np.nan], [1.0], [1.0]),
     "xi has non-finite entries"),
    (dg.alignment_sign, ("x", [1.0], [1.0]), "xi must hold numbers, got 'x'"),
    (dg.alignment_sign, ([1.0, 2.0], [1.0], [1.0, 0.0]),
     "at_xi has length 1, game needs 2"),
    (dg.alignment_sign, ([1.0], [1.0], [np.inf]),
     "grad_h has non-finite entries"),
    (dg.infinitesimal_alignment, ([True, 0], [0, 1], [1, 1]),
     "u must hold numbers, got True"),
    (dg.infinitesimal_alignment, ([1.0, 0.0], [np.nan, 1.0], [1.0, 1.0]),
     "v has non-finite entries"),
    (dg.infinitesimal_alignment, ([1.0, 0.0], [0.0, 1.0], ["1", 1.0]),
     "w must hold numbers, got '1'"),
    (dg.infinitesimal_alignment, ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0, 1.0]),
     "w has length 3, game needs 2"),
    # The length is the first vector's, so an empty one is named for it.
    (dg.alignment_sign, ([], [], []), "xi is empty"),
    (dg.alignment_sign, (np.zeros(0), [1.0], [1.0]), "xi is empty"),
    (dg.infinitesimal_alignment, ([], [], []), "u is empty"),
], ids=["alignment_sign-bool", "alignment_sign-nan", "alignment_sign-str",
        "alignment_sign-length", "alignment_sign-inf",
        "infinitesimal_alignment-bool", "infinitesimal_alignment-nan",
        "infinitesimal_alignment-str", "infinitesimal_alignment-length",
        "alignment_sign-empty", "alignment_sign-empty-first",
        "infinitesimal_alignment-empty"])
def test_alignment_vectors_are_checked(call, args, said):
    with pytest.raises(ValueError, match=re.escape(said)):
        call(*args)


class TestInfinitesimalAlignment:
    def test_bending_toward_target(self):
        out = dg.infinitesimal_alignment([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
        assert out == pytest.approx(1.0)

    def test_zero_direction_changes_nothing(self):
        assert dg.infinitesimal_alignment([1.0, 2.0], [0.0, 0.0],
                                          [3.0, 1.0]) == 0.0

    def test_rejects_zero_endpoints(self):
        with pytest.raises(ValueError):
            dg.infinitesimal_alignment([0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            dg.infinitesimal_alignment([1.0, 0.0], [1.0, 0.0], [0.0, 0.0])

    def test_orthogonal_direction_sign_rule(self):
        # with v orthogonal to u the sign reduces to sign(<u,w><v,w>)
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 8))
            u = rng.standard_normal(d)
            w = rng.standard_normal(d)
            v = rng.standard_normal(d)
            v -= (v @ u) / (u @ u) * u
            product = (u @ w) * (v @ w)
            if abs(product) < 1e-12:
                continue
            align = dg.infinitesimal_alignment(u, v, w)
            assert np.sign(align) == np.sign(product)
            checked += 1

    def test_closed_form_matches_finite_difference(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 8))
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            w = rng.standard_normal(d)
            closed = dg.infinitesimal_alignment(u, v, w)
            if abs(closed) < 1e-6:
                continue
            fd = fd_cos2_derivative(u, v, w)
            assert abs(closed - fd) <= 1e-4 * abs(closed)
            checked += 1


class TestAdjustedFieldInequalities:
    def test_commuting_isotropic_part(self):
        # S = sigma I commutes with everything: the adjusted field never
        # descends the squared-field function, for any positive weight
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            sigma = rng.uniform(0.05, 2.0)
            anti = random_antisymmetric(rng, d)
            xi = rng.standard_normal(d)
            grad_h = (sigma * np.eye(d) + anti).T @ xi
            for lam in (0.0, 0.1, 1.0, 10.0):
                adjusted = xi + lam * (anti.T @ xi)
                assert adjusted @ grad_h >= -1e-12

    def test_weight_window_from_eigenvalue_spread(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            sym = random_symmetric(rng, d, 0.0, 2.0)
            anti = random_antisymmetric(rng, d)
            xi = rng.standard_normal(d)
            eigs = np.linalg.eigvalsh(sym)
            kappa = float(eigs[-1] - eigs[0])
            lam = rng.uniform(0.0, 4.0 / kappa) if kappa > 1e-12 else \
                rng.uniform(0.0, 10.0)
            grad_h = (sym + anti).T @ xi
            adjusted = xi + lam * (anti.T @ xi)
            assert adjusted @ grad_h >= -1e-9

    def test_mirrored_window_for_negative_part(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            sym = -random_symmetric(rng, d, 0.0, 2.0)
            anti = random_antisymmetric(rng, d)
            xi = rng.standard_normal(d)
            eigs = np.linalg.eigvalsh(sym)
            kappa = float(eigs[-1] - eigs[0])
            lam = rng.uniform(0.0, 4.0 / kappa) if kappa > 1e-12 else \
                rng.uniform(0.0, 10.0)
            grad_h = (sym + anti).T @ xi
            adjusted = xi - lam * (anti.T @ xi)
            assert adjusted @ grad_h <= 1e-9


def test_nan_field_is_not_a_fixed_point():
    """A finite point where the field is NaN is not fixed, though an
    analytic Hessian makes every other part of the report finite."""
    game = dg.make_game(dg.PlayerPartition((1, 1)),
                        [lambda w: 0.0, lambda w: 0.0],
                        [lambda w: np.full(1, np.nan), lambda w: w[:1]],
                        hessian=lambda w: np.eye(2))
    with pytest.raises(dg.NotAFixedPointError, match="nan"):
        dg.classify_fixed_point(game, [0.0, 0.0])
