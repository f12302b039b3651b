import itertools
import re
import warnings
import zlib

import numpy as np
import pytest

import diffgames as dg
from diffgames import dynamics

from conftest import (CATALOG_DEFAULTS, plain_game,
                      random_block_antisymmetric, random_symmetric, rel_err)


class TestPlayerPartition:
    def test_offsets_are_prefix_sums(self):
        p = dg.PlayerPartition((2, 3, 1))
        assert p.offsets == (0, 2, 5)
        assert p.total == 6
        assert p.num_players == 3
        assert p.block(1) == slice(2, 5)

    def test_split_views(self):
        p = dg.PlayerPartition((1, 2))
        w = np.array([1.0, 2.0, 3.0])
        xs = p.split(w)
        assert xs[0].tolist() == [1.0]
        assert xs[1].tolist() == [2.0, 3.0]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            dg.PlayerPartition((0, 1))
        with pytest.raises(ValueError):
            dg.PlayerPartition(())

    @pytest.mark.parametrize("sizes", [(1.5, 1), (True, 1), ("2", 1),
                                       (10**400, 1)])
    def test_rejects_sizes_that_are_not_whole_numbers(self, sizes):
        with pytest.raises(ValueError, match="player size must be a whole "
                                             "number"):
            dg.PlayerPartition(sizes)

    def test_whole_float_sizes_become_ints(self):
        assert dg.PlayerPartition((2.0, np.int64(1))).sizes == (2, 1)


class TestPoint:
    def test_length_checked(self):
        p = dg.PlayerPartition((1, 1))
        with pytest.raises(ValueError):
            dg.as_point(p, [1.0, 2.0, 3.0])

    def test_finite_checked(self):
        p = dg.PlayerPartition((1, 1))
        with pytest.raises(ValueError):
            dg.as_point(p, [1.0, np.inf])

    @pytest.mark.parametrize("values,named", [
        ([True, 1], "True"), ([1.0, np.False_], "np.False_"),
        (((1.0, True),), "True"), (np.array([True, 1], dtype=object), "True"),
        (np.array([False, True]), "False")])
    def test_booleans_rejected(self, values, named):
        with pytest.raises(ValueError, match=re.escape(
                f"point must hold numbers, got {named}")):
            dg.as_point(dg.PlayerPartition((1, 1)), values)

    @pytest.mark.parametrize("values,named", [
        (["a", 1], "'a'"), (["1.5", 1], "'1.5'"), ([None, 1.0], "None"),
        (np.array(["1.5", "1"]), "'1.5'"), ([1.0, 1j], "1j"),
        pytest.param([10**400, 1], repr(10**400), id="huge-int")])
    def test_non_numbers_rejected(self, values, named):
        # A string raised NumPy's conversion error, a numeric one was
        # taken as its number, and an int too large for a float raised
        # OverflowError.
        with pytest.raises(ValueError, match=re.escape(
                f"point must hold numbers, got {named}")):
            dg.as_point(dg.PlayerPartition((1, 1)), values)
        with pytest.raises(ValueError, match=re.escape(named)):
            dg.run(dg.AdjusterSpec("sga"), dg.catalog_game("example7"),
                   values, 0.1)

    def test_run_and_sweep_reject_boolean_starts(self):
        # Both took True as 1.0 and ran from (1.0, 1.0).
        spec = dg.AdjusterSpec("sga")
        with pytest.raises(ValueError, match="got True"):
            dg.run(spec, dg.catalog_game("example7"), [True, 1], 0.1)
        with pytest.raises(ValueError, match="got True"):
            dg.SweepConfig(game="example7", adjusters=(spec,), etas=(0.1,),
                           w0=((True, 1),))


class TestMakeGame:
    def test_smallest_bilinear_game(self):
        p = dg.PlayerPartition((1, 1))
        game = dg.make_game(
            p,
            losses=[lambda w: w[0] * w[1], lambda w: -w[0] * w[1]],
            gradients=[lambda w: w[1:2], lambda w: -w[0:1]],
        )
        assert game.dim == 2
        assert dg.simultaneous_gradient(game, [1.0, 1.0]).tolist() == [1.0, -1.0]

    def test_identity_payoff_two_by_two(self):
        p = dg.PlayerPartition((2, 2))
        a = np.eye(2)
        game = dg.make_game(
            p,
            losses=[lambda w: w[:2] @ a @ w[2:], lambda w: -w[:2] @ a @ w[2:]],
            gradients=[lambda w: a @ w[2:], lambda w: -a.T @ w[:2]],
        )
        assert game.dim == 4

    def test_four_player_losses_match_catalog(self):
        eps = 0.01
        p = dg.PlayerPartition((1, 1, 1, 1))

        def l1(w): return eps / 2 * w[0] ** 2 + w[0] * (w[1] + w[2] + w[3])
        def l2(w): return -w[0] * w[1] + eps / 2 * w[1] ** 2 + w[1] * (w[2] + w[3])
        def l3(w): return -w[0] * w[2] - w[1] * w[2] + eps / 2 * w[2] ** 2 + w[2] * w[3]
        def l4(w): return -w[3] * (w[0] + w[1] + w[2]) + eps / 2 * w[3] ** 2

        game = dg.make_game(
            p,
            losses=[l1, l2, l3, l4],
            gradients=[
                lambda w: np.array([eps * w[0] + w[1] + w[2] + w[3]]),
                lambda w: np.array([-w[0] + eps * w[1] + w[2] + w[3]]),
                lambda w: np.array([-w[0] - w[1] + eps * w[2] + w[3]]),
                lambda w: np.array([-w[0] - w[1] - w[2] + eps * w[3]]),
            ],
        )
        catalog = dg.catalog_game("fig7_four_player", epsilon=eps)
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.standard_normal(4)
            assert np.allclose(game.loss_vector(w), catalog.loss_vector(w))
            assert np.allclose(dg.simultaneous_gradient(game, w),
                               dg.simultaneous_gradient(catalog, w))

    def test_gradient_size_mismatch_rejected(self):
        p = dg.PlayerPartition((1, 1))
        with pytest.raises(ValueError):
            dg.make_game(
                p,
                losses=[lambda w: 0.0, lambda w: 0.0],
                gradients=[lambda w: np.zeros(2), lambda w: np.zeros(1)],
            )


class TestCatalog:
    def test_fig3_losses(self):
        game = dg.catalog_game("fig3_weak_attractor")
        x, y = 1.0, 1.0
        assert game.loss(0, np.array([x, y])) == pytest.approx(0.5 * x * x + 10 * x * y)
        assert game.loss(1, np.array([x, y])) == pytest.approx(0.5 * y * y - 10 * x * y)

    def test_example6_field_value(self):
        game = dg.catalog_game("example6", epsilon=0.1)
        xi = dg.simultaneous_gradient(game, [1.0, 0.0])
        assert np.allclose(xi, [-0.1, 1.0])

    def test_example7_constant_hessian(self):
        game = dg.catalog_game("example7")
        h1 = game.analytic_hessian(np.array([0.3, -0.8]))
        h2 = game.analytic_hessian(np.array([100.0, 5.0]))
        assert np.array_equal(h1, h2)
        assert np.array_equal(h1, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_loss_vector_examples(self):
        bilinear = dg.catalog_game("fig4_bilinear")
        assert bilinear.loss_vector([0.0, 0.0]).tolist() == [0.0, 0.0]
        fig3 = dg.catalog_game("fig3_weak_attractor")
        assert np.allclose(fig3.loss_vector([1.0, 1.0]), [10.5, -9.5])
        e4 = dg.catalog_game("example4")
        assert np.allclose(e4.loss_vector([1.0, 1.0]), [2.0, -2.0])

    @pytest.mark.parametrize("name,key,value", [
        ("fig3_weak_attractor", "coupling", None),
        ("fig3_weak_attractor", "coupling", [1.0, 2.0]),
        ("example3", "a", {"x": 1.0}),
        ("example1", "dim", None),
        ("example5", "kappa", "steep"),
        ("fig3_weak_attractor", "coupling", True),
        ("example5", "kappa", "3"),
        ("example1", "dim", True),
        ("fig4_bilinear", "dim", "3"),
    ])
    def test_non_numeric_parameter_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=f"parameter '{key}' of game "
                                             f"'{name}' must be a number"):
            dg.catalog_game(name, **{key: value})

    def test_matrix_parameters_keep_taking_matrices(self):
        game = dg.catalog_game("example1", payoff=[[1.0, 2.0, 0.0]])
        assert game.partition.sizes == (1, 3)
        game = dg.catalog_game("example2", p=[[1.0], [2.0]], q=[[0.0], [1.0]])
        assert game.partition.sizes == (2, 1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown game"):
            dg.catalog_game("nope")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            dg.catalog_game("example5", gamma=1.0)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError):
            dg.catalog_game("example5", kappa=0.0)
        with pytest.raises(ValueError):
            dg.catalog_game("example5", kappa=-3.0)

    def test_nonpositive_epsilon_rejected_for_repellor(self):
        with pytest.raises(ValueError):
            dg.catalog_game("example6", epsilon=0.0)

    def test_fig7_allows_zero_damping(self):
        game = dg.catalog_game("fig7_four_player", epsilon=0.0)
        assert game.dim == 4

    @pytest.mark.parametrize("name", ["example1", "example2", "fig4_bilinear"])
    @pytest.mark.parametrize("dim", [1.5, 0, -2, np.nan, np.inf])
    def test_dimension_must_be_a_whole_number(self, name, dim):
        with pytest.raises(ValueError, match="dim must be a whole number"):
            dg.catalog_game(name, dim=dim)

    def test_dimension_checked_beside_payoffs(self):
        with pytest.raises(ValueError, match="dim must be a whole number"):
            dg.catalog_game("example1", dim=7.5, payoff=[[1.0, 2.0]])
        with pytest.raises(ValueError, match="dim must be a whole number"):
            dg.catalog_game("example2", dim=-3, p=[[1.0]], q=[[2.0]])

    @pytest.mark.parametrize("name,param", [
        (e.name, k) for e in dg.CATALOG.values()
        for k, v in e.defaults.items() if isinstance(v, float)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, name, param, value):
        with pytest.raises(ValueError):
            dg.catalog_game(name, **{param: value})

    def test_whole_float_dimension_accepted(self):
        # The command line passes every parameter as a float.
        assert dg.catalog_game("fig4_bilinear", dim=2.0).dim == 4

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_analytic_gradients_match_finite_differences(self, name, params):
        game = dg.catalog_game(name, **params)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(100):
            w = rng.uniform(-2, 2, size=game.dim)
            for i in range(game.num_players):
                fd = dg.fd_gradient(lambda v, i=i: game.loss(i, v), w)
                analytic = game.player_gradient(i, w)
                assert rel_err(analytic, fd[game.partition.block(i)]) <= 1e-5

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_hessian_constant_bitwise(self, name, params):
        game = dg.catalog_game(name, **params)
        h1 = game.analytic_hessian(np.full(game.dim, 0.25))
        h2 = game.analytic_hessian(np.full(game.dim, -3.5))
        assert np.array_equal(h1, h2)

    @pytest.mark.parametrize("name,params", [
        ("example1", {}),
        ("example1", {"dim": 3}),
        ("example4", {}),
        ("fig4_bilinear", {"dim": 2}),
        ("fig7_four_player", {"epsilon": 0.0}),
        ("example3", {"a": 0.0, "b": 0.0}),
    ])
    def test_zero_sum_games_sum_to_zero(self, name, params):
        game = dg.catalog_game(name, **params)
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.uniform(-5, 5, size=game.dim)
            assert abs(game.loss_vector(w).sum()) <= 1e-12

    def test_example1_custom_payoff(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
        game = dg.catalog_game("example1", payoff=a)
        assert game.partition.sizes == (3, 2)
        w = np.array([1.0, -1.0, 2.0, 0.5, 0.25])
        x, y = w[:3], w[3:]
        assert game.loss(0, w) == pytest.approx(x @ a @ y)
        assert game.loss(1, w) == pytest.approx(-x @ a @ y)


class TestQuadraticGame:
    def test_rejects_asymmetric_coefficients(self):
        p = dg.PlayerPartition((1, 1))
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            dg.QuadraticGame(p, [bad, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        p = dg.PlayerPartition((1, 1))
        b = np.array([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            dg.QuadraticGame(p, [b, -np.eye(2)])
        with pytest.raises(ValueError, match="finite"):
            dg.QuadraticGame(p, [np.eye(2), np.eye(2)],
                             [[0.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            dg.quadratic_game_from_hessian(p, [[0.0, 1.0], [bad, 0.0]])

    def test_terms_are_read_only_views_of_one_stack(self):
        game = dg.catalog_game("example3")
        for terms in (game.coefficients, game.linear_terms):
            assert all(t.base is terms[0].base is not None for t in terms)
            assert not any(t.flags.writeable for t in terms)

    def test_hessian_row_blocks_come_from_coefficients(self):
        game = dg.catalog_game("example7")
        h = game.hessian_matrix
        for i in range(2):
            blk = game.partition.block(i)
            assert np.array_equal(h[blk, :], game.coefficients[i][blk, :])

    def test_gradient_offset(self):
        game = dg.catalog_game("example3", a=2.0, b=3.0)
        # xi = H w + c must vanish at the shifted equilibrium (a, b)
        assert np.allclose(game.gradient_offset, [-3.0, 2.0])
        xi = dg.simultaneous_gradient(game, [2.0, 3.0])
        assert np.allclose(xi, 0.0)


class TestGameFromHessian:
    def test_reproduces_hessian_exactly(self):
        rng = np.random.default_rng(11)
        p = dg.PlayerPartition((2, 3))
        h = rng.standard_normal((5, 5))
        for i in range(2):
            blk = p.block(i)
            d = h[blk, blk]
            h[blk, blk] = 0.5 * (d + d.T)
        game = dg.quadratic_game_from_hessian(p, h)
        assert np.array_equal(game.hessian_matrix, h)

    def test_reproduces_a_hessian_symmetric_to_rounding_exactly(self):
        # (q * e) @ q.T is symmetric only to rounding: the game's diagonal
        # blocks must be h's, not their transposes.
        rng = np.random.default_rng(41)
        p = dg.PlayerPartition((4, 4))
        h = random_symmetric(rng, 8, -1.0, 1.0) + random_block_antisymmetric(
            rng, p)
        assert not np.array_equal(h[:4, :4], h[:4, :4].T)
        game = dg.quadratic_game_from_hessian(p, h)
        assert np.array_equal(game.hessian_matrix, h)

    def test_rejects_asymmetric_diagonal_block(self):
        p = dg.PlayerPartition((2, 1))
        h = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValueError, match="diagonal block"):
            dg.quadratic_game_from_hessian(p, h)

    def test_checks_each_diagonal_block_at_its_players_scale(self):
        # Player 0's block is asymmetric by 1e-9 at its own scale of 1;
        # player 1's row holds 1e6, which must not excuse it.
        p = dg.PlayerPartition((2, 2))
        h = np.zeros((4, 4))
        h[2:, 2:] = np.eye(2)
        h[2, 0], h[0, 1], h[1, 0] = 1e6, 1.0, 1.0 + 1e-9
        with pytest.raises(ValueError, match="^diagonal block 0 of the "
                           "hessian must be symmetric$"):
            dg.quadratic_game_from_hessian(p, h)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 0)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_hessian_without_warning(self, entry, bad):
        p = dg.PlayerPartition((2, 1))
        h = np.eye(3)
        h[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hessian is not finite"):
                dg.quadratic_game_from_hessian(p, h)

    @pytest.mark.parametrize("offset,said", [
        ([1.0, 2.0, 3.0], "offset has length 3, game needs 2"),
        ([1.0], "offset has length 1, game needs 2"),
        ([True, 0.0], "offset must hold numbers, got True"),
    ])
    def test_offset_checked_as_a_vector(self, offset, said):
        p = dg.PlayerPartition((1, 1))
        with pytest.raises(ValueError, match=said):
            dg.quadratic_game_from_hessian(p, np.eye(2), offset=offset)

    def test_offset_realized_in_field(self):
        rng = np.random.default_rng(2)
        p = dg.PlayerPartition((1, 2))
        h = np.diag([1.0, 2.0, 3.0])
        c = rng.standard_normal(3)
        game = dg.quadratic_game_from_hessian(p, h, offset=c)
        xi = dg.simultaneous_gradient(game, np.zeros(3))
        assert np.allclose(xi, c)


# A boolean is not a number in a matrix either, nor is an int too large
# for a float, and each message names the argument; an integer array (even
# one written with True) is numeric.
@pytest.mark.parametrize("call,said", [
    (lambda: dg.helmholtz_split([[True, 0], [0, 1]]),
     "hessian must hold numbers, got True"),
    (lambda: dg.helmholtz_split(np.eye(2, dtype=bool)),
     "hessian must hold numbers, got True"),
    (lambda: dg.quadratic_game_from_hessian(dg.PlayerPartition((1, 1)),
                                            [[True, 0], [0, 1]]),
     "hessian must hold numbers, got True"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [[[True, 0], [0, 0]], np.eye(2)]),
     "coefficient matrix 0 must hold numbers, got True"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [np.eye(2), [[1, "0"], [0, 1]]]),
     "coefficient matrix 1 must hold numbers, got '0'"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [np.eye(2), np.eye(2)], [[True, 0], [0, 0]]),
     "linear terms must hold numbers, got True"),
    (lambda: dg.helmholtz_split([[10**400]]),
     f"hessian must hold numbers, got {10**400!r}"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [np.eye(2), [[1, 0], [0, -10**400]]]),
     f"coefficient matrix 1 must hold numbers, got {-10**400!r}"),
    (lambda: dg.catalog_game("example1", payoff=[[True]]),
     "payoff must hold numbers, got True"),
    (lambda: dg.catalog_game("example2", p=[[1.0]], q=[[True]]),
     "q must hold numbers, got True"),
    (lambda: dg.catalog_game("example2", p=[["1"]], q=[[1.0]]),
     "p must hold numbers, got '1'"),
], ids=["helmholtz_split", "helmholtz_split-bool-array",
        "quadratic_game_from_hessian", "QuadraticGame.coefficients",
        "QuadraticGame.coefficients-str", "QuadraticGame.linear",
        "helmholtz_split-huge-int", "QuadraticGame.coefficients-huge-int",
        "catalog.payoff", "catalog.q", "catalog.p-str"])
def test_matrices_hold_numbers(call, said):
    with pytest.raises(ValueError, match=re.escape(said)):
        call()


# Each shape and count check at a game's boundary, with its message.
@pytest.mark.parametrize("call,said", [
    (lambda: dg.Game(dg.PlayerPartition((1, 1)), [lambda w: 0.0],
                     [lambda w: w[:1], lambda w: w[1:]]),
     "expected 2 losses and gradients, got 1 and 2"),
    (lambda: dg.make_game(dg.PlayerPartition((1, 1)),
                          [lambda w: 0.0] * 2,
                          [lambda w: w[:1], lambda w: w[1:]]
                          ).analytic_hessian(np.zeros(2)),
     "game has no analytic Hessian"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [np.eye(3), np.eye(2)]),
     "coefficient matrix 0 is not 2x2"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)), [np.eye(2)]),
     "expected 2 coefficient matrices"),
    (lambda: dg.QuadraticGame(dg.PlayerPartition((1, 1)),
                              [np.eye(2), np.eye(2)],
                              [[0.0, 0.0, 0.0], [0.0, 0.0]]),
     "linear terms must be n vectors of length d"),
    (lambda: dg.quadratic_game_from_hessian(dg.PlayerPartition((1, 1)),
                                            np.eye(3)),
     "hessian is not 2x2"),
    (lambda: dg.catalog_game("example2", p=[[1.0, 2.0]], q=[[1.0]]),
     "payoff matrices must share a shape"),
    (lambda: dg.catalog_game("fig7_four_player", epsilon=-0.1),
     "epsilon must be nonnegative, got -0.1"),
    (lambda: dg.catalog_game("example1", payoff=[[[1.0]]]),
     "payoff must be a nonempty matrix, got shape (1, 1, 1)"),
    (lambda: dg.catalog_game("example1", payoff=[]),
     "payoff must be a nonempty matrix, got shape (1, 0)"),
    (lambda: dg.catalog_game("example2", p=[[[1.0]]], q=[[1.0]]),
     "p must be a nonempty matrix, got shape (1, 1, 1)"),
    (lambda: dg.catalog_game("example2", p=[[1.0]], q=np.ones((1, 1, 1))),
     "q must be a nonempty matrix, got shape (1, 1, 1)"),
], ids=["Game.losses", "analytic_hessian", "QuadraticGame.coefficients",
        "QuadraticGame.count", "QuadraticGame.linear",
        "quadratic_game_from_hessian", "catalog.example2",
        "catalog.fig7", "catalog.payoff-3d", "catalog.payoff-empty",
        "catalog.p-3d", "catalog.q-3d"])
def test_shapes_and_counts_are_checked(call, said):
    with pytest.raises(ValueError, match=f"^{re.escape(said)}$"):
        call()


def test_integer_matrices_are_numbers():
    h = np.array([[True, 0], [0, 0]])
    assert h.dtype.kind == "i"
    assert dg.helmholtz_split(h).hessian.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    game = dg.QuadraticGame(dg.PlayerPartition((1, 1)), [h, np.eye(2)],
                            [h[0], h[1]])
    assert game.hessian_matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# Rows whose bits the batched evaluation must keep: signed zeros,
# subnormals, huge and non-finite entries, and a ramp.
EDGE_ROWS = (-0.0, 0.0, 1e-320, -1e-320, 1e300, -np.inf, np.nan)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
def test_batch_evaluation_keeps_every_bit(name, params):
    """``batch_losses`` and ``batch_field`` equal the per-player callables
    row by row as bytes: ``np.array_equal`` would take -0.0 for 0.0."""
    game = dg.catalog_game(name, **params)
    plain = plain_game(game)
    d = game.dim
    points = np.array([np.full(d, v) for v in EDGE_ROWS]
                      + [np.linspace(-1.5, 2.5, d)])
    losses, field = game.batch_losses(points), game.batch_field(points)
    for w, loss, xi in zip(points, losses, field):
        want_loss = plain.loss_vector(w)
        want_xi = dg.Game.batch_field(plain, w[None])[0]
        assert loss.tobytes() == want_loss.tobytes(), w
        assert xi.tobytes() == want_xi.tobytes(), w


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_batch_evaluation_of_a_dense_game():
    """A custom game whose B_i have no zero entry and whose linear terms
    are zero: every finite row keeps its bits and the field keeps them at
    every row.  At an infinite entry the skipped ``b_i' w`` would have made
    the losses NaN; they stay non-finite."""
    rng = np.random.default_rng(7)
    coefficients = []
    for _ in range(2):
        m = rng.uniform(0.5, 1.5, (3, 3))
        coefficients.append(m + m.T)
    game = dg.QuadraticGame(dg.PlayerPartition((2, 1)), coefficients)
    plain = plain_game(game)
    points = np.array([np.full(3, v) for v in EDGE_ROWS]
                      + [[np.inf, 1.0, 2.0], np.linspace(-1.5, 2.5, 3)])
    losses, field = game.batch_losses(points), game.batch_field(points)
    for w, loss, xi in zip(points, losses, field):
        want_loss = plain.loss_vector(w)
        want_xi = dg.Game.batch_field(plain, w[None])[0]
        assert xi.tobytes() == want_xi.tobytes(), w
        if np.isfinite(w).all():
            assert loss.tobytes() == want_loss.tobytes(), w
        else:
            assert not np.isfinite(loss).any(), w
            assert not np.isfinite(want_loss).any(), w


class TestEngineColumns:
    """The engine's own form of the field and the Hessian products: on the
    ``(k, C, d, 1)`` block buffers of column vectors that the engine keeps
    (``dynamics._Workspace``), the block kernel bound by
    ``dynamics._stepper`` writes the stock ``QuadraticGame`` field into
    the buffer's columns with one stacked gemv, and ``dynamics._products``
    takes H' xi and H xi from those columns.  Each row must keep the bits
    of the stacked ``player_gradient``, ``H.T @ xi`` and ``H @ xi``, and a
    dot product along the columns (``axis=-2``, the aligned rules' probe)
    those of one on a contiguous row.  A batch of one row steps with the
    game's one-column kernels (``np.dot`` on a ``(d, 1)`` column), which
    must give the stacked ones' bits.  Like ``TestFieldFromTheHessian``
    this rests on a BLAS kernel property; CI runs it at one BLAS thread
    and on the Haswell and Sandybridge kernels."""

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("sizes", [(1, 1), (2, 2), (32,) * 8],
                             ids=["d2", "d4", "d256"])
    def test_columns_equal_the_row_products(self, sizes, c, offset):
        game, rng = _dense_game(sizes, offset)
        d, k, h = game.dim, 4, game.hessian_matrix
        block = dynamics._stepper(dg.AdjusterSpec(dg.SIMGD), game)
        trans, plain = dynamics._products(game)
        # A block of k steps at a negative rate, so the points' scale
        # grows from step to step.
        space = dynamics._Workspace(0.1 * rng.standard_normal((c, d, 1)),
                                    None, k)
        eta = np.full((c, d, 1), -9.0)
        block(space, k, eta)
        grad_h, h_xi = np.empty((c, d, 1)), np.empty((c, d, 1))
        for j, (w, xi, new) in enumerate(space.steps(k)):
            assert new.tobytes() == (w - eta * xi).tobytes()
            trans(w, xi, grad_h)
            plain(w, xi, h_xi)
            probes = np.vecdot(xi, grad_h, axis=-2)
            for row in range(c):
                x = xi[row, :, 0]
                want = TestFieldFromTheHessian.stacked_gradients(
                    game, w[row, :, 0])
                assert x.tobytes() == want.tobytes(), (j, row)
                assert grad_h[row, :, 0].tobytes() == (h.T @ x).tobytes()
                assert h_xi[row, :, 0].tobytes() == (h @ x).tobytes()
                assert probes[row, 0] == np.vecdot(x, grad_h[row, :, 0])

    # A batch of one row steps with the game's one-column kernels:
    # np.dot(M, column, out) with M = H and H.T, against np.matmul(M,
    # stack) of the stacked ones, with the matrix and the columns each
    # scaled from 1e-3 to 1e3.
    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 33, 256])
    def test_one_column_kernels_equal_the_stacked_ones(self, d, offset):
        base, rng = _dense_game((d,) if d == 1 else (d - d // 2, d // 2),
                                offset)
        for scale_h, scale_w in itertools.product((1e-3, 1.0, 1e3),
                                                  repeat=2):
            game = dg.QuadraticGame(
                base.partition, [scale_h * b for b in base.coefficients],
                base.linear_terms)
            stacked = (game._field, *game._products)
            w = scale_w * rng.standard_normal((3, d, 1))
            xi = scale_w * rng.standard_normal((3, d, 1))
            out = np.empty((3, d, 1))
            for j, (many, one) in enumerate(zip(stacked, game._column)):
                args = (w,) if j == 0 else (w, xi)
                many(*args, out)
                for row in range(3):
                    column = np.empty((d, 1))
                    one(*(a[row] for a in args), column)
                    assert column.tobytes() == out[row].tobytes(), \
                        (j, row, scale_h, scale_w)


# Partitions of the field-from-H test: d from 2 to 512, odd and even
# player sizes; (32,) * 8 is the bench's `wide` game.
HESSIAN_PARTITIONS = [(1, 1), (2, 1), (3, 5, 9), (16,) * 4, (7,) * 9,
                      (32,) * 8, (100, 28), (128,) * 4]


def _dense_game(sizes, offset):
    """A quadratic game whose B_i have no zero entry, with nonzero linear
    terms when ``offset``."""
    partition = dg.PlayerPartition(sizes)
    d = partition.total
    rng = np.random.default_rng(zlib.crc32(repr((sizes, offset)).encode()))
    coefficients = []
    for _ in sizes:
        m = rng.uniform(-1.0, 1.0, (d, d))
        coefficients.append(m + m.T)
    linear = (list(rng.standard_normal((len(sizes), d))) if offset
              else None)
    return dg.QuadraticGame(partition, coefficients, linear), rng


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestFieldFromTheHessian:
    """``QuadraticGame.batch_field`` computes ``H w + c`` and
    ``batch_losses`` one ``B_i`` product per player over all rows; both
    must keep every bit of the per-player callables.

    That the row of H gives the bits of its owner's ``B_i @ w`` is a
    property of the BLAS kernels (OpenBLAS sums a row of a matrix-vector
    product in an order set by the matrix shape and the row's index, which
    the two products share), not a promise of any interface: a BLAS that
    breaks it fails here.  CI runs this class at one BLAS thread and at the
    default thread count.
    """

    @staticmethod
    def rows(game, rng, count, scale):
        d = game.dim
        edge = [np.full(d, v) for v in EDGE_ROWS]
        one_inf = np.linspace(-1.0, 1.0, d)
        one_inf[d // 2] = np.inf
        return np.concatenate([scale * rng.standard_normal((count, d)),
                               np.array(edge + [one_inf])])

    @staticmethod
    def stacked_gradients(game, w):
        return np.concatenate([game.player_gradient(i, w)
                               for i in range(game.num_players)])

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("sizes", HESSIAN_PARTITIONS)
    def test_field_equals_the_stacked_player_gradients(self, sizes, offset):
        game, rng = _dense_game(sizes, offset)
        for count in (1, 3, 16):
            for scale in (1e-3, 1.0, 1e3):
                points = self.rows(game, rng, count, scale)
                field = game.batch_field(points)
                assert field.shape == points.shape
                for w, xi in zip(points, field):
                    assert xi.tobytes() == \
                        self.stacked_gradients(game, w).tobytes(), \
                        (count, scale, w[:3])

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_field_of_the_catalog_games(self, name, params):
        game = dg.catalog_game(name, **params)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        points = self.rows(game, rng, 8, 10.0)
        for w, xi in zip(points, game.batch_field(points)):
            assert xi.tobytes() == self.stacked_gradients(game, w).tobytes()

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("sizes", HESSIAN_PARTITIONS)
    def test_losses_over_a_block_equal_loss_vector(self, sizes, offset):
        """The engine's call: the k pre-step points of C cells, k * C rows
        in one ``batch_losses``."""
        game, rng = _dense_game(sizes, offset)
        k, c = 16, 3
        points = self.rows(game, rng, k * c, 1.0)
        losses = game.batch_losses(points)
        assert losses.shape == (len(points), game.num_players)
        for w, loss in zip(points, losses):
            want = game.loss_vector(w)
            if np.isfinite(w).all():
                assert loss.tobytes() == want.tobytes(), w[:3]
            else:
                assert not np.isfinite(loss).any()
                assert not np.isfinite(want).any()
