import hashlib
import re
import zlib

import numpy as np
import pytest

import diffgames as dg
from diffgames.derivatives import _fd_step

from conftest import (CATALOG_DEFAULTS, POTENTIAL_GAMES, CountingGame,
                      TanhGame, random_realizable_game, rel_err)


def trig_game():
    """Non-quadratic two-player game exercising the finite-difference paths.

    l1 = sin(x + 2y), l2 = cos(3x - y); the game Hessian varies with w.
    """
    p = dg.PlayerPartition((1, 1))

    def hessian(w):
        x, y = w
        return np.array([
            [-np.sin(x + 2 * y), -2 * np.sin(x + 2 * y)],
            [3 * np.cos(3 * x - y), -np.cos(3 * x - y)],
        ])

    return dg.make_game(
        p,
        losses=[lambda w: np.sin(w[0] + 2 * w[1]),
                lambda w: np.cos(3 * w[0] - w[1])],
        gradients=[lambda w: np.array([np.cos(w[0] + 2 * w[1])]),
                   lambda w: np.array([np.sin(3 * w[0] - w[1])])],
        hessian=hessian,
    )


class TestSimultaneousGradient:
    def test_scalar_bilinear(self):
        game = dg.catalog_game("example1", payoff=[[1.0]])
        xi = dg.simultaneous_gradient(game, [1.0, 1.0])
        assert xi.tolist() == [1.0, -1.0]
        assert xi @ xi == pytest.approx(2.0)

    def test_weak_attractor(self):
        game = dg.catalog_game("fig3_weak_attractor")
        assert dg.simultaneous_gradient(game, [1.0, 1.0]).tolist() == [11.0, -9.0]

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_vanishes_at_unshifted_fixed_point(self, name, params):
        game = dg.catalog_game(name, **params)
        if np.any(game.gradient_offset):
            return  # shifted equilibrium, origin is not fixed
        xi = dg.simultaneous_gradient(game, np.zeros(game.dim))
        assert np.all(xi == 0.0)

    def test_concatenation_order(self):
        game = dg.catalog_game("example1", payoff=np.eye(2))
        w = np.array([1.0, 2.0, 3.0, 4.0])
        xi = dg.simultaneous_gradient(game, w)
        assert np.allclose(xi[:2], game.player_gradient(0, w))
        assert np.allclose(xi[2:], game.player_gradient(1, w))


def reusing_trig_game():
    """``trig_game``'s losses and field without a Hessian, from gradient
    callables that write the whole field into one shared buffer and return
    views of it: every call overwrites what earlier calls returned."""
    buf = np.empty(2)

    def gradient(i):
        def g(w):
            buf[0] = np.cos(w[0] + 2 * w[1])
            buf[1] = np.sin(3 * w[0] - w[1])
            return buf[i:i + 1]
        return g

    return dg.make_game(dg.PlayerPartition((1, 1)),
                        [lambda w: np.sin(w[0] + 2 * w[1]),
                         lambda w: np.cos(3 * w[0] - w[1])],
                        [gradient(0), gradient(1)])


def wide_game(offset):
    """A realizable quadratic game of 8 players of size 32 (d = 256)."""
    return random_realizable_game(np.random.default_rng(8),
                                  dg.PlayerPartition((32,) * 8), 0.5, 1.0,
                                  offset=offset)


class LateWrongLength:
    """Player 1's gradient of the bilinear game with losses w0 w1 and
    -w0 w1; once ``arm(good)`` is called, the gradient has length 2 from
    its ``good + 1``-th call on."""

    def __init__(self):
        self.left = None

    def arm(self, good):
        self.left = good

    def __call__(self, w):
        if self.left is not None:
            if self.left == 0:
                return np.zeros(2)
            self.left -= 1
        return -w[0:1]


def late_wrong_length_game():
    bad = LateWrongLength()
    game = dg.make_game(dg.PlayerPartition((1, 1)),
                        [lambda w: w[0] * w[1], lambda w: -w[0] * w[1]],
                        [lambda w: w[1:2], bad])
    return game, bad


WRONG_LENGTH = "gradient of player 1 has length 2, expected 1"


class TestBatchField:
    """``Game.batch_field``: the field at every row of a batch of points,
    the one evaluation every finite-difference product makes."""

    GAMES = {
        "trig": lambda: dg.fd_game(trig_game()),
        "tanh": lambda: TanhGame().build(analytic_hessian=False),
        **{name: (lambda name=name, params=params:
                  dg.catalog_game(name, **params))
           for name, params in CATALOG_DEFAULTS},
    }

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_rows_are_the_field_bit_for_bit(self, name):
        game = self.GAMES[name]()
        points = np.random.default_rng(zlib.crc32(name.encode())).uniform(
            -1.5, 1.5, (5, game.dim))
        field = game.batch_field(points)
        assert field.shape == (5, game.dim) and field.flags.c_contiguous
        for w, row in zip(points, field):
            assert row.tobytes() == dg.simultaneous_gradient(
                game, w).tobytes()
            assert row.tobytes() == np.concatenate(
                [game.player_gradient(i, w)
                 for i in range(game.num_players)]).tobytes()
        if isinstance(game, dg.QuadraticGame):
            # the override, from the game Hessian, against the base method
            assert dg.Game.batch_field(game, points).tobytes() \
                == field.tobytes()

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_products_equal_the_per_coordinate_loops(self, name):
        """thvp and full_hessian keep every bit of the loops they batch:
        one coordinate's two field evaluations at a time, and one hvp per
        column."""
        game = dg.fd_game(self.GAMES[name]())
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        w = rng.uniform(-1.5, 1.5, game.dim)
        v = rng.standard_normal(game.dim)
        h = _fd_step(w)
        loop = np.empty(game.dim)
        for j, e in enumerate(h * np.eye(game.dim)):
            g_plus = float(dg.simultaneous_gradient(game, w + e) @ v)
            g_minus = float(dg.simultaneous_gradient(game, w - e) @ v)
            loop[j] = (g_plus - g_minus) / (2.0 * h)
        assert dg.thvp(game, w, v).tobytes() == loop.tobytes()
        columns = np.column_stack([dg.hvp(game, w, e)
                                   for e in np.eye(game.dim)])
        assert dg.full_hessian(game, w).tobytes() == columns.tobytes()

    @pytest.mark.parametrize("name", ["trig", "tanh", "fig7_four_player"])
    def test_zero_rows(self, name):
        game = self.GAMES[name]()
        assert game.batch_field(np.zeros((0, game.dim))).shape == (0,
                                                                   game.dim)

    def test_reused_output_buffer(self):
        reusing, fresh = reusing_trig_game(), dg.fd_game(trig_game())
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = rng.uniform(-1.5, 1.5, 2)
            v = rng.standard_normal(2)
            for product in (dg.hvp, dg.thvp):
                assert (product(reusing, w, v).tobytes()
                        == product(fresh, w, v).tobytes())
            assert (dg.full_hessian(reusing, w).tobytes()
                    == dg.full_hessian(fresh, w).tobytes())
            points = rng.uniform(-1.5, 1.5, (3, 2))
            assert (reusing.batch_field(points).tobytes()
                    == fresh.batch_field(points).tobytes())

    # Beside the catalog's quadratic games (example3 has offsets), two of
    # the size of the bench's `wide` game, with and without offsets.
    NEW_ARRAY_GAMES = {
        **GAMES,
        "reusing": reusing_trig_game,
        "wide": lambda: wide_game(None),
        "wide-offset": lambda: wide_game(np.linspace(-1.0, 1.0, 256)),
    }

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("rows", [0, 1, 5])
    @pytest.mark.parametrize("name", sorted(NEW_ARRAY_GAMES))
    def test_returns_a_new_array_bit_for_bit(self, name, rows):
        """Each call returns a new C-ordered ``(C, d)`` array, which the
        Euler loop copies into its column buffer: it shares no memory with
        the points or with another call's result, a later call leaves it
        as it was (the ``reusing`` game's callables overwrite one buffer),
        and its bits are the per-player rows of the base method."""
        game = self.NEW_ARRAY_GAMES[name]()
        points = np.random.default_rng(zlib.crc32(name.encode())).uniform(
            -1.5, 1.5, (rows, game.dim))
        given = points.copy()
        field = game.batch_field(points)
        kept = field.copy()
        again = game.batch_field(-points)
        base = dg.Game.batch_field(game, points)
        assert field.dtype == np.float64 and field.flags.c_contiguous
        assert field.shape == (rows, game.dim)
        assert not np.shares_memory(field, points)
        assert not np.shares_memory(field, again)
        assert not np.shares_memory(field, base)
        assert field.tobytes() == kept.tobytes() == base.tobytes()
        assert points.tobytes() == given.tobytes()

    def test_wrong_length_later_in_a_thvp_batch(self):
        game, bad = late_wrong_length_game()
        bad.arm(2)  # the third of thvp's four points
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            dg.thvp(game, [0.3, 0.7], [1.0, 2.0])
        assert bad.left == 0

    def test_wrong_length_later_in_a_full_hessian_batch(self):
        game, bad = late_wrong_length_game()
        bad.arm(3)  # the last of its four points
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            dg.full_hessian(game, [0.3, 0.7])
        assert bad.left == 0

    def test_wrong_length_in_a_run_is_not_divergence(self):
        game, bad = late_wrong_length_game()
        oracle = dg.fd_game(game)
        # Each consensus iteration evaluates the field once, then thvp's
        # four points: call 8 is the second point of iteration 1's thvp.
        bad.arm(7)
        with pytest.raises(ValueError, match=WRONG_LENGTH):
            dg.run(dg.AdjusterSpec(dg.CONSENSUS), oracle, [0.5, 0.5], 0.05)
        assert bad.left == 0


class TestHvp:
    def test_weak_attractor_column(self):
        game = dg.catalog_game("fig3_weak_attractor")
        assert np.allclose(dg.hvp(game, [1.0, 1.0], [1.0, 0.0]), [1.0, -10.0])

    def test_symmetric_game(self):
        game = dg.catalog_game("example7")
        assert np.allclose(dg.hvp(game, [0.0, 0.0], [1.0, 1.0]), [3.0, 3.0])

    def test_zero_vector_short_circuits(self):
        game = dg.catalog_game("example7")
        for g in (game, dg.fd_game(game)):
            out = dg.hvp(g, [1.0, 2.0], [0.0, 0.0])
            assert np.all(out == 0.0)

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_fd_matches_analytic(self, name, params):
        game = dg.catalog_game(name, **params)
        oracle = dg.fd_game(game)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(100):
            w = rng.uniform(-2, 2, size=game.dim)
            v = rng.standard_normal(game.dim)
            exact = dg.hvp(game, w, v)
            fd = dg.hvp(oracle, w, v)
            assert rel_err(fd, exact) <= 1e-6

    def test_fd_scale_invariance_in_v(self):
        game = dg.fd_game(dg.catalog_game("fig3_weak_attractor"))
        w = np.array([0.5, -0.25])
        v = np.array([1.0, 2.0])
        big = dg.hvp(game, w, 1e12 * v)
        tiny = dg.hvp(game, w, 1e-12 * v)
        assert rel_err(big / 1e12, tiny * 1e12) <= 1e-9


class TestThvp:
    def test_weak_attractor(self):
        game = dg.catalog_game("fig3_weak_attractor")
        out = dg.thvp(game, [1.0, 1.0], [11.0, -9.0])
        assert np.allclose(out, [101.0, 101.0])

    def test_matches_hvp_on_symmetric_hessian(self):
        game = dg.catalog_game("example7")
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.standard_normal(2)
            v = rng.standard_normal(2)
            assert rel_err(dg.thvp(game, w, v), dg.hvp(game, w, v)) <= 1e-9

    def test_zero_vector(self):
        game = dg.catalog_game("example7")
        for g in (game, dg.fd_game(game)):
            assert np.all(dg.thvp(g, [1.0, 2.0], [0.0, 0.0]) == 0.0)

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_fd_matches_analytic(self, name, params):
        game = dg.catalog_game(name, **params)
        oracle = dg.fd_game(game)
        rng = np.random.default_rng(zlib.crc32((name + "t").encode()))
        for _ in range(100):
            w = rng.uniform(-2, 2, size=game.dim)
            v = rng.standard_normal(game.dim)
            assert rel_err(dg.thvp(oracle, w, v),
                           dg.thvp(game, w, v)) <= 1e-6


class TestProductVector:
    """``hvp`` and ``thvp`` check their vector v as ``as_point`` checks a
    point, before they evaluate anything."""

    @pytest.mark.parametrize("v,message", [
        ([True, 1], "v must hold numbers, got True"),
        (["1", 1], "v must hold numbers, got '1'"),
        ([np.nan, 1], "v has non-finite entries"),
        ([1.0, -np.inf], "v has non-finite entries"),
        ([1, 2, 3], "v has length 3, game needs 2"),
        pytest.param([10**400, 1], f"v must hold numbers, got {10**400!r}",
                     id="huge-int"),
    ])
    @pytest.mark.parametrize("product", [dg.hvp, dg.thvp])
    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_bad_vector_raises(self, fd, product, v, message):
        game = dg.catalog_game("example7")
        game = CountingGame(dg.fd_game(game) if fd else game)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            product(game, [0.5, 0.5], v)
        assert game.field_evals == 0

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_a_field_that_overflows_is_not_bad_input(self, fd):
        """The functions that hand on a field they computed take it
        unchecked: at a finite point where it overflows they return a
        non-finite value, as the field does.  ``analyze_point``, whose
        bundle is JSON, rejects such a point instead, on both builds."""
        game = dg.catalog_game("example7")
        game, w = dg.fd_game(game) if fd else game, [1e308, 1e308]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(dg.simultaneous_gradient(game, w)).any()
            assert not np.isfinite(dg.stability_probe(game, w))
            assert not np.isfinite(dg.grad_hamiltonian(game, w)).all()
            assert not np.isfinite(dg.sym_adjustment(game, w)).all()
            with pytest.raises(ValueError, match="is not finite"):
                dg.analyze_point(game, w)

    @pytest.mark.parametrize("product", [dg.hvp, dg.thvp])
    def test_whole_numbers_are_numbers(self, product):
        for game in (dg.catalog_game("example7"),
                     dg.fd_game(dg.catalog_game("example7"))):
            assert (product(game, [0.5, 0.5], [2, 1]).tobytes()
                    == product(game, [0.5, 0.5], [2.0, 1.0]).tobytes())


class TestSymAdjustment:
    def test_weak_attractor(self):
        game = dg.catalog_game("fig3_weak_attractor")
        assert np.allclose(dg.sym_adjustment(game, [1.0, 1.0]), [90.0, 110.0])

    def test_repellor_closed_form(self):
        # the adjustment field of the repellor game is (x, y) + eps (-y, x)
        game = dg.catalog_game("example6", epsilon=0.1)
        assert np.allclose(dg.sym_adjustment(game, [1.0, 0.0]), [1.0, 0.1])
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y = rng.standard_normal(2)
            expected = np.array([x - 0.1 * y, y + 0.1 * x])
            assert np.allclose(dg.sym_adjustment(game, [x, y]), expected)

    @pytest.mark.parametrize("name", POTENTIAL_GAMES)
    def test_vanishes_on_potential_games(self, name):
        game = dg.catalog_game(name)
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.standard_normal(game.dim)
            assert np.all(dg.sym_adjustment(game, w) == 0.0)

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_orthogonal_to_field(self, name, params):
        game = dg.catalog_game(name, **params)
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = rng.uniform(-3, 3, size=game.dim)
            xi = dg.simultaneous_gradient(game, w)
            adj = dg.sym_adjustment(game, w)
            assert abs(xi @ adj) <= 1e-9 * max(xi @ xi, 1e-300)


class TestGradHamiltonian:
    def test_weak_attractor(self):
        game = dg.catalog_game("fig3_weak_attractor")
        assert np.allclose(dg.grad_hamiltonian(game, [1.0, 1.0]), [101.0, 101.0])

    def test_conserving_game(self):
        game = dg.catalog_game("example1", payoff=[[1.0]])
        gh = dg.grad_hamiltonian(game, [1.0, 1.0])
        assert np.allclose(gh, [1.0, 1.0])
        xi = dg.simultaneous_gradient(game, [1.0, 1.0])
        assert xi @ gh == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_fixed_point(self):
        game = dg.catalog_game("example7")
        assert np.all(dg.grad_hamiltonian(game, [0.0, 0.0]) == 0.0)

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS)
    def test_matches_fd_gradient_of_half_norm_sq(self, name, params):
        game = dg.catalog_game(name, **params)

        def half_norm_sq(w):
            xi = dg.simultaneous_gradient(game, w)
            return 0.5 * float(xi @ xi)

        rng = np.random.default_rng(17)
        for _ in range(20):
            w = rng.uniform(-2, 2, size=game.dim)
            fd = dg.fd_gradient(half_norm_sq, w)
            assert rel_err(dg.grad_hamiltonian(game, w), fd) <= 1e-5


class TestFullHessian:
    def test_weak_attractor(self):
        game = dg.catalog_game("fig3_weak_attractor")
        expected = np.array([[1.0, 10.0], [-10.0, 1.0]])
        assert np.array_equal(dg.full_hessian(game, [0.0, 0.0]), expected)
        assert rel_err(dg.full_hessian(dg.fd_game(game), [0.0, 0.0]),
                       expected) <= 1e-6

    def test_equal_payoffs_have_no_rotation(self):
        p = np.array([[1.0, 0.5], [0.25, 2.0]])
        game = dg.catalog_game("example2", p=p, q=p)
        h = dg.full_hessian(game, np.zeros(4))
        anti = 0.5 * (h - h.T)
        sym = 0.5 * (h + h.T)
        assert np.max(np.abs(anti)) <= 1e-12
        assert np.allclose(sym[:2, 2:], p)

    def test_four_player_rotation_matrix(self):
        game = dg.catalog_game("fig7_four_player", epsilon=0.0)
        expected = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [-1.0, 0.0, 1.0, 1.0],
            [-1.0, -1.0, 0.0, 1.0],
            [-1.0, -1.0, -1.0, 0.0],
        ])
        assert np.array_equal(dg.full_hessian(game, np.zeros(4)), expected)

    def test_dimension_cap_on_fd_path(self):
        game = dg.fd_game(dg.catalog_game("example1", dim=257))
        with pytest.raises(ValueError, match="cap 512"):
            dg.full_hessian(game, np.zeros(514))


class TestNonQuadraticGame:
    def test_fd_products_track_moving_hessian(self):
        game = trig_game()
        oracle = dg.fd_game(game)
        rng = np.random.default_rng(23)
        for _ in range(25):
            w = rng.uniform(-1.5, 1.5, size=2)
            v = rng.standard_normal(2)
            h = game.analytic_hessian(w)
            assert rel_err(dg.hvp(oracle, w, v), h @ v) <= 1e-6
            assert rel_err(dg.thvp(oracle, w, v), h.T @ v) <= 1e-6

    def test_fd_adjustment_orthogonal_to_field(self):
        game = dg.fd_game(trig_game())
        rng = np.random.default_rng(29)
        for _ in range(25):
            w = rng.uniform(-1.5, 1.5, size=2)
            xi = dg.simultaneous_gradient(game, w)
            adj = dg.sym_adjustment(game, w)
            assert abs(xi @ adj) <= 1e-7 * max(xi @ xi, 1e-300)

    def test_game_without_hessian_falls_back_to_fd(self):
        p = dg.PlayerPartition((1, 1))
        game = dg.make_game(
            p,
            losses=[lambda w: w[0] * w[1], lambda w: -w[0] * w[1]],
            gradients=[lambda w: w[1:2], lambda w: -w[0:1]],
        )
        assert not game.has_analytic_hessian
        h = dg.full_hessian(game, [0.3, 0.7])
        assert rel_err(h, np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-6


class TestFdGame:
    def test_same_losses_and_field_without_a_hessian(self):
        game = trig_game()
        oracle = dg.fd_game(game)
        assert game.has_analytic_hessian and not oracle.has_analytic_hessian
        assert oracle.partition == game.partition
        w = np.array([0.3, -0.7])
        assert np.array_equal(oracle.loss_vector(w), game.loss_vector(w))
        assert np.array_equal(dg.simultaneous_gradient(oracle, w),
                              dg.simultaneous_gradient(game, w))


# Finite-difference results on every catalog game and on both TanhGame
# builds, first recorded with the finite-difference mode that ``fd_game``
# replaced: the rebuild without a Hessian keeps every bit of them.
PIN_GAMES = {name: (lambda name=name, params=params:
                    dg.catalog_game(name, **params))
             for name, params in CATALOG_DEFAULTS}
PIN_GAMES["tanh"] = lambda: TanhGame().build()
PIN_GAMES["tanh-no-hessian"] = lambda: TanhGame().build(
    analytic_hessian=False)

# Per game, the sha256 of ``products_digest`` (hvp, thvp, sym_adjustment,
# grad_hamiltonian, full_hessian and stability_probe at 3 seeded points) and
# of ``runs_digest`` (points, losses, signs and probes of one 50-iteration
# run per rule).
FD_PINS = {
    "example1": (
        "a5dba22f74819a3f0cb61d97ae8da6bccdca2f179de1cae1e1ce537e3f301408",
        "768a1576fa13c44919a9e041e6797a065d2197df0c4e652ca59e4757be71df99",
    ),
    "example2": (
        "44faea87838757d9ba4314878dabc3c779bc5c7cc155f451bb74a5831bdf5fbc",
        "db83412872fe484564ac712f22636aa8fb00406ff24b95df91738e4c880d97a5",
    ),
    "example3": (
        "36d3169a8e5a9c4e84f2d9b4cd56c830d92e63637ddf2087f227ec1435088da7",
        "16191ba0a9053cfba8e2906faefc83e5144e319d69a071e34729def544b0bffc",
    ),
    "example4": (
        "62c4e8b919ada916176f15264d8bec94b693d559d9d98f1f5ded54a389de5e79",
        "6535150c6838f950db43c6df171cdb7bc7595fc162cace50cdb74cd63375f101",
    ),
    "example5": (
        "1b68cde33966374fd1c847d8305b13d818b79314dc35f626682d278c741e735b",
        "c774a0755136a91f61707c1e532bf61ba2ea74397c47a87ffecb7db88aab08de",
    ),
    "example6": (
        "c83c96dad9e5aa4ca938966fc99e6b29ab4a040704619d3eda352785f9e82432",
        "a1fa034c8402b8e927c3082db253c4dd009dc64e57ea46ab47ab76d739391415",
    ),
    "example7": (
        "7f44be98e8056868776ba5c52daa410921e265d086736db98fede38db4cf69ae",
        "15d796ffbfb13564105dc72970cf257d0eca56bd51afa930d0dde67269839975",
    ),
    "fig3_weak_attractor": (
        "70ac85ac2672b75681566dce36ccf1ec66f794acd60a1722455371cafa086141",
        "b12ba7752c043665116fd76c571ea00334a00a10c885c63cc135eab5e751ca8b",
    ),
    "fig4_bilinear": (
        "efaf626b4ee53c92004197fd14d10f30d007166049d322730ccabecf46e6ba2b",
        "acc6ccbfb7268685cc35e1647334155dc3f054f0550fb060f3976edade09e0e1",
    ),
    "fig7_four_player": (
        "be51dc8457d669a3c6a10b6e700bc92d89ed804ee5c43ea9616ef998250ace15",
        "9793a0a6989e66fa63ac36407ec3a0a0cec55f15b3a1dcc0a13c4fafaecf2a3c",
    ),
    "tanh": (
        "def5e5ed217ad93d5acc23029b4533f84b0779e196db5cb50c6c96dbed2453ef",
        "8548bd1f1fcb4bd2462cde5fc52a9fe9d5a2a9e00e91de04245ac98a9c0cfd82",
    ),
    "tanh-no-hessian": (
        "def5e5ed217ad93d5acc23029b4533f84b0779e196db5cb50c6c96dbed2453ef",
        "8548bd1f1fcb4bd2462cde5fc52a9fe9d5a2a9e00e91de04245ac98a9c0cfd82",
    ),
}


def products_digest(game):
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for _ in range(3):
        w = rng.uniform(-1.5, 1.5, game.dim)
        v = rng.standard_normal(game.dim)
        for out in (dg.hvp(game, w, v), dg.thvp(game, w, v),
                    dg.sym_adjustment(game, w), dg.grad_hamiltonian(game, w),
                    dg.full_hessian(game, w), dg.stability_probe(game, w)):
            digest.update(np.asarray(out, dtype=float).tobytes())
    return digest.hexdigest()


def runs_digest(game):
    w0 = np.random.default_rng(11).uniform(-1.5, 1.5, game.dim)
    stop = dg.StopCriteria(max_iters=50)
    digest = hashlib.sha256()
    for kind in dg.KINDS:
        traj = dg.run(dg.AdjusterSpec(kind), game, w0, 0.05, stop)
        for a in (traj.points, traj.losses, traj.signs, traj.probes):
            digest.update(a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FD_PINS))
class TestFdGamePins:
    def test_products(self, name):
        oracle = dg.fd_game(PIN_GAMES[name]())
        assert products_digest(oracle) == FD_PINS[name][0]

    def test_runs(self, name):
        oracle = dg.fd_game(PIN_GAMES[name]())
        assert runs_digest(oracle) == FD_PINS[name][1]


# Every public function that takes a point of a game, called at w.
POINT_TAKERS = {
    "simultaneous_gradient": dg.simultaneous_gradient,
    "hvp": lambda game, w: dg.hvp(game, w, np.ones(game.dim)),
    "thvp": lambda game, w: dg.thvp(game, w, np.ones(game.dim)),
    "full_hessian": dg.full_hessian,
    "sym_adjustment": dg.sym_adjustment,
    "grad_hamiltonian": dg.grad_hamiltonian,
    "stability_probe": dg.stability_probe,
    "classify_game": lambda game, w: dg.classify_game(
        game, [np.zeros(game.dim), w]),
    "classify_fixed_point": dg.classify_fixed_point,
    "analyze_point": dg.analyze_point,
    "direction": lambda game, w: dg.direction(dg.AdjusterSpec("sga"),
                                              game, w),
    "run": lambda game, w: dg.run(
        dg.AdjusterSpec("sga"), game, w, 0.1,
        dg.StopCriteria(max_iters=1, loss_window=1)),
}

BOUNDARY_GAMES = {
    "fig3_weak_attractor": lambda: dg.catalog_game("fig3_weak_attractor"),
    "tanh": lambda: TanhGame().build(),
    "tanh-fd": lambda: dg.fd_game(TanhGame().build()),
}


def bad_point(game, case):
    """A point of the game with one NaN or inf entry, or a finite one with
    a coordinate too many, and the message ``as_point`` gives for it."""
    if case == "one too many":
        d = game.dim
        return np.zeros(d + 1), f"point has length {d + 1}, game needs {d}"
    w = np.zeros(game.dim)
    w[-1] = {"nan": np.nan, "inf": np.inf}[case]
    return w, "point has non-finite entries"


@pytest.mark.parametrize("game_name", sorted(BOUNDARY_GAMES))
@pytest.mark.parametrize("case", ["nan", "inf", "one too many"])
@pytest.mark.parametrize("name", list(POINT_TAKERS))
def test_every_point_is_checked_as_run_checks_it(name, case, game_name):
    game = BOUNDARY_GAMES[game_name]()
    w, message = bad_point(game, case)
    with pytest.raises(ValueError, match=f"^{message}$"):
        POINT_TAKERS[name](game, w)
