import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

import diffgames as dg
from diffgames import dynamics, experiments
from diffgames.experiments import CSV_COLUMNS

from conftest import CATALOG_DEFAULTS, CountingGame, TanhGame


def tiny_config(**overrides):
    base = dict(
        game="fig4_bilinear",
        adjusters=(dg.AdjusterSpec("sga", lam=1.0), dg.AdjusterSpec("omd")),
        etas=(0.1, 0.5, 1.2),
        stop=dg.StopCriteria(max_iters=250),
        seed=7,
    )
    base.update(overrides)
    return dg.SweepConfig(**base)


class TestSweep:
    def test_every_cell_present_once(self):
        cells = dg.sweep(tiny_config())
        assert len(cells) == 6
        keys = [(c.adjuster, c.eta) for c in cells]
        assert len(set(keys)) == 6

    def test_oracle_attached_to_linear_rules(self):
        cells = dg.sweep(tiny_config())
        for cell in cells:
            assert cell.spectral_radius is not None

    def test_no_oracle_for_aligned_rules(self):
        config = tiny_config(adjusters=(dg.AdjusterSpec("sga-aligned"),))
        cells = dg.sweep(config)
        assert all(c.spectral_radius is None for c in cells)

    def test_overflowing_oracle_raises(self):
        # A rule the oracle applies to gets a radius or an error, never the
        # empty column of a rule it does not apply to.
        config = tiny_config(game="fig3_weak_attractor", etas=(1e307,),
                             adjusters=(dg.AdjusterSpec("consensus"),))
        with pytest.raises(ValueError, match="'consensus' overflows"):
            dg.sweep(config)

    # The default budget stacks all rates; a budget of 1 byte stacks one.
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("kind,etas", [
        # The matrix is finite, its spectral radius is not.
        ("simgd", (0.1, 1.795e307)),
        ("consensus", (0.1, 1e307)),
        # A later rate's matrix overflows too.
        ("simgd", (0.1, 1.795e307, 1e308))])
    def test_overflow_is_named_at_its_first_rate(self, monkeypatch, budget,
                                                 kind, etas):
        if budget is not None:
            monkeypatch.setattr(dynamics, "_ORACLE_STACK_BYTES", budget)
        config = tiny_config(game="fig3_weak_attractor", etas=etas,
                             adjusters=(dg.AdjusterSpec(kind),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"'{kind}' overflows at eta={etas[1]!r}")):
                dg.sweep(config)

    def test_deterministic_reruns(self):
        a = dg.serialize(dg.sweep(tiny_config()), "json")
        b = dg.serialize(dg.sweep(tiny_config()), "json")
        assert a == b

    def test_random_ball_seeded(self):
        config = tiny_config(w0=dg.RandomBall(1.0), seed=5)
        a = dg.serialize(dg.sweep(config), "csv")
        b = dg.serialize(dg.sweep(tiny_config(w0=dg.RandomBall(1.0), seed=5)),
                         "csv")
        assert a == b
        c = dg.serialize(dg.sweep(tiny_config(w0=dg.RandomBall(1.0), seed=6)),
                         "csv")
        assert a != c

    def test_trailing_loss_capped(self):
        config = tiny_config(etas=(1.7,))  # diverges, losses blow up
        cells = dg.sweep(config)
        assert all(c.trailing_loss <= 5.0 for c in cells)

    def test_overflowing_trailing_mean_reads_the_cap_quietly(self):
        # Both losses are -4.9e307 where the tiny rate leaves w, so the
        # trailing window's sum overflows; the cell still runs its budget.
        config = tiny_config(game="example5",
                             game_params={"kappa": 1e-100},
                             adjusters=(dg.AdjusterSpec("simgd"),),
                             etas=(1e-300,), w0=((0.7e204, 0.7e204),),
                             stop=dg.StopCriteria(max_iters=20,
                                                  divergence_norm=np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (cell,) = dg.sweep(config)
        assert (cell.outcome, cell.iters) == (dg.MAX_ITERS, 20)
        assert cell.trailing_loss == 5.0

    def test_rejects_empty_or_negative_grid(self):
        with pytest.raises(ValueError):
            tiny_config(etas=())
        with pytest.raises(ValueError):
            tiny_config(etas=(0.1, -0.5))

    def test_rejects_nan_eta(self):
        with pytest.raises(ValueError):
            tiny_config(etas=(0.1, np.nan))


def test_config_rejects_an_empty_adjuster_list():
    said = "^adjusters must list at least one update rule$"
    with pytest.raises(ValueError, match=said):
        tiny_config(adjusters=())
    with pytest.raises(ValueError, match=said):
        dg.config_from_json({"game": "example1", "adjusters": [],
                             "etas": [0.1]})


def test_config_rejects_an_empty_start_list():
    with pytest.raises(ValueError,
                       match="^w0 must list at least one start point$"):
        tiny_config(w0=())


@pytest.mark.parametrize("field,value", [
    ("game", ["example6"]),
    ("adjusters", ("sga",)),
    ("adjusters", None),
    ("etas", None),
    ("game_params", None),
    ("stop", {"max_iters": 5}),
    ("w0", 5),
])
def test_config_rejects_a_field_of_the_wrong_kind(field, value):
    # Each built, or raised a TypeError, and a built one failed in the
    # sweep: 'str' object has no attribute 'kind'.
    with pytest.raises(ValueError, match=f"^{field} must "):
        dg.SweepConfig(**{"game": "example6",
                          "adjusters": (dg.AdjusterSpec("sga"),),
                          "etas": (0.1,), field: value})


class TestSeed:
    @pytest.mark.parametrize("seed", [2.5, -1, True, "3", None, np.nan])
    def test_rejects_anything_but_a_whole_number(self, seed):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            tiny_config(seed=seed)

    def test_preset_rejects_a_negative_seed(self):
        with pytest.raises(ValueError,
                           match="seed must be a whole number >= 0, got -1"):
            dg.run_preset("fig7", seed=-1)

    @pytest.mark.parametrize("seed", [3, 3.0, np.int64(3)])
    def test_a_whole_number_becomes_an_int(self, seed):
        config = tiny_config(seed=seed)
        assert type(config.seed) is int and config.seed == 3


class TestStartPoints:
    def test_default_start_has_the_game_dimension(self):
        # example1 has d = 4; the oracle says rho = 0.906 < 1 at eta 0.1
        config = dg.SweepConfig(game="example1",
                                adjusters=(dg.AdjusterSpec("sga"),),
                                etas=(0.1,))
        assert config.w0 == ((0.5, 0.5, 0.5, 0.5),)
        (cell,) = dg.sweep(config)
        assert cell.spectral_radius < 1
        assert cell.outcome == "converged"

    def test_default_start_from_json(self):
        config = dg.config_from_json({"game": "fig7_four_player",
                                      "adjusters": [{"kind": "omd"}],
                                      "etas": [0.1]})
        assert config.w0 == ((0.5,) * 4,)

    def test_rejects_wrong_length_start_point(self):
        with pytest.raises(ValueError, match="length 2"):
            dg.SweepConfig(game="example1", adjusters=(dg.AdjusterSpec("sga"),),
                           etas=(0.1,), w0=((0.5, 0.5),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_start_point(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dg.SweepConfig(game="example1", adjusters=(dg.AdjusterSpec("sga"),),
                           etas=(0.1,), w0=((0.5, 0.5, 0.5, 0.5),
                                            (0.5, bad, 0.5, 0.5)))

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            dg.RandomBall(radius)
        with pytest.raises(ValueError, match="radius"):
            dg.config_from_json({"game": "example1",
                                 "adjusters": [{"kind": "sga"}],
                                 "etas": [0.1],
                                 "w0": {"random_ball": radius}})

    @pytest.mark.parametrize("value", [True, "x"])
    def test_radius_and_etas_are_not_booleans_or_strings(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"radius must be a number, got {value!r}")):
            dg.RandomBall(value)
        with pytest.raises(ValueError, match=re.escape(
                f"eta must be a number, got {value!r}")):
            tiny_config(etas=(0.1, value))

    def test_cell_error_is_raised_not_reported_as_diverged(self):
        config = dg.SweepConfig(game="example1",
                                adjusters=(dg.AdjusterSpec("sga"),),
                                etas=(0.1,))
        config.w0 = ((0.5, 0.5),)  # bypasses the check made at build time
        with pytest.raises(ValueError):
            dg.sweep(config)


class TestPresets:
    def test_fig4_cell_count(self):
        configs = dg.preset_configs("fig4")
        assert len(configs) == 1
        assert len(configs[0].etas) == 50
        assert len(configs[0].adjusters) == 2

    def test_fig3_regimes(self):
        cells = dg.run_preset("fig3")
        by_key = {(c.adjuster, round(c.eta, 4)): c for c in cells}
        slow = by_key[("simgd", 0.01)]
        mid = by_key[("simgd", 0.032)]
        fast = by_key[("simgd", 0.1)]
        assert slow.outcome == "converged"
        assert mid.outcome == "diverged"
        assert fast.outcome == "diverged"
        assert slow.spectral_radius < 1 < mid.spectral_radius < fast.spectral_radius

    def test_fig3_adjusted_rule_converges_everywhere(self):
        cells = dg.run_preset("fig3")
        sga_cells = [c for c in cells if c.adjuster == "sga"]
        assert len(sga_cells) == 3
        assert all(c.outcome == "converged" for c in sga_cells)

    def test_fig7_has_both_damping_levels(self):
        configs = dg.preset_configs("fig7")
        assert [c.game_params["epsilon"] for c in configs] == [0.01, 0.0]
        assert all(isinstance(c.w0, dg.RandomBall) for c in configs)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            dg.preset_configs("fig5")

    # A preset is a document the decoder reads on every call; a config
    # built from it shares no dict with it, or with the next call's.
    @pytest.mark.parametrize("name", ["fig4", "fig7"])
    def test_editing_a_config_leaves_the_next_call_unchanged(self, name):
        first = dg.preset_configs(name)
        want = [dict(c.game_params) for c in first]
        for config in first:
            config.game_params["dim"] = 2
        assert [c.game_params for c in dg.preset_configs(name)] == want

    def test_oracle_consistency_no_contradictions(self):
        # under a finite budget a predicted-converge cell may time out, but a
        # converged cell must never contradict the oracle and vice versa
        cells = dg.run_preset("fig4")
        for cell in cells:
            if cell.outcome == "converged":
                assert cell.spectral_radius < 1.001
            if cell.outcome == "diverged":
                assert cell.spectral_radius > 0.999

    def test_plain_descent_threshold_on_weak_attractor(self):
        # convergence exactly below the analytic threshold 2/101
        game_stop = dg.StopCriteria(max_iters=20000, loss_threshold=0.0,
                                    xi_threshold=1e-6)
        config = dg.SweepConfig(
            game="fig3_weak_attractor",
            adjusters=(dg.AdjusterSpec("simgd"),),
            etas=(0.25 / 101, 0.5 / 101, 1.0 / 101, 1.9 / 101,
                  2.1 / 101, 4.0 / 101),
            stop=game_stop,
        )
        threshold = 2.0 / 101.0
        for cell in dg.sweep(config):
            assert (cell.outcome == "converged") == (cell.eta < threshold)


# sha256 of serialize(run_preset(name, seed=0), fmt) for fmt = csv, json:
# the preset bytes every change to the Euler loop must keep.
PRESET_DIGESTS = {
    "fig3": ("51a8ae970ec7a7a7957241f45ff8a2492e78ecd98343c2da1881afdf7e9e497f",
             "739bc330b79461a860e37a5e7806b264bf0ea22b10e73c88e8cebcf9392d7587"),
    "fig4": ("7dd73a7650b9a6981a10de5745d01706e141c71b49ef760eaaf3b1cd98a1051a",
             "d417205909439e5508cd4b27d4f1e0b7d3cbec3bf86641a9e493bd0a7a265c8f"),
    "fig7": ("ddde74d721d3463a6dda1a396c40b47a5d51697f43614cb2229c45ca57bf0bdf",
             "57229105e0de68c927f871f930a022e2f9546b826f5c3b6e1705af03a6855e7f"),
}


@pytest.mark.kernel_bound
@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_bytes_are_pinned(name):
    cells = dg.run_preset(name, seed=0)
    digests = tuple(hashlib.sha256(dg.serialize(cells, fmt)).hexdigest()
                    for fmt in ("csv", "json"))
    assert digests == PRESET_DIGESTS[name]


# sha256 of each preset's CSV cut to its verdict columns,
# game,adjuster,lambda,eta,seed,outcome,iters (newline-joined).  The last
# bits of the losses and radii differ between OpenBLAS kernels, so the
# byte pins above hold on the SkylakeX kernel only; these hold on the
# SkylakeX, Haswell, Sandybridge and Katmai kernels.
VERDICT_DIGESTS = {
    "fig3": "0dc3e3e2f9a039ee7934926933a823ffc2fee2adb7c8c17c1c1caea295b13b72",
    "fig4": "8168bada7563bb53cb5f7004e87b74b959025cd35fc5a7aceafde5cc22ed3fc2",
    "fig7": "f1bde6951344686c12e838525253b61bdb38a106711374948a09c95fe21bdd09",
}


@pytest.mark.parametrize("name", sorted(VERDICT_DIGESTS))
def test_preset_verdicts_are_pinned(name):
    lines = dg.serialize(dg.run_preset(name, seed=0), "csv").splitlines()
    assert lines[0].split(b",")[:7] == [b"game", b"adjuster", b"lambda",
                                        b"eta", b"seed", b"outcome", b"iters"]
    cut = b"\n".join(b",".join(line.split(b",")[:7]) for line in lines)
    assert hashlib.sha256(cut).hexdigest() == VERDICT_DIGESTS[name]


class TestAnalyzePoint:
    def test_saddle_point_bundle(self):
        game = dg.catalog_game("example7")
        bundle = dg.analyze_point(game, [0.0, 0.0])
        assert bundle["game_class"] == "potential"
        assert bundle["is_fixed_point"] is True
        assert bundle["stability"] == "indefinite"
        assert bundle["local_nash"] is True
        assert np.allclose(bundle["s_eigenvalues"], [3.0, -1.0])

    def test_conserving_game_bundle(self):
        game = dg.catalog_game("example1", payoff=[[1.0]])
        bundle = dg.analyze_point(game, [1.0, 1.0])
        assert bundle["game_class"] == "hamiltonian"
        assert bundle["probe"] == pytest.approx(0.0, abs=1e-12)
        assert bundle["is_fixed_point"] is False
        assert bundle["stability"] is None

    def test_mixed_game_bundle(self):
        game = dg.catalog_game("fig3_weak_attractor")
        bundle = dg.analyze_point(game, [1.0, 1.0])
        assert bundle["game_class"] == "general"
        assert bundle["probe"] == pytest.approx(202.0)
        assert bundle["alignment_sign"] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_point(self, bad):
        game = dg.catalog_game("fig3_weak_attractor")
        with pytest.raises(ValueError, match="non-finite"):
            dg.analyze_point(game, [bad, 1.0])

    # The analytic build returned a bundle of infinities here, which is not
    # valid JSON, and warned; the finite-difference one raised a ValueError
    # from deep in the Hessian that named no input.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_point_where_the_field_overflows(self, monkeypatch):
        message = (r"^the field at \[1e\+308, 1e\+308\] is not finite: "
                   r"\[inf, inf\]$")
        game = dg.catalog_game("example7")
        fd = CountingGame(dg.fd_game(game))
        # A general game's callables run under the caller's settings.
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=message):
                dg.analyze_point(fd, [1e308, 1e308])
        assert fd.field_evals == 1

        def taken(*args):
            raise AssertionError("a Hessian or loss was taken")
        for name in ("analytic_hessian", "loss_vector", "batch_losses"):
            monkeypatch.setattr(dg.QuadraticGame, name, taken)
        with pytest.raises(ValueError, match=message):
            dg.analyze_point(game, [1e308, 1e308])

    def test_json_ready(self):
        game = dg.catalog_game("example6")
        bundle = dg.analyze_point(game, [0.0, 0.0])
        text = json.dumps(bundle)
        assert "unstable" in text

    @pytest.mark.parametrize("fixed", [True, False])
    def test_each_full_hessian_built_once(self, fixed):
        game = CountingGame(TanhGame().build(analytic_hessian=False))
        d = game.dim
        w = np.zeros(d) if fixed else np.full(d, 0.3)
        bundle = dg.analyze_point(game, w)
        assert bundle["is_fixed_point"] is fixed
        # One full Hessian (d hvp of 2 evaluations each) at w and at each of
        # 8 nearby samples, shared by the class, the split and the report.
        hessians = 9 * 2 * d
        if fixed:
            # The field, then the field at each of the report's 8 probes,
            # read off the Hessians there; thvp and hvp of a zero field
            # cost nothing.
            assert game.field_evals == 1 + hessians + 8
        else:
            # The field, thvp and hvp of it.
            assert game.field_evals == 1 + 2 * d + 2 + hessians

    @pytest.mark.parametrize("name,params", CATALOG_DEFAULTS + [
        ("tanh", {"analytic_hessian": True}),
        ("tanh", {"analytic_hessian": False})])
    def test_bundle_equals_the_public_functions(self, name, params):
        """The bundle assembled from classify_game, helmholtz_split of
        full_hessian and classify_fixed_point, byte for byte."""
        game = (TanhGame().build(**params) if name == "tanh"
                else dg.catalog_game(name, **params))
        for w in (np.zeros(game.dim), np.full(game.dim, 0.5)):
            samples = [w]
            if not isinstance(game, dg.QuadraticGame):
                rng = np.random.default_rng(0)
                samples += [w + 1e-3 * rng.standard_normal(w.size)
                            for _ in range(8)]
            game_class = dg.classify_game(game, samples)
            dec = dg.helmholtz_split(dg.full_hessian(game, w))
            want = dict(dg.analyze_point(game, w),
                        game_class=game_class.kind,
                        max_antisymmetric=game_class.max_antisymmetric,
                        max_symmetric=game_class.max_symmetric,
                        s_eigenvalues=dec.s_eigenvalues.tolist(),
                        additive_condition_number=dec.
                        additive_condition_number)
            if want["is_fixed_point"]:
                report = dg.classify_fixed_point(game, w)
                want.update(stability=report.stability,
                            local_nash=report.is_local_nash,
                            probe=report.probe_value)
            assert (json.dumps(dg.analyze_point(game, w))
                    == json.dumps(want))


# sha256 of the bytes ``diffgames analyze`` prints,
# ``json.dumps(analyze_point(game, w, epsilon=eps), indent=2) + "\n"``, per
# game: at the origin with eps = 0 and 0.1, then at 0.5 in every coordinate
# (never a fixed point) with eps = 0 and 0.1.  "tanh" and "tanh-fd" are the
# ``TanhGame`` builds with and without the analytic Hessian.
ANALYZE_DIGESTS = {
    "example1": (
        "59bf75e7d25211eb6ace2c6ad2ed4d467c4888c13411dc3f48faba0d48de55fc",
        "59bf75e7d25211eb6ace2c6ad2ed4d467c4888c13411dc3f48faba0d48de55fc",
        "8ed5cf847607a6af8774dfbfc151de2e8a217a90dc9d26f51e7b94e124c691cf",
        "8ed5cf847607a6af8774dfbfc151de2e8a217a90dc9d26f51e7b94e124c691cf",
    ),
    "example2": (
        "0829fa1e0f25a846a9ce4810a1b97a2946a89bcc7175d87d7f738f0928b5da96",
        "0829fa1e0f25a846a9ce4810a1b97a2946a89bcc7175d87d7f738f0928b5da96",
        "b05483012fb0765021fd1096bf888af9b1a3b9dea7dfdf804139dec0c43a76ab",
        "b05483012fb0765021fd1096bf888af9b1a3b9dea7dfdf804139dec0c43a76ab",
    ),
    "example3": (
        "8fc6b57547676a8ffb45a58735bba6bb6fb3775fb6c19ba81fabb5ce09937ee1",
        "8fc6b57547676a8ffb45a58735bba6bb6fb3775fb6c19ba81fabb5ce09937ee1",
        "2e7a986a854bb62ff54fdbbcdc740821e0a0623765e64d9f5508d7a820590a46",
        "2e7a986a854bb62ff54fdbbcdc740821e0a0623765e64d9f5508d7a820590a46",
    ),
    "example4": (
        "cf7eb674d39c7e9157d01ca0a2b67966f03e38c3fec856c59821b2f5840f8009",
        "cf7eb674d39c7e9157d01ca0a2b67966f03e38c3fec856c59821b2f5840f8009",
        "05752ab18acaebb77dd50170f78266d7d83f8dc2efe86e0775fc5275efa905bf",
        "05752ab18acaebb77dd50170f78266d7d83f8dc2efe86e0775fc5275efa905bf",
    ),
    "example5": (
        "fbb55859edf26bc4b5f372baf410a58faa5bd93a1d1f7c255b5a82774755fd5b",
        "fbb55859edf26bc4b5f372baf410a58faa5bd93a1d1f7c255b5a82774755fd5b",
        "2200991bc92c7b279f33c3efc57bd265d9e15f790e1e3e2eed35eea20d3e22c8",
        "2200991bc92c7b279f33c3efc57bd265d9e15f790e1e3e2eed35eea20d3e22c8",
    ),
    "example6": (
        "94099a9a27560f653647fa5f9358bfa3a1d25d0250f02b43e47c59d851ba9624",
        "94099a9a27560f653647fa5f9358bfa3a1d25d0250f02b43e47c59d851ba9624",
        "55c40809e1a3da22389460a6fa75ff3b007ab39bc6348f373d1438042f211931",
        "b646a4b4b58f3a9f4f51357af194c89f1545c6e9fa8795a7f4e4f1ff5eb5f685",
    ),
    "example7": (
        "56c2ca505264ddd9e638d7eb560ce6744b85386bee75e1abf3e1359433822957",
        "56c2ca505264ddd9e638d7eb560ce6744b85386bee75e1abf3e1359433822957",
        "efaaf7b61e10edfeb8946c1ededc3e0b0176f3b7b23af5a2d22c6351cb5778e7",
        "efaaf7b61e10edfeb8946c1ededc3e0b0176f3b7b23af5a2d22c6351cb5778e7",
    ),
    "fig3_weak_attractor": (
        "bf5e825cd70afe35dd52cd65eca6e957095691feb20d045f1685d752ece2434f",
        "bf5e825cd70afe35dd52cd65eca6e957095691feb20d045f1685d752ece2434f",
        "36d0421a40efa988e60efed7a3fb874b7ca77d1cce632b6994795073231d8c36",
        "36d0421a40efa988e60efed7a3fb874b7ca77d1cce632b6994795073231d8c36",
    ),
    "fig4_bilinear": (
        "dfbed48476116d364d5625b35ce9ea1d4eb17597f43563e618a80e68170e4e56",
        "dfbed48476116d364d5625b35ce9ea1d4eb17597f43563e618a80e68170e4e56",
        "f97acd19d5b3d108bdb2bbada93165d2962e9e23062ebf4f0170583128625b11",
        "f97acd19d5b3d108bdb2bbada93165d2962e9e23062ebf4f0170583128625b11",
    ),
    "fig7_four_player": (
        "a5687e1bd7f0a36a3c696e9590e82092c8a23e058219f33c9e37662a31b0a39b",
        "a5687e1bd7f0a36a3c696e9590e82092c8a23e058219f33c9e37662a31b0a39b",
        "58bd709060d9ad0c1384e1feb7218811282786b1eddc57bab1f822f64f54b528",
        "58bd709060d9ad0c1384e1feb7218811282786b1eddc57bab1f822f64f54b528",
    ),
    "tanh": (
        "576e88f624f65533813d81042cf0a869f20e6fa7783924831256b640738d5e51",
        "576e88f624f65533813d81042cf0a869f20e6fa7783924831256b640738d5e51",
        "9829258cbee624a1d5718059823be5e8b9d14ac73dc3bb3861efb4bad7ea7440",
        "9829258cbee624a1d5718059823be5e8b9d14ac73dc3bb3861efb4bad7ea7440",
    ),
    "tanh-fd": (
        "c1fb908d7c741809f0c971a686c37a001d7f41f24288587984252f8fbfaf9118",
        "c1fb908d7c741809f0c971a686c37a001d7f41f24288587984252f8fbfaf9118",
        "e4744cfa17e7434dc6405bd707bfa26ef283fc22d628a89cc9799b65cd89b152",
        "e4744cfa17e7434dc6405bd707bfa26ef283fc22d628a89cc9799b65cd89b152",
    ),
}


ANALYZE_GAMES = CATALOG_DEFAULTS + [("tanh", {"analytic_hessian": True}),
                                    ("tanh-fd", {"analytic_hessian": False})]


@pytest.mark.kernel_bound
@pytest.mark.parametrize("name,params", ANALYZE_GAMES)
def test_analyze_bytes_are_pinned(name, params):
    game = (TanhGame().build(**params) if name.startswith("tanh")
            else dg.catalog_game(name, **params))
    digests = []
    for w in (np.zeros(game.dim), np.full(game.dim, 0.5)):
        for eps in (0.0, 0.1):
            bundle = dg.analyze_point(game, w, epsilon=eps)
            data = (json.dumps(bundle, indent=2) + "\n").encode()
            digests.append(hashlib.sha256(data).hexdigest())
    assert not bundle["is_fixed_point"]
    assert tuple(digests) == ANALYZE_DIGESTS[name]


class TestSerialize:
    def test_empty_result_is_header_only(self):
        data = dg.serialize([], "csv")
        assert data.decode().strip() == ",".join(CSV_COLUMNS)

    def test_single_cell_row(self):
        cells = dg.sweep(tiny_config(etas=(0.5,),
                                     adjusters=(dg.AdjusterSpec("sga", lam=1.0),)))
        lines = dg.serialize(cells, "csv").decode().strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "fig4_bilinear"
        assert fields[1] == "sga"
        assert fields[5] == "converged"

    def test_json_mirrors_csv_schema(self):
        cells = dg.sweep(tiny_config())
        doc = json.loads(dg.serialize(cells, "json"))
        assert doc["schema_version"] == 1
        assert len(doc["cells"]) == len(cells)
        assert set(doc["cells"][0]) == set(CSV_COLUMNS)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            dg.serialize([], "yaml")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_json_refuses_what_json_cannot_hold(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            experiments._json_bytes({"x": [1.0, value]})


class TestConfigCodec:
    def test_round_trip(self):
        config = tiny_config(w0=dg.RandomBall(2.0))
        doc = {"game": "fig4_bilinear", "game_params": {},
               "adjusters": [{"kind": a.kind, "lambda": a.lam,
                              "epsilon": a.epsilon} for a in config.adjusters],
               "etas": [0.1, 0.5, 1.2], "w0": {"random_ball": 2.0},
               "stop": dataclasses.asdict(config.stop), "seed": 7}
        back = dg.config_from_json(json.loads(json.dumps(doc)))
        assert back == config
        assert dg.serialize(dg.sweep(config), "csv") == \
            dg.serialize(dg.sweep(back), "csv")

    def test_empty_stop_is_the_default(self):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": [0.1], "stop": {}}
        assert dg.config_from_json(doc).stop == dg.StopCriteria()
        doc["stop"] = {"max_iters": 50, "xi_threshold": 1e-3}
        assert dg.config_from_json(doc).stop == dg.StopCriteria(
            max_iters=50, xi_threshold=1e-3)

    def test_legacy_jobs_key_is_ignored(self):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": [0.1], "jobs": 4}
        config = dg.config_from_json(doc)
        assert "jobs" not in vars(config)
        del doc["jobs"]
        assert config == dg.config_from_json(doc)

    @pytest.mark.parametrize("key", ["game", "adjusters", "etas"])
    def test_required_keys(self, key):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": [0.1], key: None}
        with pytest.raises(ValueError, match=f"config key '{key}' is req"):
            dg.config_from_json(doc)
        del doc[key]
        with pytest.raises(ValueError, match=f"config key '{key}' is req"):
            dg.config_from_json(doc)

    def test_null_is_the_default(self):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "sga"}],
               "etas": [0.1]}
        nulls = dict(doc, game_params=None, w0=None, stop=None, seed=None,
                     adjusters=[{"kind": "sga", "lambda": None,
                                 "epsilon": None}])
        assert dg.config_from_json(nulls) == dg.config_from_json(doc)

    @pytest.mark.parametrize("params", ["abc", [["dim", 1]], 3, True])
    def test_game_params_must_be_an_object(self, params):
        # "abc" raised dict()'s ValueError, which names no key, and a list
        # of pairs was read as the object {"dim": 1}.
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": [0.1], "game_params": params}
        with pytest.raises(ValueError, match=re.escape(
                f"config key 'game_params' must be a JSON object, "
                f"got {params!r}")):
            dg.config_from_json(doc)

    def test_whole_floats_are_whole_numbers(self):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": {"start": 0.01, "stop": 1.0, "count": 5.0},
               "stop": {"max_iters": 50.0, "loss_window": 5.0},
               "seed": 3.0}
        config = dg.config_from_json(doc)
        assert (len(config.etas), config.seed) == (5, 3)
        assert config.stop == dg.StopCriteria(max_iters=50, loss_window=5)
        assert type(config.seed) is type(config.stop.max_iters) is int

    @pytest.mark.parametrize("count", [0, -2])
    def test_eta_grid_needs_a_rate(self, count):
        # A count of 0 made an empty grid, refused later by a message that
        # named no key.
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": {"start": 0.01, "stop": 1.0, "count": count}}
        with pytest.raises(ValueError, match=re.escape(
                f"config key 'etas': 'count' must be a whole number >= 1, "
                f"got {count}")):
            dg.config_from_json(doc)

    def test_eta_grid_forms(self):
        doc = {
            "game": "fig4_bilinear",
            "adjusters": [{"kind": "omd"}],
            "etas": {"kind": "log", "start": 0.01, "stop": 1.0, "count": 5},
        }
        config = dg.config_from_json(doc)
        assert np.allclose(config.etas, np.geomspace(0.01, 1.0, 5))
        doc["etas"] = {"kind": "linear", "start": 0.1, "stop": 0.5, "count": 5}
        assert np.allclose(dg.config_from_json(doc).etas,
                           np.linspace(0.1, 0.5, 5))
