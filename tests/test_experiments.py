import hashlib
import json

import numpy as np
import pytest

import diffgames as dg
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
        result = dg.sweep(tiny_config())
        assert len(result.cells) == 6
        keys = [(c.adjuster, c.eta) for c in result.cells]
        assert len(set(keys)) == 6

    def test_oracle_attached_to_linear_rules(self):
        result = dg.sweep(tiny_config())
        for cell in result.cells:
            assert cell.spectral_radius is not None

    def test_no_oracle_for_aligned_rules(self):
        config = tiny_config(adjusters=(dg.AdjusterSpec("sga-aligned"),))
        result = dg.sweep(config)
        assert all(c.spectral_radius is None for c in result.cells)

    def test_overflowing_oracle_raises(self):
        # A rule the oracle applies to gets a radius or an error, never the
        # empty column of a rule it does not apply to.
        config = tiny_config(game="fig3_weak_attractor", etas=(1e307,),
                             adjusters=(dg.AdjusterSpec("consensus"),))
        with pytest.raises(ValueError, match="'consensus' overflows"):
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
        result = dg.sweep(config)
        assert all(c.trailing_loss <= 5.0 for c in result.cells)

    def test_rejects_empty_or_negative_grid(self):
        with pytest.raises(ValueError):
            tiny_config(etas=())
        with pytest.raises(ValueError):
            tiny_config(etas=(0.1, -0.5))

    def test_rejects_nan_eta(self):
        with pytest.raises(ValueError):
            tiny_config(etas=(0.1, np.nan))


class TestStartPoints:
    def test_default_start_has_the_game_dimension(self):
        # example1 has d = 4; the oracle says rho = 0.906 < 1 at eta 0.1
        config = dg.SweepConfig(game="example1",
                                adjusters=(dg.AdjusterSpec("sga"),),
                                etas=(0.1,))
        assert config.w0 == ((0.5, 0.5, 0.5, 0.5),)
        (cell,) = dg.sweep(config).cells
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
        result = dg.run_preset("fig3")
        by_key = {(c.adjuster, round(c.eta, 4)): c for c in result.cells}
        slow = by_key[("simgd", 0.01)]
        mid = by_key[("simgd", 0.032)]
        fast = by_key[("simgd", 0.1)]
        assert slow.outcome == "converged"
        assert mid.outcome == "diverged"
        assert fast.outcome == "diverged"
        assert slow.spectral_radius < 1 < mid.spectral_radius < fast.spectral_radius

    def test_fig3_adjusted_rule_converges_everywhere(self):
        result = dg.run_preset("fig3")
        sga_cells = [c for c in result.cells if c.adjuster == "sga"]
        assert len(sga_cells) == 3
        assert all(c.outcome == "converged" for c in sga_cells)

    def test_fig7_has_both_damping_levels(self):
        configs = dg.preset_configs("fig7")
        assert [c.game_params["epsilon"] for c in configs] == [0.01, 0.0]
        assert all(isinstance(c.w0, dg.RandomBall) for c in configs)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            dg.preset_configs("fig5")

    def test_oracle_consistency_no_contradictions(self):
        # under a finite budget a predicted-converge cell may time out, but a
        # converged cell must never contradict the oracle and vice versa
        result = dg.run_preset("fig4")
        for cell in result.cells:
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
        for cell in dg.sweep(config).cells:
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


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_bytes_are_pinned(name):
    result = dg.run_preset(name, seed=0)
    digests = tuple(hashlib.sha256(dg.serialize(result, fmt)).hexdigest()
                    for fmt in ("csv", "json"))
    assert digests == PRESET_DIGESTS[name]


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


class TestSerialize:
    def test_empty_result_is_header_only(self):
        data = dg.serialize(dg.SweepResult(cells=[]), "csv")
        assert data.decode().strip() == ",".join(CSV_COLUMNS)

    def test_single_cell_row(self):
        result = dg.sweep(tiny_config(etas=(0.5,),
                                      adjusters=(dg.AdjusterSpec("sga", lam=1.0),)))
        lines = dg.serialize(result, "csv").decode().strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "fig4_bilinear"
        assert fields[1] == "sga"
        assert fields[5] == "converged"

    def test_json_mirrors_csv_schema(self):
        result = dg.sweep(tiny_config())
        doc = json.loads(dg.serialize(result, "json"))
        assert doc["schema_version"] == 1
        assert len(doc["cells"]) == len(result.cells)
        assert set(doc["cells"][0]) == set(CSV_COLUMNS)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            dg.serialize(dg.SweepResult(cells=[]), "yaml")


class TestConfigCodec:
    def test_round_trip(self):
        config = tiny_config(w0=dg.RandomBall(2.0))
        doc = dg.config_to_json(config)
        back = dg.config_from_json(json.loads(json.dumps(doc)))
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
        assert "jobs" not in dg.config_to_json(config)
        del doc["jobs"]
        assert dg.config_to_json(config) == dg.config_to_json(
            dg.config_from_json(doc))

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
        assert dg.config_to_json(dg.config_from_json(nulls)) == \
            dg.config_to_json(dg.config_from_json(doc))

    def test_whole_floats_are_whole_numbers(self):
        doc = {"game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
               "etas": {"start": 0.01, "stop": 1.0, "count": 5.0},
               "stop": {"max_iters": 50.0, "loss_window": 5.0},
               "seed": 3.0}
        config = dg.config_from_json(doc)
        assert (len(config.etas), config.seed) == (5, 3)
        assert config.stop == dg.StopCriteria(max_iters=50, loss_window=5)
        assert type(config.seed) is type(config.stop.max_iters) is int

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
