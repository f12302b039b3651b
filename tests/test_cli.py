import json

import pytest

import diffgames as dg
from diffgames import cli


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListGames:
    def test_prints_catalog(self, capsys):
        code, out, _ = invoke(capsys, "list-games", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        names = {entry["name"] for entry in doc}
        assert {"example1", "example7", "fig3_weak_attractor"} <= names

    def test_text_listing(self, capsys):
        code, out, _ = invoke(capsys, "list-games", "--format", "csv")
        assert code == 0
        assert "example5" in out
        assert "kappa=10.0" in out


class TestAnalyze:
    def test_saddle_point(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "--game", "example7",
                              "--at", "0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["local_nash"] is True
        assert doc["stability"] == "indefinite"

    def test_with_params(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "--game", "example6",
                              "--params", "epsilon=0.1", "--at", "1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["probe"] == pytest.approx(-0.101)

    def test_malformed_vector_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "analyze", "--game", "example7",
                              "--at", "0,zero")
        assert code == 1
        assert "malformed" in err

    def test_unknown_game_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "analyze", "--game", "mystery",
                              "--at", "0,0")
        assert code == 1
        assert "unknown game" in err


class TestRun:
    def test_descent_on_squared_field(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--game", "example1",
            "--adjuster", "hamiltonian-descent", "--eta", "0.1",
            "--w0", "1,0,0,1", "--xi-threshold", "1e-3",
            "--loss-threshold", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "converged"
        assert doc["final_w_norm"] < 1e-3

    def test_trajectory_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--game", "fig4_bilinear", "--adjuster", "sga",
            "--eta", "0.5", "--max-iters", "50", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "iter,w0,w1,mean_abs_loss,xi_norm,probe,sign"
        assert len(lines) > 10

    def test_w0_length_checked(self, capsys):
        code, _, err = invoke(capsys, "run", "--game", "example7",
                              "--adjuster", "simgd", "--eta", "0.1",
                              "--w0", "1,2,3")
        assert code == 1
        assert "--w0" in err

    @pytest.mark.parametrize("flags,given", [
        ([], {}),
        (["--max-iters", "20", "--xi-threshold", "1e-3"],
         {"max_iters": 20, "xi_threshold": 1e-3}),
    ])
    def test_stop_defaults_come_from_stop_criteria(self, capsys, monkeypatch,
                                                   flags, given):
        seen = []

        def recording_run(spec, game, w0, eta, stop):
            seen.append(stop)
            return dg.run(spec, game, w0, eta, stop)

        monkeypatch.setattr(cli, "run", recording_run)
        code, _, _ = invoke(capsys, "run", "--game", "example7",
                            "--adjuster", "simgd", "--eta", "0.1", *flags)
        assert code == 0
        assert seen == [dg.StopCriteria(**given)]


class TestSweep:
    def test_preset_csv_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.csv"
        code, _, _ = invoke(capsys, "sweep", "--preset", "fig4",
                            "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 101  # header + 50 etas x 2 adjusters

    def test_seed_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke(capsys, "sweep", "--preset", "fig3", "--format", "csv",
               "--seed", "3", "--out", str(a))
        invoke(capsys, "sweep", "--preset", "fig3", "--format", "csv",
               "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_equals_flags(self, capsys, tmp_path):
        config = {
            "game": "fig4_bilinear",
            "game_params": {"dim": 1},
            "adjusters": [
                {"kind": "sga", "lambda": 1.0, "epsilon": 0.1},
                {"kind": "omd", "lambda": 1.0, "epsilon": 0.1},
            ],
            "etas": [0.1, 0.5, 1.2],
            "w0": [[0.5, 0.5]],
            "stop": {"max_iters": 250},
            "seed": 0,
            "jobs": 1,
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        from_file = tmp_path / "file.csv"
        from_flags = tmp_path / "flags.csv"
        code, _, _ = invoke(capsys, "sweep", "--config", str(config_path),
                            "--format", "csv", "--out", str(from_file))
        assert code == 0
        code, _, _ = invoke(
            capsys, "sweep", "--game", "fig4_bilinear", "--params", "dim=1",
            "--adjusters", "sga,omd", "--lambda", "1.0", "--epsilon", "0.1",
            "--etas", "0.1,0.5,1.2", "--w0", "0.5,0.5", "--max-iters", "250",
            "--format", "csv", "--out", str(from_flags),
        )
        assert code == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_flags_override_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({
            "game": "fig3_weak_attractor",
            "adjusters": [{"kind": "simgd"}],
            "etas": [0.01],
            "stop": {"max_iters": 10000},
        }))
        out_path = tmp_path / "o.csv"
        code, _, _ = invoke(capsys, "sweep", "--config", str(config_path),
                            "--max-iters", "20", "--format", "csv",
                            "--out", str(out_path))
        assert code == 0
        row = out_path.read_text().strip().split("\n")[1].split(",")
        assert row[6] == "20"  # iters column capped by the overridden budget

    @pytest.mark.parametrize("form", [["--seed", "3"], ["--seed=3"]])
    def test_seed_flag_overrides_config_file(self, capsys, tmp_path, form):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({
            "game": "fig4_bilinear", "adjusters": [{"kind": "omd"}],
            "etas": [0.1], "w0": {"random_ball": 1.0},
            "stop": {"max_iters": 20}, "seed": 0,
        }))
        out_path = tmp_path / "o.csv"
        code, _, _ = invoke(capsys, "sweep", "--config", str(config_path),
                            *form, "--format", "csv", "--out", str(out_path))
        assert code == 0
        row = out_path.read_text().strip().split("\n")[1].split(",")
        assert row[4] == "3"  # seed column

    def test_default_start_fits_the_game(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--game", "example1",
                              "--adjusters", "sga", "--etas", "0.1",
                              "--format", "csv")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[5] == "converged"

    def test_wrong_length_start_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--game", "example1",
                              "--adjusters", "sga", "--etas", "0.1",
                              "--w0", "0.5,0.5")
        assert code == 1
        assert "length 2" in err

    def test_preset_conflicts_with_config(self, capsys, tmp_path):
        config_path = tmp_path / "sweep.json"
        config_path.write_text("{}")
        code, _, err = invoke(capsys, "sweep", "--preset", "fig3",
                              "--config", str(config_path))
        assert code == 1
        assert "conflicts" in err

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--preset", "fig3",
                              "--out", "/nonexistent-dir/x.csv")
        assert code == 2


class TestExitCodes:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = invoke(capsys, "list-games", "--frobnicate")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "analyze" in out
