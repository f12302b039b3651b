import csv
import hashlib
import io
import json
import warnings

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

    def test_csv_listing_reads_back(self, capsys):
        # The parameter column holds commas; a CSV reader keeps it whole.
        code, out, _ = invoke(capsys, "list-games", "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["name", "parameters", "summary"]
        assert len(rows) == 10
        assert all(len(row) == 3 for row in rows)
        assert rows[0][:2] == ["example1", "dim=2, payoff=None"]
        assert {row[0] for row in rows} == set(dg.CATALOG)

    # The catalog's parameters and defaults, as both listings print them.
    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "681f6e667ef3e8439650ba098b68b5182ffaab06ab4affb26dc2a1a5c72ae9d7"),
        ("csv",
         "7404826f1de8aea2b6f80a9802a5b8defcff81991ab7e2694f61e9b6d16b0226"),
    ])
    def test_listing_bytes_are_pinned(self, capsys, fmt, digest):
        code, out, _ = invoke(capsys, "list-games", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("at", ["nan,1", "1,inf"])
    def test_non_finite_point_is_usage_error(self, capsys, at):
        code, out, err = invoke(capsys, "analyze", "--game",
                                "fig3_weak_attractor", "--at", at)
        assert (code, out) == (1, "")
        assert "non-finite" in err

    def test_wrong_length_point_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "analyze", "--game", "example1",
                                "--at", "1,2,3")
        assert (code, out) == (1, "")
        assert "point has length 3, game needs 4" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_field_is_usage_error(self, capsys):
        # It printed NumPy's overflow warning and a bundle of Infinity,
        # which is not JSON, and exited 0.
        code, out, err = invoke(capsys, "analyze", "--game", "example7",
                                "--at", "1e308,1e308")
        assert (code, out) == (1, "")
        assert err == ("diffgames: the field at [1e+308, 1e+308] is not "
                       "finite: [inf, inf]\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,at", [
        (["--game", "example1", "--at", "1e200,1e200,1e200,1e200"],
         "[1e+200, 1e+200, 1e+200, 1e+200]"),
        (["--game", "example5", "--params", "kappa=1e308", "--at", "1,1"],
         "[1.0, 1.0]"),
    ])
    def test_overflowing_report_is_usage_error(self, capsys, argv, at):
        # The field is finite at both points, but its norm and the losses
        # overflow there, and with kappa=1e308 the split's eigenvalues are
        # NaN: it printed NumPy's overflow warnings and a bundle of
        # Infinity and NaN, which is not JSON, and exited 0.
        code, out, err = invoke(capsys, "analyze", *argv)
        assert (code, out) == (1, "")
        assert err == (f"diffgames: the report's 'xi_norm' at {at} is not "
                       f"finite: inf\n")

    def test_nan_epsilon_is_usage_error(self, capsys):
        # As run --epsilon nan: the bias is checked, not turned into a sign.
        code, out, err = invoke(capsys, "analyze", "--game", "example6",
                                "--at", "2,0", "--epsilon", "nan")
        assert (code, out) == (1, "")
        assert err == "diffgames: epsilon must be nonnegative, got nan\n"


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

    def test_csv_coordinates_are_plain_floats(self, capsys):
        code, out, _ = invoke(
            capsys, "run", "--game", "example2", "--adjuster", "consensus",
            "--eta", "0.05", "--max-iters", "200", "--format", "csv",
        )
        assert code == 0
        assert "np.float64" not in out
        assert out.split("\n")[1].startswith("0,0.5,0.5,")

    def test_w0_length_checked(self, capsys):
        # The message analyze --at gives: both check through as_point.
        code, out, err = invoke(capsys, "run", "--game", "example7",
                                "--adjuster", "simgd", "--eta", "0.1",
                                "--w0", "1,2,3")
        assert (code, out) == (1, "")
        assert err == "diffgames: point has length 3, game needs 2\n"

    @pytest.mark.parametrize("w0", ["nan,0,0,0", "0,0,-inf,0"])
    def test_non_finite_w0_is_usage_error(self, capsys, w0):
        code, out, err = invoke(capsys, "run", "--game", "example1",
                                "--adjuster", "simgd", "--eta", "0.1",
                                "--w0", w0)
        assert (code, out) == (1, "")
        assert "non-finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,final_w,norm", [
        (["--game", "example1", "--adjuster", "sga", "--eta", "0.1",
          "--w0", "1e200,1e200,1e200,1e200"], [1e200] * 4, 2e200),
        (["--game", "example1", "--adjuster", "sga", "--eta", "0.1",
          "--w0", "1e308,1e308,1e308,1e308"], [1e308] * 4, None),
        # The first step overflows to the point (-inf, inf).
        (["--game", "fig3_weak_attractor", "--params", "coupling=1e10",
          "--adjuster", "simgd", "--eta", "1e300", "--w0", "1,1"],
         [None, None], None),
    ])
    def test_json_numbers_are_numbers_or_null(self, capsys, argv, final_w,
                                              norm):
        # It printed NumPy's overflow warning for w @ w and wrote Infinity
        # (not JSON) for a norm of 2e+200, and for the coordinates.
        code, out, err = invoke(capsys, "run", *argv)
        assert (code, err) == (0, "")

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")
        doc = json.loads(out, parse_constant=refuse)
        assert doc["outcome"] == "diverged"
        assert (doc["final_w"], doc["final_w_norm"]) == (final_w, norm)

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


# A blow-up is reported as diverged, with no NumPy warning on the way: under
# this filter a RuntimeWarning raises, and the CLI turns it into exit 2.
# The run stops at iteration 1, when the first step's point is past the
# norm bound, so its CSV holds the start point alone.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,rows", [
    (["run", "--game", "fig3_weak_attractor", "--adjuster", "simgd",
      "--eta", "1e300", "--format", "csv"], ["0,0.5,0.5,"]),
    (["sweep", "--game", "fig3_weak_attractor", "--adjusters", "sga-aligned",
      "--etas", "1e300", "--format", "csv"],
     ["fig3_weak_attractor,sga-aligned,1.0,1e+300,0,diverged,"]),
])
def test_blow_up_warns_nothing(capsys, argv, rows):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert [line[:len(row)] for line, row in
            zip(out.splitlines()[1:], rows, strict=True)] == rows


# Finite losses whose mean overflows: both losses are -4.9e307 at the
# start, which the tiny rate leaves in place, so the mean over the trailing
# window sums ten of 4.9e307.  The cell runs to its budget and its trailing
# loss reads the cap, with no NumPy warning on the way.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    ["run", "--adjuster", "simgd", "--eta", "1e-300"],
    ["sweep", "--adjusters", "simgd", "--etas", "1e-300", "--format", "csv"],
])
def test_overflowing_loss_mean_warns_nothing(capsys, flags):
    code, out, err = invoke(capsys, *flags, "--game", "example5",
                            "--params", "kappa=1e-100",
                            "--w0", "0.7e204,0.7e204",
                            "--divergence-norm", "inf", "--max-iters", "20")
    assert (code, err) == (0, "")
    if flags[0] == "sweep":
        assert out.splitlines()[1] == \
            "example5,simgd,1.0,1e-300,0,max_iters,20,5.0,1.0"
    else:
        doc = json.loads(out)
        assert (doc["outcome"], doc["trailing_loss"]) == ("max_iters", 5.0)


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

    @pytest.mark.parametrize("flag", [
        ["--etas", "0.1"], ["--eta-range", "log:0.01:0.1:3"],
        ["--adjusters", "omd"], ["--game", "fig3_weak_attractor"],
        ["--params", "coupling=5"], ["--lambda", "0.5"],
        ["--epsilon", "0.2"], ["--w0", "0.1,0.2"], ["--w0-ball", "2"],
        ["--max-iters", "50"], ["--loss-window", "5"],
        ["--loss-threshold", "0.1"], ["--divergence-norm", "10"],
        ["--xi-threshold", "0.1"]])
    def test_preset_rejects_what_it_would_ignore(self, capsys, flag):
        code, out, err = invoke(capsys, "sweep", "--preset", "fig3", *flag)
        assert (code, out) == (1, "")
        assert f"{flag[0]} conflicts with --preset" in err

    @pytest.mark.parametrize("flag", [
        ["--etas", "0.1"], ["--eta-range", "log:0.01:0.1:3"],
        ["--adjusters", "omd"], ["--game", "fig3_weak_attractor"],
        ["--params", "coupling=5"], ["--lambda", "0.5"],
        ["--epsilon", "0.2"], ["--w0", "0.1,0.2"], ["--w0-ball", "2"]])
    def test_config_rejects_what_it_would_ignore(self, capsys, tmp_path,
                                                 flag):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({
            "game": "fig3_weak_attractor", "adjusters": [{"kind": "simgd"}],
            "etas": [0.01], "stop": {"max_iters": 20}}))
        code, out, err = invoke(capsys, "sweep", "--config",
                                str(config_path), *flag)
        assert (code, out) == (1, "")
        assert f"{flag[0]} conflicts with --config" in err

    def test_help_names_the_overriding_flags(self):
        sweep = cli.build_parser()._subparsers._group_actions[0].choices[
            "sweep"]
        helps = {a.dest: a.help for a in sweep._actions}
        assert "only --seed combines" in helps["preset"]
        assert "--seed and the stop flags override" in helps["config"]

    @pytest.mark.parametrize("flags,said", [
        (["--w0", "inf,1"], "non-finite"), (["--w0", "0.5,nan"], "non-finite"),
        (["--w0-ball", "nan"], "radius"), (["--w0-ball", "inf"], "radius"),
        (["--w0-ball", "-1"], "radius"),
        (["--params", "coupling=nan"], "not finite"),
        (["--params", "coupling=inf"], "not finite")])
    def test_non_finite_input_is_usage_error(self, capsys, flags, said):
        code, out, err = invoke(capsys, "sweep", "--game",
                                "fig3_weak_attractor", "--adjusters", "sga",
                                "--etas", "0.1", *flags)
        assert (code, out) == (1, "")
        assert said in err

    def test_unwritable_output_is_runtime_error(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--preset", "fig3",
                              "--out", "/nonexistent-dir/x.csv")
        assert code == 2


def sweep_output(capsys, tmp_path, *argv):
    """Exit code and output bytes of one ``sweep`` with ``argv``."""
    out_path = tmp_path / "out.csv"
    out_path.unlink(missing_ok=True)
    code, _, err = invoke(capsys, "sweep", *argv, "--format", "csv",
                          "--out", str(out_path))
    assert code == 0, err
    return out_path.read_bytes()


def config_file(tmp_path, doc, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# Sweep flags, each with the config document they stand for.
FLAG_SWEEPS = [
    (["--game", "fig4_bilinear", "--params", "dim=1", "--adjusters",
      "sga,omd", "--etas", "0.1,0.5,1.2", "--w0", "0.5,0.5", "--w0", "1,-1"],
     {"game": "fig4_bilinear", "game_params": {"dim": 1},
      "adjusters": [{"kind": "sga"}, {"kind": "omd"}],
      "etas": [0.1, 0.5, 1.2], "w0": [[0.5, 0.5], [1, -1]]}),
    (["--game", "example1", "--adjusters", "sga-aligned,consensus",
      "--eta-range", "log:0.01:1:9", "--lambda", "0.7", "--epsilon", "0.2"],
     {"game": "example1",
      "adjusters": [{"kind": "sga-aligned", "lambda": 0.7, "epsilon": 0.2},
                    {"kind": "consensus", "lambda": 0.7, "epsilon": 0.2}],
      "etas": {"kind": "log", "start": 0.01, "stop": 1, "count": 9}}),
    (["--game", "fig7_four_player", "--adjusters", "omd,aligned-consensus",
      "--eta-range", "linear:0.025:0.5:6", "--w0-ball", "1.5"],
     {"game": "fig7_four_player",
      "adjusters": [{"kind": "omd"}, {"kind": "aligned-consensus"}],
      "etas": {"kind": "linear", "start": 0.025, "stop": 0.5, "count": 6},
      "w0": {"random_ball": 1.5}}),
]
# The flags that overlay a sweep document, and the keys they stand for.
OVERLAY_FLAGS = ["--seed", "4", "--max-iters", "300", "--loss-window", "5",
                 "--loss-threshold", "0.02", "--divergence-norm", "1e4",
                 "--xi-threshold", "1e-5"]
OVERLAY_KEYS = {"seed": 4, "stop": {"max_iters": 300, "loss_window": 5,
                                   "loss_threshold": 0.02,
                                   "divergence_norm": 1e4,
                                   "xi_threshold": 1e-5}}


class TestOneCodec:
    """Flags and config files decode through the one codec, so a sweep by
    flags and the same sweep by ``--config`` print the same bytes."""

    @pytest.mark.parametrize("flags,doc", FLAG_SWEEPS)
    @pytest.mark.parametrize("overlay", [False, True])
    def test_flags_equal_config_file(self, capsys, tmp_path, flags, doc,
                                     overlay):
        tail = OVERLAY_FLAGS if overlay else []
        by_flags = sweep_output(capsys, tmp_path, *flags, *tail)
        by_file = sweep_output(capsys, tmp_path, "--config",
                               config_file(tmp_path, doc), *tail)
        assert by_flags == by_file
        if overlay:
            # The same values written into the file instead of given as flags.
            path = config_file(tmp_path, {**doc, **OVERLAY_KEYS}, "full.json")
            assert sweep_output(capsys, tmp_path, "--config", path) == by_file
            assert by_file != sweep_output(capsys, tmp_path, *flags)

    def test_null_keeps_the_default(self, capsys, tmp_path):
        doc = {"game": "example1", "adjusters": [{"kind": "sga-aligned"}],
               "etas": [0.05, 0.2], "stop": {"max_iters": 100}}
        nulls = {**doc, "seed": None, "stop": {"max_iters": 100,
                                               "loss_window": None},
                 "adjusters": [{"kind": "sga-aligned", "lambda": None,
                                "epsilon": None}]}
        want = sweep_output(capsys, tmp_path, "--config",
                            config_file(tmp_path, doc))
        assert sweep_output(capsys, tmp_path, "--config",
                            config_file(tmp_path, nulls, "nulls.json")) == want

    @pytest.mark.parametrize("doc,key", [
        ({"adjusters": ["sga"]}, "adjusters"),
        ({"adjusters": 5}, "adjusters"),
        ({"adjusters": [{"kind": "sga", "lambda": [1.0]}]}, "adjusters"),
        ({"adjusters": [{"kind": "sga", "epsilon": {}}]}, "adjusters"),
        ({"w0": {"random_ball": None}}, "w0"),
        ({"w0": 0.5}, "w0"),
        ({"etas": 5}, "etas"),
        ({"etas": [0.1, [0.2]]}, "etas"),
        ({"etas": {"kind": "log", "start": 0.1, "stop": 1, "count": None}},
         "etas"),
        ({"game_params": [1]}, "game_params"),
        ({"stop": [1]}, "stop"),
        ({"stop": {"max_iters": [10]}}, "stop"),
        ({"seed": [0]}, "seed"),
        ({"game_params": "abc"}, "game_params"),
    ])
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, doc,
                                             key):
        base = {"game": "example1", "adjusters": [{"kind": "sga"}],
                "etas": [0.1]}
        path = config_file(tmp_path, {**base, **doc})
        code, out, err = invoke(capsys, "sweep", "--config", path)
        assert (code, out) == (1, "")
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize("doc,said", [
        ({"seed": 2.5}, "config key 'seed' must be a whole number >= 0, "
                        "got 2.5"),
        ({"seed": -1}, "config key 'seed' must be a whole number >= 0, "
                       "got -1"),
        ({"seed": True}, "config key 'seed' must be a whole number >= 0, "
                         "got True"),
        ({"etas": {"start": 0.1, "stop": 1.0, "count": 2.9}},
         "config key 'etas': 'count' must be a whole number >= 1, got 2.9"),
        ({"stop": {"max_iters": 10.7}},
         "config key 'stop': 'max_iters' must be a whole number >= 1, "
         "got 10.7"),
        ({"stop": {"loss_window": False}},
         "config key 'stop': 'loss_window' must be a whole number >= 1, "
         "got False"),
        ({"etas": {"stop": 1.0, "count": 3}},
         "config key 'etas': missing 'start'"),
        ({"adjusters": [{"lambda": 1.0}]},
         "config key 'adjusters': missing 'kind'"),
        ({"w0": {"radius": 1.0}}, "config key 'w0': missing 'random_ball'"),
        # A boolean is no more a number here than a whole number for the
        # seed, and a string is named by its key, not by float().
        ({"adjusters": [{"kind": "sga", "lambda": True}]},
         "config key 'adjusters': 'lambda' must be a number, got True"),
        ({"adjusters": [{"kind": "sga", "lambda": "x"}]},
         "config key 'adjusters': 'lambda' must be a number, got 'x'"),
        ({"adjusters": [{"kind": "sga", "epsilon": False}]},
         "config key 'adjusters': 'epsilon' must be a number, got False"),
        ({"etas": [True]}, "config key 'etas' must be a number, got True"),
        ({"etas": ["fast"]},
         "config key 'etas' must be a number, got 'fast'"),
        ({"etas": {"start": "x", "stop": 1.0, "count": 3}},
         "config key 'etas': 'start' must be a number, got 'x'"),
        ({"etas": {"kind": "linear", "start": 0.1, "stop": True,
                   "count": 3}},
         "config key 'etas': 'stop' must be a number, got True"),
        # The ends of a grid are rates, named before NumPy sees them.
        ({"etas": {"start": 0, "stop": 1.0, "count": 3}},
         "config key 'etas': 'start' must be positive and finite, got 0"),
        ({"etas": {"start": 0.1, "stop": float("inf"), "count": 3}},
         "config key 'etas': 'stop' must be positive and finite, got inf"),
        ({"etas": {"kind": "linear", "start": -0.1, "stop": 1.0,
                   "count": 3}},
         "config key 'etas': 'start' must be positive and finite, "
         "got -0.1"),
        ({"w0": {"random_ball": True}},
         "config key 'w0': 'random_ball' must be a number, got True"),
        ({"w0": {"random_ball": "big"}},
         "config key 'w0': 'random_ball' must be a number, got 'big'"),
        ({"w0": [[True, 1]]}, "config key 'w0' must be a number, got True"),
        ({"w0": [["a", 1]]}, "config key 'w0' must be a number, got 'a'"),
        ({"stop": {"loss_threshold": "x"}},
         "config key 'stop': 'loss_threshold' must be a number, got 'x'"),
        ({"stop": {"divergence_norm": True}},
         "config key 'stop': 'divergence_norm' must be a number, got True"),
        # An empty grid failed later, with a message that named no key.
        ({"etas": {"start": 0.1, "stop": 1.0, "count": 0}},
         "config key 'etas': 'count' must be a whole number >= 1, got 0"),
        # A zero count was caught by StopCriteria, whose message named no
        # key, and an unknown grid kind named none either.
        ({"stop": {"max_iters": 0}},
         "config key 'stop': 'max_iters' must be a whole number >= 1, "
         "got 0"),
        ({"stop": {"loss_window": 0}},
         "config key 'stop': 'loss_window' must be a whole number >= 1, "
         "got 0"),
        ({"etas": {"kind": "cubic", "start": 0.1, "stop": 1.0, "count": 3}},
         "config key 'etas': unknown eta grid kind 'cubic'"),
        # The checks StopCriteria makes of the values named no key.
        ({"stop": {"max_iters": 5}},
         "config key 'stop': need loss_window <= max_iters, got "
         "loss_window=10 and max_iters=5"),
        ({"stop": {"loss_threshold": -1}},
         "config key 'stop': loss_threshold must be nonnegative, got -1.0"),
    ])
    def test_config_error_names_the_key(self, capsys, tmp_path, doc, said):
        base = {"game": "example1", "adjusters": [{"kind": "sga"}],
                "etas": [0.1], "w0": {"random_ball": 1.0}}
        path = config_file(tmp_path, {**base, **doc})
        assert invoke(capsys, "sweep", "--config", path) == \
            (1, "", f"diffgames: {said}\n")

    # NumPy's own message for a zero end names no key, and an infinite
    # end made it warn before it failed.
    @pytest.mark.parametrize("grid,said", [
        ("log:0:1:3", "'start' must be positive and finite, got 0.0"),
        ("log:inf:1:3", "'start' must be positive and finite, got inf"),
        ("log:0.1:nan:3", "'stop' must be positive and finite, got nan"),
        ("linear:0.1:-1:3", "'stop' must be positive and finite, got -1.0"),
        # An empty grid failed later, naming no key; a negative count's
        # message advertised 0 as valid.
        ("log:0.1:1:0", "'count' must be a whole number >= 1, got 0"),
        ("log:0.1:1:-2", "'count' must be a whole number >= 1, got -2"),
    ])
    def test_eta_range_end_names_the_key(self, capsys, grid, said):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(capsys, "sweep", "--game", "example5",
                          "--adjusters", "simgd", "--eta-range", grid) == \
                (1, "", f"diffgames: config key 'etas': {said}\n")

    # A preset's seed takes the one path too, so its error names the key.
    @pytest.mark.parametrize("argv", [
        ["--game", "example1", "--adjusters", "sga", "--etas", "0.1",
         "--w0-ball", "1"],
        ["--preset", "fig3"],
    ])
    def test_negative_seed_flag_names_the_key(self, capsys, argv):
        code, out, err = invoke(capsys, "sweep", *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == ("diffgames: config key 'seed' must be a whole "
                       "number >= 0, got -1\n")

    @pytest.mark.parametrize("game,params", [
        ("fig3_weak_attractor", {"coupling": None}),
        ("fig3_weak_attractor", {"coupling": [10.0]}),
        ("example5", {"kappa": {"value": 1.0}}),
        ("fig4_bilinear", {"dim": None}),
        ("fig3_weak_attractor", {"coupling": True}),
        ("example5", {"kappa": "3"}),
        ("fig4_bilinear", {"dim": True}),
    ])
    def test_non_numeric_catalog_parameter_is_usage_error(self, capsys,
                                                          tmp_path, game,
                                                          params):
        (key,) = params
        doc = {"game": game, "game_params": params,
               "adjusters": [{"kind": "sga"}], "etas": [0.1]}
        code, out, err = invoke(capsys, "sweep", "--config",
                                config_file(tmp_path, doc))
        assert (code, out) == (1, "")
        assert f"parameter {key!r} of game {game!r} must be a number" in err

    # An int too large for a float (a 401-digit JSON number) is bad input
    # that names its key, not an internal error from float().
    @pytest.mark.parametrize("doc,said", [
        ({"etas": [10**400]}, "config key 'etas' must be a number"),
        ({"etas": [0.1], "seed": 10**400},
         "config key 'seed' must be a whole number >= 0"),
        ({"etas": [0.1], "stop": {"max_iters": 10**400}},
         "config key 'stop': 'max_iters' must be a whole number >= 1"),
        ({"etas": [0.1], "adjusters": [{"kind": "sga", "lambda": 10**400}]},
         "config key 'adjusters': 'lambda' must be a number"),
        ({"etas": [0.1], "game_params": {"dim": 10**400}},
         "parameter 'dim' of game 'example1' must be a number"),
    ], ids=["etas", "seed", "max_iters", "lambda", "game_params"])
    def test_int_too_large_for_a_float_is_usage_error(self, capsys, tmp_path,
                                                      doc, said):
        doc = {"game": "example1", "adjusters": [{"kind": "sga"}], **doc}
        code, out, err = invoke(capsys, "sweep", "--config",
                                config_file(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == f"diffgames: {said}, got {10**400!r}\n"

    def test_matrix_catalog_parameter_is_accepted(self, capsys, tmp_path):
        doc = {"game": "example2", "game_params": {"p": [[1.0, 2.0]],
                                                   "q": [[0.5, -1.0]]},
               "adjusters": [{"kind": "sga"}], "etas": [0.1],
               "w0": [[0.5, 0.5, 0.5]], "stop": {"max_iters": 20}}
        code, out, _ = invoke(capsys, "sweep", "--config",
                              config_file(tmp_path, doc), "--format", "csv")
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    @pytest.mark.parametrize("doc,said", [
        ([{"game": "example1"}], "a sweep config is a JSON object"),
        ({"game": "example1", "adjusters": [{"kind": "sga"}], "etas": [0.1],
          "stop": [1]}, "config key 'stop'")])
    @pytest.mark.parametrize("overlay", [[], ["--seed", "1", "--max-iters",
                                              "5"]])
    def test_non_object_is_usage_error_under_overlay(self, capsys, tmp_path,
                                                     doc, said, overlay):
        path = config_file(tmp_path, doc)
        code, out, err = invoke(capsys, "sweep", "--config", path, *overlay)
        assert (code, out) == (1, "")
        assert said in err


class TestExitCodes:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = invoke(capsys, "list-games", "--frobnicate")
        assert code == 1

    # No randomness outside a sweep, and analyze prints JSON only: a flag
    # that nothing would read is not accepted.
    @pytest.mark.parametrize("argv", [
        ["list-games", "--seed", "1"],
        ["analyze", "--game", "example7", "--at", "0,0", "--seed", "1"],
        ["analyze", "--game", "example7", "--at", "0,0", "--format", "csv"],
        ["run", "--game", "example1", "--adjuster", "simgd", "--eta", "0.1",
         "--seed", "1"],
    ])
    def test_flag_nothing_reads_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_overflowing_oracle_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "sweep", "--game",
                                "fig3_weak_attractor", "--adjusters",
                                "consensus", "--etas", "1e307",
                                "--format", "csv")
        assert code == 1
        assert out == ""
        assert "'consensus' overflows at eta=1e+307" in err

    # Every usage error line names the program, the ones the helpers
    # raise included.
    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--game", "example1", "--adjusters", "sga",
          "--eta-range", "0.1,0.2,2"], "eta range must look like"),
        (["sweep", "--game", "example1", "--adjusters", "sga",
          "--eta-range", "log:a:1:2"], "malformed eta range"),
        (["analyze", "--game", "example7", "--at", "0,zero"],
         "malformed vector literal"),
        (["analyze", "--game", "example7", "--at", "0,0", "--params", "a"],
         "expected key=value"),
        (["analyze", "--game", "example7", "--at", "0,0", "--params",
          "a=b"], "parameter 'a' has non-numeric value"),
        (["sweep"], "sweep needs --preset, --config, or --game"),
        (["sweep", "--game", "example1"], "sweep needs --adjusters"),
        (["sweep", "--game", "example1", "--adjusters", "sga"],
         "give exactly one of --etas or --eta-range"),
        (["sweep", "--game", "example1", "--adjusters", "sga", "--etas",
          "0.1", "--w0", "1,1,1,1", "--w0-ball", "1"],
         "give at most one of --w0 or --w0-ball"),
        (["sweep", "--preset", "fig3", "--game", "example1"],
         "--game conflicts with --preset"),
        (["sweep", "--game", "example1", "--adjusters", ",", "--etas",
          "0.1"], "adjusters must list at least one update rule"),
        # Every comma-separated entry must be a number: an empty one is not
        # dropped, and an empty literal is not the default start point.
        (["analyze", "--game", "example7", "--at", "0,,0"],
         "malformed vector literal '0,,0'\n"),
        (["run", "--game", "example1", "--adjuster", "sga", "--eta", "0.1",
          "--w0", "1,,2,,3,4"], "malformed vector literal '1,,2,,3,4'\n"),
        (["run", "--game", "example1", "--adjuster", "sga", "--eta", "0.1",
          "--w0", "1,2,3,4,"], "malformed vector literal '1,2,3,4,'\n"),
        (["run", "--game", "example1", "--adjuster", "sga", "--eta", "0.1",
          "--w0", ""], "malformed vector literal ''\n"),
        (["sweep", "--game", "example1", "--adjusters", "sga", "--etas",
          "0.1,,0.2"], "malformed vector literal '0.1,,0.2'\n"),
        (["sweep", "--game", "example1", "--adjusters", "sga", "--etas",
          "0.1", "--w0", ",0.5,0.5,0.5,0.5"],
         "malformed vector literal ',0.5,0.5,0.5,0.5'\n"),
        # An empty sweep flag is given, not absent.
        (["sweep", "--game", "", "--adjusters", "sga", "--etas", "0.1"],
         "unknown game ''"),
        (["sweep", "--game", "example1", "--adjusters", "", "--etas", "0.1"],
         "adjusters must list at least one update rule"),
        (["sweep", "--game", "example1", "--adjusters", "sga", "--etas", "",
          "--eta-range", "log:0.1:1:3"],
         "give exactly one of --etas or --eta-range"),
        (["sweep", "--config", "", "--game", "example1", "--adjusters", "sga",
          "--etas", "0.1"], "--game conflicts with --config"),
    ])
    def test_usage_error_names_the_program(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"diffgames: {message}"), err

    def test_window_error_gives_both_numbers(self, capsys):
        # loss_window defaults to 10, past a budget of 5.
        code, out, err = invoke(capsys, "run", "--game", "example1",
                                "--adjuster", "omd", "--eta", "0.1",
                                "--max-iters", "5")
        assert code == 1
        assert out == ""
        assert "loss_window=10" in err and "max_iters=5" in err, err

    def test_missing_subcommand(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "analyze" in out


# sha256 of ``diffgames run --game G --adjuster K --eta 0.05 --max-iters 200
# --format csv`` for every catalog game G, one digest per rule K in KINDS
# order: the one output that prints the probe diagnostic.
RUN_CSV_DIGESTS = {
    "example1": (
        "1c5c859355dfb943a6e16053a39853cb4cbb99da6f9db50a37103c7760181954",
        "97f6a5a73ecbdfaa30b99f692df6849e07ce75dd24c19f96cd0dcfc7f4e053c1",
        "97f6a5a73ecbdfaa30b99f692df6849e07ce75dd24c19f96cd0dcfc7f4e053c1",
        "97f6a5a73ecbdfaa30b99f692df6849e07ce75dd24c19f96cd0dcfc7f4e053c1",
        "b575a06fc722067d8c7a56f61675ce957d31ed113fd41af01e89c8803f38a109",
        "cfbfeae3664091c725e090c90a4745af84946a4f084a820ef1785dc2e4b0e75e",
        "beeae0bce46dfe3a4896d0aaad3762afa85558b74f932edfedc8914b6f450663",
    ),
    "example2": (
        "e655b7065619874adffe9a30e1ddb6bb856b0d8694762258bea6f3439616a231",
        "2c4c002ee3291958c7feeaad6f2199ef20c865b5eb76014a4eeb2eebe371c759",
        "2c4c002ee3291958c7feeaad6f2199ef20c865b5eb76014a4eeb2eebe371c759",
        "dd21b42234c2d08ab6f985b8fcdd8bc44366315c021db80e5938c6f4a17089f4",
        "dd21b42234c2d08ab6f985b8fcdd8bc44366315c021db80e5938c6f4a17089f4",
        "e655b7065619874adffe9a30e1ddb6bb856b0d8694762258bea6f3439616a231",
        "c1dcc852e58e1ad7be4d8b0f309e9bc935435db2d4b41a1923297351e1aee2cf",
    ),
    "example3": (
        "ded0b8bcc39ea0be58d8717c36d77f1f6364320276a61302b99e873769aa293f",
        "21c5dc3ef74423eb7612d94b7e2b39f225ffe816633668f0412710a9ac4b4f48",
        "21c5dc3ef74423eb7612d94b7e2b39f225ffe816633668f0412710a9ac4b4f48",
        "21c5dc3ef74423eb7612d94b7e2b39f225ffe816633668f0412710a9ac4b4f48",
        "2eae9a1ab519752257db508d09d644ec0308e1b8eb02bd36b2b3b1726056afb1",
        "26c29356cec149448aeb812f2d4bf5b610291199d3343db2f3464b0e51bac6de",
        "f2ead51123e396c0a413af92a51dc7f2d32ca69cdbc5dfae449e953df411449f",
    ),
    "example4": (
        "64431cc7814dab410469ea7363a3c4a492814de78064f64997cdef9179e00f62",
        "110f630659e910dc11245e7263ef15309feec7720b204b7959958b1d2f0da938",
        "110f630659e910dc11245e7263ef15309feec7720b204b7959958b1d2f0da938",
        "3938ac70d2d9c775244cbf827916c7260db181dcad50106616f60902505497dd",
        "f97998f3b1a9f0f8f6cccf656ca460c70b2a2f519c28ee0234b36b85e05681f6",
        "0edb4f71bf5a6767baf477bc676471c0082946732e73796bfbbae90bd385e71a",
        "47d3460a08049b779ede7521580d0e2b575aa7f241046b5ec92aa8a34e8d6885",
    ),
    "example5": (
        "aa3e1edfc8ee01065f7fbb87481560d5342a4fc635f55f6fab76c6c761d61757",
        "72456e91f6bd708ee5f6a5f9df497bc972058cb61cf7a47b779fdea761b94953",
        "72456e91f6bd708ee5f6a5f9df497bc972058cb61cf7a47b779fdea761b94953",
        "e6829024f9932caae8316cf21f45864c58f0ade020833991e112133430ad48d6",
        "61194e34a256d44b88c140a9254c123aced9dba404e6bfbfe115229809d102c3",
        "77528cc124654b6255be4ee5bfe8ee0091095e90eaa24d4ca4e07dca11896c48",
        "cba367b46de43815075e573faefdadcf6fd35ccaa8d4e3f7dc6ea1ea91d6db39",
    ),
    "example6": (
        "46a49902207bb21b125c1e5df6819fbf30563d7d7d5b1f33d915ce4f553cf473",
        "9db5be37d1d3c7ead5425f69607f164c905d4ea66f0489883b96218a66c6bf83",
        "9db5be37d1d3c7ead5425f69607f164c905d4ea66f0489883b96218a66c6bf83",
        "a98cb2cefcbb479b23f458ad8d067a2ea0e97a3b30c0f74422e1e1c7e60ca699",
        "92ada9d3ddb2be10231d8962f78144b44a4670646cc7e0cced5a75072fbe2207",
        "34e9206b1c679eeb1a81ef361fe451aa027cc7491faec1aa39afde1aaa3889e6",
        "b7c765f6865aed08f24d799baf6bdf8b8f03f9242e8ba40f367a5ae9fa5416d4",
    ),
    "example7": (
        "7a902ed63aac1d7ed78d304421bbb46a38fc9ed645e79a88e79441d90022579c",
        "a2f3bc058cda2facc983c4c865d0f554481cd69365c4c02bce3d273bce626c1a",
        "a2f3bc058cda2facc983c4c865d0f554481cd69365c4c02bce3d273bce626c1a",
        "505f7631e923693cdeb7742469f3249c6d622efaf203dc2af33c632b8d9934e6",
        "505f7631e923693cdeb7742469f3249c6d622efaf203dc2af33c632b8d9934e6",
        "7b89b629daabef6d9a42a7055ab2c4fc0cefcaeb123d0221513f19fe95c4c1c9",
        "5e7efbd80391b024d29b3b066ec8cf5d0cc4a3d5ca66a1c71fa4ae164eaad973",
    ),
    "fig3_weak_attractor": (
        "1896badaa029ce743954c5380ec8e13087d3365a1689a130ffce02e6b5c37d35",
        "9ea65f3ec13763ab5d677786bb890a1defa37f3c0c4aff24660edf922c17377d",
        "9ea65f3ec13763ab5d677786bb890a1defa37f3c0c4aff24660edf922c17377d",
        "6f6b3c2939b38bd821c065bec7ca54b5dfcc1096c48e0541c77e7d2f26db388c",
        "6f6b3c2939b38bd821c065bec7ca54b5dfcc1096c48e0541c77e7d2f26db388c",
        "c8a29eb1eab9452a004bfc0891988d988f642141eaa55c81cc5f2c2d36c30839",
        "545539125e0a753d2856cb8a6a791265e6d2af3de30f5ddc0520aee94636fdd5",
    ),
    "fig4_bilinear": (
        "7989ab8b7c916df4cc84c7f0827daa5f6424fa9afafd2d2576c2558d5dbc4826",
        "d39f28b2d588da3e87703da19f05ac739d6d699b85ec778415d9a076b7d9b093",
        "d39f28b2d588da3e87703da19f05ac739d6d699b85ec778415d9a076b7d9b093",
        "d39f28b2d588da3e87703da19f05ac739d6d699b85ec778415d9a076b7d9b093",
        "a5c77dd61bebb69987c887e89e4a41885e8312734b835ed5acce94cf81012459",
        "7cf03534adb2ba548ace293160ba017037808c41dcc17688d678df8b09d13b5e",
        "80e77ddd8c30f654b457b1b1fcde2e40d7b7c429a09fad9552a6c32b9fdd3043",
    ),
    "fig7_four_player": (
        "0d326fbfacece0d3509d76d33a79356d9eadc48889a2713510bcebe04b3885ec",
        "d79997927eded756d0e6bd920c543cfb3482838a75bd1bde3c07162b362ed398",
        "d79997927eded756d0e6bd920c543cfb3482838a75bd1bde3c07162b362ed398",
        "17bf0fc41916029fd1d1190d8b8a01b38901e97048bb09c546a9b570bfd7d720",
        "17bf0fc41916029fd1d1190d8b8a01b38901e97048bb09c546a9b570bfd7d720",
        "c253084667a5e3f078abbf3f56224a3500a869f7d664815457727f970d158905",
        "b82d34b9ce30118e5a0ba5fe079bb823604380ea4258ae302c0f7557b3e2eee9",
    ),
}
# sha256 of all 70 outputs above concatenated, catalog order then KINDS.
RUN_CSV_ALL = "ac650db8876f26b070b70a667e96c07ade1fb9f12d1721effe83b775ac983418"


@pytest.mark.kernel_bound
def test_run_csv_bytes_are_pinned(capsys, tmp_path):
    assert list(RUN_CSV_DIGESTS) == [e.name for e in dg.CATALOG.values()]
    out_path = tmp_path / "run.csv"
    everything = hashlib.sha256()
    for name, digests in RUN_CSV_DIGESTS.items():
        for kind, digest in zip(dg.KINDS, digests, strict=True):
            code, _, _ = invoke(capsys, "run", "--game", name, "--adjuster",
                                kind, "--eta", "0.05", "--max-iters", "200",
                                "--format", "csv", "--out", str(out_path))
            assert code == 0
            data = out_path.read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (name, kind)
            everything.update(data)
    assert everything.hexdigest() == RUN_CSV_ALL
