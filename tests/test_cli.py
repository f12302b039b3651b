import hashlib
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

    @pytest.mark.parametrize("w0", ["nan,0,0,0", "0,0,-inf,0"])
    def test_non_finite_w0_is_usage_error(self, capsys, w0):
        code, out, err = invoke(capsys, "run", "--game", "example1",
                                "--adjuster", "simgd", "--eta", "0.1",
                                "--w0", w0)
        assert (code, out) == (1, "")
        assert "non-finite" in err

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
        "8d0696e3ce1f8fc777e932dc6f6cb9621321e53ed0a50fb2faa163bd2a300a73",
        "de89f0c20bb84633bfc8c3fe2ae30c34e9a3d7dfd0f3cfbf17b188250fd746fa",
        "de89f0c20bb84633bfc8c3fe2ae30c34e9a3d7dfd0f3cfbf17b188250fd746fa",
        "de89f0c20bb84633bfc8c3fe2ae30c34e9a3d7dfd0f3cfbf17b188250fd746fa",
        "8b9572c6155c28610e5db69838277edf056d9f9a834b90c579e25bb2e0b76db4",
        "de30216861c62ebaf560a075f3c33f061857778b1ff51a15554e497f103a603d",
        "5eb8f4c281cb96aa3084092acfcddcd8f7face8f18404deacb3cca4c40dcb176",
    ),
    "example2": (
        "1343b22105d7afca717edc767b939058c84ac3702775b725c0b9ed2806c2efaf",
        "7011371e20a8ed5fc64e4088c476a2cb8c6d35de925745e16c6c1a41f8391420",
        "7011371e20a8ed5fc64e4088c476a2cb8c6d35de925745e16c6c1a41f8391420",
        "d198298d0455d5176e067efdb5fea8cda4b1c0509ab9ae2a54b0e0d1259003e6",
        "d198298d0455d5176e067efdb5fea8cda4b1c0509ab9ae2a54b0e0d1259003e6",
        "1343b22105d7afca717edc767b939058c84ac3702775b725c0b9ed2806c2efaf",
        "cc49da403a2dbd82a8d6c330aeba49713574d2510dc0ad3e6e147b4b021cffc5",
    ),
    "example3": (
        "b246845b6794ac5b36e3757dad8f1e3fbd27e00294d59f4cc3e49f39428bef91",
        "e2c81683d437b9f8e14bdb4c522b3099e9b85e7db99efce2f50015cfa55e3d8a",
        "e2c81683d437b9f8e14bdb4c522b3099e9b85e7db99efce2f50015cfa55e3d8a",
        "e2c81683d437b9f8e14bdb4c522b3099e9b85e7db99efce2f50015cfa55e3d8a",
        "b1258a6105e27ea4d8be726c5abec16e39e34b31532ee7d68c1f18c6c847c689",
        "7975ed6fb1d38906e7da5b252e008cbfae1437a589a0cc9e167eb43654e52993",
        "1652572c88a8815f3367a8f08ed09fee801fd2aaa2f1f99b82f8dea7ec1bc66f",
    ),
    "example4": (
        "66d66e07382de3f362ac1ea1d20f7df33498e4332e1770ea81909ab15ee0d43f",
        "c98bc2fd5a55ce4a409baec0655f323adc3654142d82dc2fd277eb8c6f71a611",
        "c98bc2fd5a55ce4a409baec0655f323adc3654142d82dc2fd277eb8c6f71a611",
        "dcf068a43d8442b70423ac36e2a8d26ef219b67b392963e6d3315d3a12edfbc2",
        "8b630d33a2e7f17af344b02f92c85d789cf5a3289f8a97d6c6af4ad4d8217bdf",
        "bdaca3af61dad859e4d4fc70085ce9bfe5906a40c3a41d1993b964f304711994",
        "93002b9180522aa66c64faab76c43c28de4dc0c6bc841b2f74c082798d198c29",
    ),
    "example5": (
        "668d13c92f26c1cf58670f9fcce5a5b926d6fbf92fafa104a557b0afb1fd846d",
        "0ff4b04880fb49e280b09b31a458d26dba3b8e5f38b740a68421f3fe3916da34",
        "0ff4b04880fb49e280b09b31a458d26dba3b8e5f38b740a68421f3fe3916da34",
        "8e1b7a39df95118b540389b42a13dc98b5d8e70994dc169f1852d20551d1db6f",
        "fc5caf55ae5b83eeed8fbbb5489e82f8aaef471d75ca9e2d801251a81e0b3004",
        "7345c4d7cee34fa58b8ada35545ae0ca3898719d8e0887e185814eebc513a2c9",
        "c79061a85d12cbf52626025b7f6c62653330ffbbd32610ab2ca86c375660c231",
    ),
    "example6": (
        "21a4c920e0be828a5157b97edab5cd46078ddb06d1d6e89f40bf4e527450853c",
        "61fdfdb08a76cc854a5f4a5741fa9d035af3b938cb06275138ba28efbe17b7d5",
        "61fdfdb08a76cc854a5f4a5741fa9d035af3b938cb06275138ba28efbe17b7d5",
        "fa9b19d4494e2cffbf0d47fcd0adc2617032d5c3d24494c390bcdc12e41bd850",
        "9d7abaee9b6967a64b944e442a86cb6678a3bb453709410187acc9f72d3fd205",
        "211861eef5bdf30b4ac5ce4a6103b3e5bdfb7901b9a12ea2fb0fd2ccc37f364c",
        "6c3d6764d6a4bcd2b41a414342f849285bfbc1c57ba65c29e785ab52fa3bad29",
    ),
    "example7": (
        "0b5c69182c7179496d82563fe568b89b81a0bd2da8ab60aa8d58dc19064b985c",
        "5d4b4649e634ed36b06a19eb85129faf24fe5333a3d28a392145c5282238e01b",
        "5d4b4649e634ed36b06a19eb85129faf24fe5333a3d28a392145c5282238e01b",
        "7338c483381195bafaa985bbf78f40391ab7c8814e71af8390598ee127aa00c8",
        "7338c483381195bafaa985bbf78f40391ab7c8814e71af8390598ee127aa00c8",
        "f93cf0c56a45d6811a421a66fae0d1ba07d49f21e73a4c343c3df4066299e316",
        "09d1ba735418bc8f85ae4064510197d6465c952c69693b42e013d0ba815f3ea8",
    ),
    "fig3_weak_attractor": (
        "61263363fafd5e54ee729d3b5766ddddbe49d23693900e5211599d3df507afb6",
        "34a27df550215c93dbde45a54415930a764d34c319362380daf309b0739f1b5b",
        "34a27df550215c93dbde45a54415930a764d34c319362380daf309b0739f1b5b",
        "782e9cfd188bf5c8123b5a8995574735dcc4e1e3b0788d862b1decc1fe292393",
        "782e9cfd188bf5c8123b5a8995574735dcc4e1e3b0788d862b1decc1fe292393",
        "c7c0c57be0e7964142fe6750fe66eb542227dd16bbf09f9fae216b318fd1c0a7",
        "f18863339a17431b37a0f7f727b514abe5b8b9a77f7123c36ff8dd2f01a7350d",
    ),
    "fig4_bilinear": (
        "f690b7c8f52aff906e03350abc6b842eec0c038284ec97dcdf2e6ea247a36de4",
        "b9a04f753155a373c056d41ae6b7fb1f022aa9d0f7cc01523215c9dc96059c36",
        "b9a04f753155a373c056d41ae6b7fb1f022aa9d0f7cc01523215c9dc96059c36",
        "b9a04f753155a373c056d41ae6b7fb1f022aa9d0f7cc01523215c9dc96059c36",
        "8b03e938793343415b75bc98b11ebd4f6826ce5a155445e5d4214e2cedb10c3f",
        "7b7010fe5a4cd52d0a95034ba91b13d52fa579591b9ad291f61ec661f7200f20",
        "254f2e162b1cc4fa5d713cf205fb33b5913d9d5b4e268c31f032a7020bbda055",
    ),
    "fig7_four_player": (
        "188c217565b3a7a11ef22af8bfb78ffcde75b2f927a47f86fc69af247cf6f242",
        "8b850dc532d3d9ad0f69466cefa7b037aacc4326d1cc79c97ba703fb56642179",
        "8b850dc532d3d9ad0f69466cefa7b037aacc4326d1cc79c97ba703fb56642179",
        "e4161809cca5a7b418d3320112e59f56c562689caa47bed023d00e698b5a69fa",
        "e4161809cca5a7b418d3320112e59f56c562689caa47bed023d00e698b5a69fa",
        "319c58bcb1b6931b76c3799bee40921c789017b6eb6399928be3cd661b7187f9",
        "b17c45d18ecf19fa51bb83ace284cda67c33cd0388d17d5fb455cffead36dd2b",
    ),
}
# sha256 of all 70 outputs above concatenated, catalog order then KINDS.
RUN_CSV_ALL = "5a5476123c58370ea16ad5746b440ef950fddada87b443db5bdec2a80683ae5a"


def test_run_csv_bytes_are_pinned(capsys, tmp_path):
    assert list(RUN_CSV_DIGESTS) == [e.name for e in dg.catalog_entries()]
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
