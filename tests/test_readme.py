"""The README's library tour runs as written and gives the values its
comments state, its preset documents are the presets, and every public
name the package exports or the README calls exists."""

import ast
import json
import pathlib
import re

import diffgames as dg

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def tour() -> str:
    """The library tour: the README's one ``python`` fenced block."""
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    return block


def run_tour():
    """Execute the tour statement by statement; return its namespace and
    the value of each bare expression, keyed by its source."""
    namespace, values = {}, {}
    for node in ast.parse(tour()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    return namespace, values


def test_library_tour_gives_the_stated_values():
    text = tour()
    namespace, values = run_tour()
    assert "xi = (11, -9)" in text
    assert namespace["xi"].tolist() == [11.0, -9.0]
    assert "202.0" in text
    assert values["dg.stability_probe(game, [1.0, 1.0])"] == 202.0
    assert "rho = 0.906" in text
    rho = values["dg.spectral_oracle(spec, game, 0.1)"].spectral_radius
    assert round(rho, 3) == 0.906
    assert '"converged"' in text
    assert values["traj.outcome"] == "converged"


def test_every_exported_name_resolves():
    assert len(set(dg.__all__)) == len(dg.__all__)
    for name in dg.__all__:
        assert hasattr(dg, name), name


def test_every_name_the_readme_calls_resolves():
    names = set(re.findall(r"\bdg\.(\w+)", README))
    assert "fd_game" in names
    for name in sorted(names):
        assert hasattr(dg, name), name


def test_each_preset_is_its_documents():
    """Each ``json`` block under a line that names a ``--preset`` and ends
    in a colon decodes to that preset's next config."""
    decoded = {}
    for name, block in re.findall(
            r"`--preset (\w+)`[^\n]*:\n\n```json\n(.*?)```", README, re.S):
        decoded.setdefault(name, []).append(
            dg.config_from_json(json.loads(block)))
    assert decoded == {name: list(dg.preset_configs(name))
                       for name in dg.PRESETS}
