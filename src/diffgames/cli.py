"""Command-line entry point: catalog inspection, single-point analysis,
single runs, and learning-rate sweeps.

Exit codes: 0 success, 1 usage error (bad flags, malformed vectors, unknown
game ids, conflicting preset and config), 2 runtime failure (I/O and other
unexpected errors).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dynamics import KINDS, AdjusterSpec, StopCriteria, run
from .experiments import (PRESETS, SCHEMA_VERSION, SweepConfig,
                          analyze_point, config_from_json, run_preset,
                          serialize, sweep, _STOP_FIELDS, _csv_bytes,
                          _json_bytes, _trailing_loss)
from .games import CATALOG, catalog_game, default_start


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; remap to this tool's 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise _UsageError(f"malformed vector literal {text!r}") from None


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise _UsageError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            raise _UsageError(f"parameter {key!r} has non-numeric value "
                              f"{value!r}") from None
    return params


def _parse_eta_range(text: str) -> dict:
    """``KIND:START:STOP:COUNT`` as the config file's eta grid object."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "linear"):
        raise _UsageError(
            f"eta range must look like log:start:stop:count, got {text!r}")
    kind, start, stop_, count = parts
    try:
        return {"kind": kind, "start": float(start), "stop": float(stop_),
                "count": int(count)}
    except ValueError:
        raise _UsageError(f"malformed eta range {text!r}") from None


def _add_output(parser, formats=True):
    """``--out``, and ``--format`` where the subcommand prints either."""
    if formats:
        parser.add_argument("--format", choices=("csv", "json"),
                            default="json",
                            help="output format (default json)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")


def _add_stop_flags(parser):
    # One flag per StopCriteria field; None marks "not given", so
    # StopCriteria's default (or a config file's value) stands.
    for name, kind in _STOP_FIELDS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind,
                            default=None,
                            help=f"default {getattr(StopCriteria, name)}")


def _stop_overrides(args) -> dict:
    """The stop criteria given on the command line, by field name."""
    return {name: getattr(args, name) for name in _STOP_FIELDS
            if getattr(args, name) is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="diffgames",
                     description="analyze and solve differentiable games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-games", help="print the catalog")
    _add_output(p)

    p = sub.add_parser("analyze", help="analyze a game at one point, as JSON")
    _add_output(p, formats=False)
    p.add_argument("--game", required=True)
    p.add_argument("--params", action="append", metavar="K=V")
    p.add_argument("--at", required=True, metavar="X1,X2,...")
    p.add_argument("--epsilon", type=float, default=AdjusterSpec.epsilon,
                   help=f"alignment bias (default {AdjusterSpec.epsilon})")

    p = sub.add_parser("run", help="run one adjuster from one start point")
    _add_output(p)
    p.add_argument("--game", required=True)
    p.add_argument("--params", action="append", metavar="K=V")
    p.add_argument("--adjuster", required=True, choices=KINDS)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float,
                   default=AdjusterSpec.lam)
    p.add_argument("--epsilon", type=float, default=AdjusterSpec.epsilon)
    p.add_argument("--w0", metavar="X1,X2,...",
                   help="start point (default all coordinates 0.5)")
    _add_stop_flags(p)

    p = sub.add_parser("sweep", help="learning-rate sweep")
    _add_output(p)
    # None marks "not given", so a config file's value survives.
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the random start points (default "
                        f"{SweepConfig.seed})")
    p.add_argument("--preset", choices=PRESETS,
                   help="a built-in sweep; of the flags that define a "
                        "sweep, only --seed combines with it")
    p.add_argument("--config", metavar="FILE",
                   help="JSON sweep config; --seed and the stop flags "
                        "override it, the other sweep flags conflict")
    p.add_argument("--game")
    p.add_argument("--params", action="append", metavar="K=V")
    p.add_argument("--adjusters", metavar="KIND,KIND,...",
                   help=f"comma list from {KINDS}")
    # None marks "not given": AdjusterSpec holds the defaults.
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help=f"default {AdjusterSpec.lam}")
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"default {AdjusterSpec.epsilon}")
    p.add_argument("--etas", metavar="E1,E2,...")
    p.add_argument("--eta-range", metavar="log:START:STOP:COUNT")
    p.add_argument("--w0", action="append", metavar="X1,X2,...")
    p.add_argument("--w0-ball", type=float, metavar="RADIUS")
    _add_stop_flags(p)
    return parser


def _emit(data: bytes, out_path) -> None:
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_list_games(args) -> int:
    if args.format == "json":
        _emit(_json_bytes([{"name": e.name, "params": e.defaults,
                            "summary": e.summary}
                           for e in CATALOG.values()]), args.out)
        return 0
    _emit(_csv_bytes(["name", "parameters", "summary"], (
        [e.name, ", ".join(f"{k}={v}" for k, v in e.defaults.items()),
         e.summary] for e in CATALOG.values())), args.out)
    return 0


def _cmd_analyze(args) -> int:
    game = catalog_game(args.game, **_parse_params(args.params))
    at = _parse_vector(args.at)
    _emit(_json_bytes(analyze_point(game, at, epsilon=args.epsilon)),
          args.out)
    return 0


def _trajectory_csv(traj, game) -> bytes:
    means = traj.mean_abs_losses()
    return _csv_bytes(
        ["iter"] + [f"w{j}" for j in range(game.dim)]
        + ["mean_abs_loss", "xi_norm", "probe", "sign"],
        ([t] + [repr(float(x)) for x in traj.points[t]]
         + [repr(float(means[t])), repr(float(traj.xi_norms[t])),
            repr(float(traj.probes[t])), repr(float(traj.signs[t]))]
         for t in range(len(means))))


def _cmd_run(args) -> int:
    game = catalog_game(args.game, **_parse_params(args.params))
    spec = AdjusterSpec(kind=args.adjuster, lam=args.lam, epsilon=args.epsilon)
    stop = StopCriteria(**_stop_overrides(args))
    w0 = _parse_vector(args.w0) if args.w0 else default_start(game.dim)
    traj = run(spec, game, w0, args.eta, stop)
    if args.format == "csv":
        _emit(_trajectory_csv(traj, game), args.out)
        return 0
    final = traj.final_point
    summary = {
        "schema_version": SCHEMA_VERSION,
        "game": args.game,
        "adjuster": args.adjuster,
        "lambda": args.lam,
        "eta": args.eta,
        "outcome": traj.outcome,
        "iterations": traj.outcome_iteration,
        "final_w": [float(x) for x in final],
        "final_w_norm": float(np.linalg.norm(final)),
        "final_xi_norm": (float(traj.xi_norms[-1])
                          if traj.xi_norms.size else None),
        "trailing_loss": _trailing_loss(traj.mean_abs_losses(),
                                        stop.loss_window),
    }
    _emit(_json_bytes(summary), args.out)
    return 0


def _sweep_doc_from_flags(args) -> dict:
    """The flags of a sweep as the JSON document a ``--config`` file holds;
    a flag not given is left out, so the codec's default stands."""
    if not args.game:
        raise _UsageError("sweep needs --preset, --config, or --game")
    if not args.adjusters:
        raise _UsageError("sweep needs --adjusters with --game")
    if bool(args.etas) == bool(args.eta_range):
        raise _UsageError("give exactly one of --etas or --eta-range")
    if args.w0 and args.w0_ball is not None:
        raise _UsageError("give at most one of --w0 or --w0-ball")
    if args.w0_ball is not None:
        w0 = {"random_ball": args.w0_ball}
    elif args.w0:
        w0 = [_parse_vector(p) for p in args.w0]
    else:
        w0 = None
    return {
        "game": args.game,
        "game_params": _parse_params(args.params),
        "adjusters": [{"kind": k.strip(), "lambda": args.lam,
                       "epsilon": args.epsilon}
                      for k in args.adjusters.split(",") if k.strip()],
        "etas": (_parse_eta_range(args.eta_range) if args.eta_range
                 else _parse_vector(args.etas)),
        "w0": w0,
    }


def _overlay(doc, args):
    """The sweep document with ``--seed`` and the stop flags laid over it;
    a malformed one is left for ``config_from_json`` to reject."""
    if isinstance(doc, dict):
        if args.seed is not None:
            doc["seed"] = args.seed
        stop = doc.get("stop")
        if stop is None or isinstance(stop, dict):
            doc["stop"] = {**(stop or {}), **_stop_overrides(args)}
    return doc


# The flags that define a sweep from scratch, by argparse dest; a preset or
# a config file defines all of it, so none of them may come with one.
_SWEEP_FLAGS = (("game", "--game"), ("params", "--params"),
                ("adjusters", "--adjusters"), ("lam", "--lambda"),
                ("epsilon", "--epsilon"), ("etas", "--etas"),
                ("eta_range", "--eta-range"), ("w0", "--w0"),
                ("w0_ball", "--w0-ball"))


def _check_conflicts(args) -> None:
    """Reject a flag that a preset or config file would silently ignore."""
    if args.preset:
        source = "--preset"
        # A preset's stop criteria are part of what it reproduces.
        fixed = (("config", "--config"),) + _SWEEP_FLAGS + tuple(
            (name, "--" + name.replace("_", "-")) for name in _STOP_FIELDS)
    elif args.config:
        source, fixed = "--config", _SWEEP_FLAGS
    else:
        return
    for name, flag in fixed:
        if getattr(args, name) is not None:
            raise _UsageError(f"{flag} conflicts with {source}")


def _cmd_sweep(args) -> int:
    _check_conflicts(args)
    if args.preset:
        seed = {} if args.seed is None else {"seed": args.seed}
        cells = run_preset(args.preset, **seed)
    else:
        if args.config:
            with open(args.config) as fh:
                doc = json.load(fh)
        else:
            doc = _sweep_doc_from_flags(args)
        # Explicit flags win over the document's values.
        cells = sweep(config_from_json(_overlay(doc, args)))
    _emit(serialize(cells, args.format), args.out)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "list-games": _cmd_list_games,
            "analyze": _cmd_analyze,
            "run": _cmd_run,
            "sweep": _cmd_sweep,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except (ValueError, KeyError) as exc:
        # Bad game ids, parameters, or config contents are usage errors.
        print(f"diffgames: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"diffgames: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"diffgames: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
