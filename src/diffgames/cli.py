"""Command-line entry point: catalog inspection, single-point analysis,
single runs, and learning-rate sweeps.

Exit codes: 0 success, 1 usage error (bad flags, malformed vectors, unknown
game ids, conflicting preset and config), 2 runtime failure (I/O and other
unexpected errors).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .dynamics import KINDS, AdjusterSpec, StopCriteria, run
from .experiments import (PRESETS, RandomBall, SCHEMA_VERSION, SweepConfig,
                          analyze_point, config_from_json, run_preset,
                          serialize, sweep, _trailing_loss)
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


def _parse_eta_range(text: str):
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "linear"):
        raise _UsageError(
            f"eta range must look like log:start:stop:count, got {text!r}")
    kind, start, stop_, count = parts
    try:
        start, stop_, count = float(start), float(stop_), int(count)
    except ValueError:
        raise _UsageError(f"malformed eta range {text!r}") from None
    space = np.geomspace if kind == "log" else np.linspace
    return tuple(space(start, stop_, count))


def _add_common(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output format (default json)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")
    # None marks "not given", so a config file's value survives.
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all randomness (default 0)")


# Stop-criteria flags; None marks "not given", so StopCriteria's default (or
# a config file's value) stands.
_STOP_FLAGS = (("max_iters", int), ("loss_window", int),
               ("loss_threshold", float), ("divergence_norm", float),
               ("xi_threshold", float))


def _add_stop_flags(parser):
    defaults = StopCriteria()
    for name, kind in _STOP_FLAGS:
        parser.add_argument("--" + name.replace("_", "-"), type=kind,
                            default=None,
                            help=f"default {getattr(defaults, name)}")


def _stop_overrides(args) -> dict:
    """The stop criteria given on the command line, by field name."""
    return {name: getattr(args, name) for name, _ in _STOP_FLAGS
            if getattr(args, name) is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="diffgames",
                     description="analyze and solve differentiable games")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-games", parents=[], help="print the catalog")
    _add_common(p)

    p = sub.add_parser("analyze", help="analyze a game at one point")
    _add_common(p)
    p.add_argument("--game", required=True)
    p.add_argument("--params", action="append", metavar="K=V")
    p.add_argument("--at", required=True, metavar="X1,X2,...")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="alignment bias (default 0.1)")

    p = sub.add_parser("run", help="run one adjuster from one start point")
    _add_common(p)
    p.add_argument("--game", required=True)
    p.add_argument("--params", action="append", metavar="K=V")
    p.add_argument("--adjuster", required=True, choices=KINDS)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--w0", metavar="X1,X2,...",
                   help="start point (default all coordinates 0.5)")
    _add_stop_flags(p)

    p = sub.add_parser("sweep", help="learning-rate sweep")
    _add_common(p)
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
                   help=f"default {AdjusterSpec().lam}")
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"default {AdjusterSpec().epsilon}")
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
        doc = [{"name": e.name, "params": e.defaults, "summary": e.summary}
               for e in CATALOG.values()]
        _emit((json.dumps(doc, indent=2) + "\n").encode(), args.out)
        return 0
    lines = []
    for e in CATALOG.values():
        params = ", ".join(f"{k}={v}" for k, v in e.defaults.items()) or "-"
        lines.append(f"{e.name:22s} {params:30s} {e.summary}")
    _emit(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_analyze(args) -> int:
    game = catalog_game(args.game, **_parse_params(args.params))
    at = _parse_vector(args.at)
    bundle = analyze_point(game, at, epsilon=args.epsilon)
    _emit((json.dumps(bundle, indent=2) + "\n").encode(), args.out)
    return 0


def _trajectory_csv(traj, game) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = game.dim
    writer.writerow(["iter"] + [f"w{j}" for j in range(d)]
                    + ["mean_abs_loss", "xi_norm", "probe", "sign"])
    means = traj.mean_abs_losses()
    for t in range(len(means)):
        writer.writerow([t] + [repr(x) for x in traj.points[t]]
                        + [repr(float(means[t])), repr(float(traj.xi_norms[t])),
                           repr(float(traj.probes[t])),
                           repr(float(traj.signs[t]))])
    return buf.getvalue().encode()


def _cmd_run(args) -> int:
    game = catalog_game(args.game, **_parse_params(args.params))
    spec = AdjusterSpec(kind=args.adjuster, lam=args.lam, epsilon=args.epsilon)
    stop = dataclasses.replace(StopCriteria(), **_stop_overrides(args))
    w0 = _parse_vector(args.w0) if args.w0 else default_start(game.dim)
    if len(w0) != game.dim:
        raise _UsageError(
            f"--w0 has length {len(w0)}, game {args.game!r} needs {game.dim}")
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
    _emit((json.dumps(summary, indent=2) + "\n").encode(), args.out)
    return 0


def _sweep_config_from_flags(args) -> SweepConfig:
    if not args.game:
        raise _UsageError("sweep needs --preset, --config, or --game")
    if not args.adjusters:
        raise _UsageError("sweep needs --adjusters with --game")
    if bool(args.etas) == bool(args.eta_range):
        raise _UsageError("give exactly one of --etas or --eta-range")
    weights = {name: getattr(args, name) for name in ("lam", "epsilon")
               if getattr(args, name) is not None}
    adjusters = tuple(AdjusterSpec(kind=k.strip(), **weights)
                      for k in args.adjusters.split(",") if k.strip())
    etas = (_parse_eta_range(args.eta_range) if args.eta_range
            else tuple(_parse_vector(args.etas)))
    if args.w0 and args.w0_ball is not None:
        raise _UsageError("give at most one of --w0 or --w0-ball")
    if args.w0_ball is not None:
        w0 = RandomBall(args.w0_ball)
    elif args.w0:
        w0 = tuple(tuple(_parse_vector(p)) for p in args.w0)
    else:
        w0 = None
    stop = dataclasses.replace(StopCriteria(), **_stop_overrides(args))
    return SweepConfig(
        game=args.game, game_params=_parse_params(args.params),
        adjusters=adjusters, etas=etas, w0=w0, stop=stop, seed=args.seed,
    )


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
            (name, "--" + name.replace("_", "-")) for name, _ in _STOP_FLAGS)
    elif args.config:
        source, fixed = "--config", _SWEEP_FLAGS
    else:
        return
    for name, flag in fixed:
        if getattr(args, name) is not None:
            raise _UsageError(f"{flag} conflicts with {source}")


def _cmd_sweep(args) -> int:
    _check_conflicts(args)
    # Explicit flags win over config file values.
    seed_given = args.seed is not None
    if args.seed is None:
        args.seed = 0
    if args.preset:
        result = run_preset(args.preset, seed=args.seed)
    elif args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        config = config_from_json(doc)
        if seed_given:
            config.seed = args.seed
        config.stop = dataclasses.replace(config.stop, **_stop_overrides(args))
        result = sweep(config)
    else:
        result = sweep(_sweep_config_from_flags(args))
    _emit(serialize(result, args.format), args.out)
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
