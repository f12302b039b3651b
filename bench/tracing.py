"""Spans around calls into the diffgames layers, recorded from outside the
package.

Tracing rebinds the package's public functions, in every module that holds
a reference to them, to wrappers that record a span per call: name, start,
end, parent span and the job the benchmark was running.  Nothing inside the
package changes.  A name that a later version no longer defines is skipped,
so its metrics read zero calls instead of breaking the benchmark.

The benchmark is single-threaded and runs every sweep with one job, so a
span's children are strictly nested inside it and a plain stack gives the
parent.  No layer queues or retries work, so there is no wait metric.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager

MODULES = ("games", "derivatives", "analysis", "dynamics", "experiments",
           "cli")

# (defining module, function); the span is named "<module>.<function>".
FUNCTIONS = (
    ("derivatives", "simultaneous_gradient"),
    ("derivatives", "hvp"),
    ("derivatives", "thvp"),
    ("derivatives", "full_hessian"),
    ("analysis", "helmholtz_split"),
    ("analysis", "classify_game"),
    ("analysis", "classify_fixed_point"),
    ("analysis", "stability_probe"),
    ("dynamics", "run"),
    ("dynamics", "spectral_oracle"),
    ("experiments", "sweep"),
    ("experiments", "run_preset"),
    ("experiments", "serialize"),
    ("experiments", "analyze_point"),
    ("cli", "main"),
)
# Game methods, wrapped on every class of the games module that defines them.
METHODS = ("player_gradient", "loss_vector")

# Rules whose own direction needs no Hessian product: a thvp made in their
# runs only feeds the recorded probe diagnostic.
PROBE_ONLY_RULES = ("simgd", "omd")

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("games.player_gradient.calls", "count"),
    ("games.player_gradient.us", "us"),
    ("games.loss_vector.calls", "count"),
    ("games.loss_vector.us", "us"),
    ("games.field_flops", "flop"),
    ("games.self_s", "s"),
    ("derivatives.simultaneous_gradient.calls", "count"),
    ("derivatives.simultaneous_gradient.us", "us"),
    ("derivatives.hvp.calls", "count"),
    ("derivatives.hvp.us", "us"),
    ("derivatives.thvp.calls", "count"),
    ("derivatives.thvp.us", "us"),
    ("derivatives.fd_field_evals", "count"),
    ("derivatives.thvp.probe_only_frac", "fraction"),
    ("derivatives.self_s", "s"),
    ("dynamics.run.calls", "count"),
    ("dynamics.run.self_s", "s"),
    ("dynamics.run.iter_us", "us"),
    ("dynamics.run.real_iters", "count"),
    ("dynamics.spectral_oracle.calls", "count"),
    ("dynamics.spectral_oracle.ms", "ms"),
    ("dynamics.self_s", "s"),
    ("experiments.sweep.calls", "count"),
    ("experiments.sweep.self_s", "s"),
    ("experiments.serialize.ms", "ms"),
    ("experiments.serialize.bytes", "bytes"),
    ("experiments.analyze_point.ms", "ms"),
    ("experiments.self_s", "s"),
    ("analysis.classify_fixed_point.ms", "ms"),
    ("analysis.classify_game.ms", "ms"),
    ("analysis.helmholtz_split.calls", "count"),
    ("analysis.self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unwrapped_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span record fields.
NAME, START, END, PARENT, JOB, TAG = range(6)


def real_iterations(traj) -> int:
    """Euler iterations a run actually processed, the deciding one included.

    The sweep CSV ``iters`` column is capped at the budget, so it is not a
    cost measure; this count is.
    """
    return len(traj.xi_norms)


def _field_flops(args, kwargs, result):
    # A quadratic game's field is n full d x d matvecs (computed, not measured).
    game = args[0] if args else kwargs.get("game")
    if not hasattr(game, "hessian_matrix"):
        return 0
    return 2 * game.num_players * game.dim ** 2


def _run_tag(args, kwargs, result):
    spec = args[0] if args else kwargs.get("spec")
    return (getattr(spec, "kind", None), real_iterations(result))


def _byte_count(args, kwargs, result):
    return len(result)


TAGS = {
    "derivatives.simultaneous_gradient": _field_flops,
    "dynamics.run": _run_tag,
    "experiments.serialize": _byte_count,
}


class Tracer:
    """Keeps the spans of one traced round in memory."""

    def __init__(self):
        self.spans = []
        self.job = ""
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: index,name,start_ns,end_ns,parent,job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,job\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},"
                         f"{s[JOB]}\n")


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names of the imported package; restore on exit."""
    modules = [sys.modules[m] for m in
               ["diffgames"] + [f"diffgames.{m}" for m in MODULES]
               if m in sys.modules]
    patches = []
    for home, name in FUNCTIONS:
        original = getattr(sys.modules.get(f"diffgames.{home}"), name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(f"{home}.{name}", original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                patches.append((mod, name, original))
                setattr(mod, name, wrapper)
    games = sys.modules.get("diffgames.games")
    for cls in list(vars(games).values()) if games else []:
        if not isinstance(cls, type) or cls.__module__ != games.__name__:
            continue
        for name in METHODS:
            original = cls.__dict__.get(name)
            if callable(original):
                patches.append((cls, name, original))
                setattr(cls, name, tracer.wrap(f"games.{name}", original))
    try:
        yield tracer
    finally:
        for obj, name, original in reversed(patches):
            setattr(obj, name, original)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced round, from its spans alone.

    A span's self time is its duration minus its children's durations.
    The module self times plus ``trace.unwrapped_s`` (benchmark code and
    package code outside any span) add up to the round's wall time.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls, total_ns, self_ns = {}, {}, {}
    module_self = dict.fromkeys(MODULES, 0)
    fd_evals = probe_only = flops = nbytes = iters = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        own = dur - child_ns[i]
        self_ns[name] = self_ns.get(name, 0) + own
        module_self[name.split(".")[0]] += own
        if name == "derivatives.simultaneous_gradient":
            flops += s[TAG] or 0
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] in (
                    "derivatives.hvp", "derivatives.thvp"):
                fd_evals += 1
        elif name == "derivatives.thvp":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != "dynamics.run":
                p = spans[p][PARENT]
            # A call that raised has no tag.
            if p >= 0 and (spans[p][TAG] or (None,))[0] in PROBE_ONLY_RULES:
                probe_only += 1
        elif name == "dynamics.run":
            iters += (s[TAG] or (None, 0))[1]
        elif name == "experiments.serialize":
            nbytes += s[TAG] or 0

    thvp_calls = calls.get("derivatives.thvp", 0)

    def mean(name, scale):
        n = calls.get(name, 0)
        return total_ns[name] / n / scale if n else 0.0

    out = {
        "games.player_gradient.calls": calls.get("games.player_gradient", 0),
        "games.player_gradient.us": mean("games.player_gradient", 1e3),
        "games.loss_vector.calls": calls.get("games.loss_vector", 0),
        "games.loss_vector.us": mean("games.loss_vector", 1e3),
        "games.field_flops": flops,
        "derivatives.simultaneous_gradient.calls":
            calls.get("derivatives.simultaneous_gradient", 0),
        "derivatives.simultaneous_gradient.us":
            mean("derivatives.simultaneous_gradient", 1e3),
        "derivatives.hvp.calls": calls.get("derivatives.hvp", 0),
        "derivatives.hvp.us": mean("derivatives.hvp", 1e3),
        "derivatives.thvp.calls": thvp_calls,
        "derivatives.thvp.us": mean("derivatives.thvp", 1e3),
        "derivatives.fd_field_evals": fd_evals,
        "derivatives.thvp.probe_only_frac":
            probe_only / thvp_calls if thvp_calls else 0.0,
        "dynamics.run.calls": calls.get("dynamics.run", 0),
        "dynamics.run.self_s": self_ns.get("dynamics.run", 0) / 1e9,
        "dynamics.run.iter_us":
            total_ns.get("dynamics.run", 0) / iters / 1e3 if iters else 0.0,
        "dynamics.run.real_iters": iters,
        "dynamics.spectral_oracle.calls":
            calls.get("dynamics.spectral_oracle", 0),
        "dynamics.spectral_oracle.ms": mean("dynamics.spectral_oracle", 1e6),
        "experiments.sweep.calls": calls.get("experiments.sweep", 0),
        "experiments.sweep.self_s": self_ns.get("experiments.sweep", 0) / 1e9,
        "experiments.serialize.ms": mean("experiments.serialize", 1e6),
        "experiments.serialize.bytes": nbytes,
        "experiments.analyze_point.ms": mean("experiments.analyze_point", 1e6),
        "analysis.classify_fixed_point.ms":
            mean("analysis.classify_fixed_point", 1e6),
        "analysis.classify_game.ms": mean("analysis.classify_game", 1e6),
        "analysis.helmholtz_split.calls":
            calls.get("analysis.helmholtz_split", 0),
        "cli.main.s": total_ns.get("cli.main", 0) / 1e9,
        "trace.wall_s": wall_s,
    }
    for module, ns in module_self.items():
        out[f"{module}.self_s"] = ns / 1e9
    out["trace.unwrapped_s"] = wall_s - sum(module_self.values()) / 1e9
    return out
