"""diffgames benchmark: end-to-end and per-layer cost of the Euler loop.

Usage, from the repository root:

    python3 bench/run.py --workload {presets,wide,fd_general} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
the wall time of one round of the workload, real Euler iterations per
second, and peak resident memory.  With ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics of a traced
one (see tracing.py).  Every run checks the program's outputs; the last
line of standard output is one JSON object with the result.  The package
is imported from ``src/`` of the same checkout, never from elsewhere.

Timings are normalised against a calibration probe, see timing.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 25


def _import_package():
    """Import diffgames afresh from this checkout's src/ (and its CLI)."""
    for name in [m for m in sys.modules
                 if m == "diffgames" or m.startswith("diffgames.")]:
        del sys.modules[name]
    dg = importlib.import_module("diffgames")
    importlib.import_module("diffgames.cli")
    return dg


def _metadata(seed) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        pass
    sha, head = None, ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def measure(workload, seed, seconds, trace, tiny):
    from timing import PROBES, reference_seconds, run_round
    from tracing import PER_LAYER, Tracer, installed, layer_metrics
    from workloads import Checks

    OUT_DIR.mkdir(exist_ok=True)
    probe, ref_s = PROBES[workload.probe]
    setup_ratios, before = [], probe()
    for _ in range(3 if tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        dg = _import_package()
        inputs = workload.setup(dg, seed, tiny, OUT_DIR)
        elapsed = time.perf_counter() - t0
        after = probe()
        setup_ratios.append(elapsed / (0.5 * (before + after)))
        before = after
    if not Path(dg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"diffgames imported from {dg.__file__}, "
                           f"not from {SRC}")
    steps = workload.steps(dg, inputs)
    checks = Checks()

    def fingerprint(out):
        return (repr(out) if isinstance(out, Exception)
                else workload.fingerprint(out))

    def expect_repeat(outputs, label):
        for name, out in outputs.items():
            checks.expect(fingerprint(out) == fingerprint(first[name]),
                          f"{label} step {name} differs from the warm-up round")

    # Warm-up round: fills caches and finishes lazy set-up; its outputs are
    # the ones checked in full.  Later rounds must repeat them exactly.
    first, _, _ = run_round(steps, probe)
    iterations = workload.verify(dg, inputs, first, checks)

    untraced, traced, raw_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        outputs, times, ratios = run_round(steps, probe)
        untraced.append(ratios)
        raw_walls.append(sum(times.values()))
        expect_repeat(outputs, f"round {len(untraced)}")
        if trace:
            tracer = Tracer()
            with installed(tracer):
                outputs, times, ratios = run_round(steps, probe, tracer)
            expect_repeat(outputs, f"traced round {len(traced) + 1}")
            traced.append((ratios, sum(times.values()), tracer))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"rounds": len(untraced),
            "raw_round_wall_median_s": statistics.median(raw_walls)}

    if not trace:
        wall_s = reference_seconds(untraced, ref_s)
        return {
            "setup_s": (ref_s * statistics.median(setup_ratios), "s"),
            "wall_s": (wall_s, "s"),
            "iters_per_s": (sum(iterations.values()) / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }, checks, iterations, info

    # Layer figures come from the fastest traced round, so its self times
    # and unwrapped remainder add up to that round's wall time exactly.
    _, wall, tracer = min(traced, key=lambda t: t[1])
    layers = layer_metrics(tracer.spans, wall)
    checks.expect(layers["trace.unwrapped_s"] >= 0.0,
                  "span self times exceed the traced wall time")
    layers["trace.overhead_s"] = (
        reference_seconds([t[0] for t in traced], ref_s)
        - reference_seconds(untraced, ref_s))
    tracer.write(OUT_DIR / f"spans-{workload.name}.csv.gz")
    return ({name: (layers[name], unit) for name, unit in PER_LAYER},
            checks, iterations, info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "wide", "fd_general"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    args = parser.parse_args(argv)
    # Set before NumPy loads: one BLAS thread (at or below nproc) gives
    # steadier timings, and sweeps never inherit a thread-pool setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("DIFFGAMES_JOBS", None)
    if not (SRC / "diffgames" / "__init__.py").is_file():
        print(f"bench: no diffgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    metrics, checks, iterations, info = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
        args.tiny)

    print("meta", json.dumps(_metadata(args.seed)))
    print("info", json.dumps(info))
    for label, count in iterations.items():
        print(f"real_iters.{label} {count} count")
    fail_frac = len(checks.failures) / checks.attempted
    print(f"fail_frac {fail_frac} fraction "
          f"({len(checks.failures)} of {checks.attempted} checks)")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
