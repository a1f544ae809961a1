"""Benchmark of the doublephase package: three workloads, checked outputs.

Run from the repository root::

    python3 bench/run.py --workload routes --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory. One run sets
up the workload (several times, reporting the median), then repeats passes
over its fixed operation list for about ``--seconds`` seconds (at least
one pass), checks the outputs of each pass off the clock, and prints one
JSON object as the last line of standard output. While the operations
run, a fixed reference kernel runs every 50 ms (``reference.py``), and
their time is reported in runs of that kernel, so that the machine's
changing speed cancels out.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced passes with passes traced by wrapping
the public functions of each module (see ``spans.py``), reports per-layer
self times and counts, and writes the spans to ``.bench_out/``.
See ``NOTES.md`` for the workloads, the metrics and the known defects.
"""

import os
import sys

# Cap BLAS/OpenMP pools before numpy loads: runs must not compete for cores.
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
DIGITS_CAP = 16.0  # double precision: a residual of 0 reads as 16 digits

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("ok_frac", "1"),
    ("peak_rss_mb", "MB"),
    ("var_resid_digits", "digits"),
    ("visc_resid_digits", "digits"),
    ("route_gap_digits", "digits"),
)

PER_LAYER = (
    ("viscosity.solve_viscosity.calls", "count"),
    ("viscosity.solve_viscosity.self_s", "s"),
    ("viscosity.solve_viscosity.failures", "count"),
    ("viscosity.solve_viscosity.sweeps.17", "count"),
    ("viscosity.solve_viscosity.sweeps.33", "count"),
    ("viscosity.solve_viscosity.sweeps.65", "count"),
    ("variational.solve_dirichlet.calls", "count"),
    ("variational.solve_dirichlet.self_s", "s"),
    ("variational.solve_dirichlet.newton_iters", "count"),
    ("variational.solve_dirichlet.failures", "count"),
    ("variational.solve_obstacle.calls", "count"),
    ("variational.solve_obstacle.self_s", "s"),
    ("variational.solve_obstacle.newton_iters", "count"),
    ("variational.solve_obstacle.active_set", "count"),
    ("variational.solve_obstacle.failures", "count"),
    ("variational.approximation_sequence.self_s", "s"),
    ("variational.energy.calls", "count"),
    ("variational.energy.self_s", "s"),
    ("viscosity.doubling_penalty.calls", "count"),
    ("viscosity.doubling_penalty.self_s", "s"),
    ("viscosity.touch_test.self_s", "s"),
    ("orlicz.gradient_modular.calls", "count"),
    ("orlicz.gradient_modular.self_s", "s"),
    ("studies.self_s", "s"),
    ("grids.grid_build.calls", "count"),
    ("grids.grid_build.self_s", "s"),
    ("grids.read_field.self_s", "s"),
    ("grids.write_field.self_s", "s"),
    ("grids.write_field.bytes", "bytes"),
    ("cli.parse_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("expressions.compile_expression.self_s", "s"),
    ("trace_overhead_s", "s"),
    ("wall_s", "s"),
)


def load_program():
    """Import the package from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "doublephase" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'doublephase'}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import doublephase

    if Path(doublephase.__file__).resolve().parent != SRC / "doublephase":
        print(f"error: doublephase imported from {doublephase.__file__}", file=sys.stderr)
        sys.exit(2)


def import_seconds(reps=SETUP_REPS):
    """Median time to import the whole package in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import doublephase.cli; "
             "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Capture:
    """Collects the (spec, field, report) of every solve, for the checks."""

    def __init__(self):
        self.solves = []

    def factory(self, kind):
        from workloads import Solve

        def make(fn):
            @functools.wraps(fn)
            def capturing(spec, *args, **kwargs):
                field, report = fn(spec, *args, **kwargs)
                self.solves.append(Solve(kind, spec, field, report))
                return field, report

            return capturing

        return make


def capture_targets(capture):
    from doublephase import variational, viscosity

    return [
        (variational, "solve_dirichlet", capture.factory("dirichlet")),
        (variational, "solve_obstacle", capture.factory("obstacle")),
        (viscosity, "solve_viscosity", capture.factory("viscosity")),
    ]


def _count_report(span, args, kwargs, result):
    _field, report = result
    span.counts["newton_iters"] = report.iterations
    span.counts["active_set"] = report.active_set_size


def _count_sweeps(span, args, kwargs, result):
    field, report = result
    n = field.grid.shape[0]
    span.counts[f"sweeps.{n}"] = report.iterations
    span.counts[f"solves.{n}"] = 1


def _count_bytes(span, args, kwargs, result):
    span.counts["bytes"] = os.path.getsize(args[1])


def trace_targets(recorder):
    """Span wrappers at every public entry point the workloads reach."""
    from doublephase import cli, expressions, grids, orlicz, studies, variational, viscosity

    def at(owner, attr, name, annotate=None):
        return (owner, attr, recorder.wrapper(name, annotate))

    return [
        at(variational, "solve_dirichlet", "variational.solve_dirichlet", _count_report),
        at(variational, "solve_obstacle", "variational.solve_obstacle", _count_report),
        at(variational, "approximation_sequence", "variational.approximation_sequence"),
        at(variational, "energy", "variational.energy"),
        at(viscosity, "solve_viscosity", "viscosity.solve_viscosity", _count_sweeps),
        at(viscosity, "doubling_penalty", "viscosity.doubling_penalty"),
        at(viscosity, "touch_test", "viscosity.touch_test"),
        at(studies, "comparison_study", "studies.comparison_study"),
        at(studies, "equivalence_study", "studies.equivalence_study"),
        at(studies, "obstacle_approximation_study", "studies.obstacle_approximation_study"),
        at(orlicz, "gradient_modular", "orlicz.gradient_modular"),
        at(grids.Grid, "__init__", "grids.grid_build"),
        at(grids.Grid, "refine", "grids.grid_build"),
        at(grids, "read_field", "grids.read_field"),
        at(grids, "write_field", "grids.write_field", _count_bytes),
        at(cli, "parse_config", "cli.parse_config"),
        at(cli, "run", "cli.run"),
        at(expressions, "compile_expression", "expressions.compile_expression"),
    ]


def run_pass(ops, recorder=None, op_base=0):
    """One timed pass over the operations; returns (timings, outcomes).

    ``timings`` holds, per operation, its wall time (s) and the same time
    in runs of the reference kernel. Traced passes run without the
    kernel, so that it adds nothing to the spans; their second figure is
    ``None``.
    """
    from reference import SpeedProbe
    from spans import patched

    capture = Capture()
    targets = capture_targets(capture)
    if recorder is not None:
        targets += trace_targets(recorder)
    outcomes, intervals = [], []
    probe = SpeedProbe() if recorder is None else contextlib.nullcontext()
    with patched(targets), contextlib.redirect_stdout(io.StringIO()), probe:
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = op_base + index
            capture.solves = []
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation that raises is a counted failure
                result, error = None, f"{type(exc).__name__}: {exc}"
            intervals.append((start, time.perf_counter()))
            outcomes.append((op, result, error, capture.solves))
    if recorder is None:
        timings = [probe.measure(start, end) for start, end in intervals]
    else:
        timings = [(end - start, None) for start, end in intervals]
    return timings, outcomes


def check_outcomes(outcomes, tally=None):
    """Check every operation off the clock; adds the findings to ``tally``."""
    from workloads import Findings, check_solves

    if tally is None:
        tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": {},
                 "var_resid": [], "visc_resid": [], "route_gap": []}
    for op, result, error, solves in outcomes:
        found = Findings()
        if error is not None:
            found.reported.append(f"{error} (after {len(solves)} completed solves)")
        check_solves(solves, found)
        if error is None and op.check is not None:
            op.check(result, solves, found)
        tally["attempted"] += 1
        tally["failed"] += found.failed
        tally["wrong"] += bool(found.wrong)
        for reason in found.reported + found.wrong:
            tally["reasons"].setdefault(f"{op.name}: {reason}", None)
        for key in ("var_resid", "visc_resid", "route_gap"):
            tally[key] += getattr(found, key)
    return tally


def digits(values):
    """-log10 of the worst value, capped at double precision."""
    worst = max(values, default=0.0)
    return -math.log10(worst) if worst > 10.0 ** -DIGITS_CAP else DIGITS_CAP


def layer_metrics(recorder, passes):
    """Per-layer metrics of each traced pass; the median over passes."""
    self_times = recorder.self_times()
    per_pass = []
    for lo, hi in passes:
        stats = {}
        for index in range(lo, hi):
            span = recorder.spans[index]
            entry = stats.setdefault(span.name, {"calls": 0, "self_s": 0.0, "failures": 0})
            entry["calls"] += 1
            entry["self_s"] += self_times[index]
            entry["failures"] += span.failed
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        flat = {}
        for name, entry in stats.items():
            for key, value in entry.items():
                flat[f"{name}.{key}"] = value
        flat["studies.self_s"] = sum(e["self_s"] for n, e in stats.items() if n.startswith("studies."))
        for n in (17, 33, 65):
            solves = flat.get(f"viscosity.solve_viscosity.solves.{n}", 0)
            sweeps = flat.get(f"viscosity.solve_viscosity.sweeps.{n}", 0)
            flat[f"viscosity.solve_viscosity.sweeps.{n}"] = sweeps / solves if solves else 0
        per_pass.append(flat)
    names = [name for name, _unit in PER_LAYER if name not in ("trace_overhead_s", "wall_s")]
    return {name: statistics.median(p.get(name, 0) for p in per_pass) for name in names}


def pass_units(timings):
    """Time of one untraced pass in runs of the reference kernel."""
    return sum(ref_units for _wall, ref_units in timings)


def pass_seconds(passes):
    """Median wall time of a pass, not corrected for the machine's speed."""
    return statistics.median(sum(wall for wall, _ref_units in t) for t in passes)


def environment(args):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": THREAD_CAPS,
    }


def benchmark(args):
    """Set up, measure and check one workload; returns (result, lines)."""
    from spans import Recorder
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    import_s = import_seconds()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            ops = build(args.seed, args.tiny, workdir)
            setup_times.append(time.perf_counter() - start)
        # Warm-up: one unchecked pass over the small version of the
        # workload, in a directory of its own, so that first calls (lazy
        # imports, caches) are not timed in the first pass. It counts as
        # set-up.
        start = time.perf_counter()
        run_pass(build(args.seed, True, tempfile.mkdtemp(prefix="warmup-", dir=workdir)))
        warmup_s = time.perf_counter() - start
        setup_s = import_s + statistics.median(setup_times) + warmup_s

        # Each pass is checked right after it, so that no pass keeps the
        # outputs of earlier ones alive and memory does not grow with the
        # pass count. A new round starts only if it fits in --seconds.
        recorder = Recorder() if args.trace else None
        untraced, traced, spans = [], [], []
        tally = None
        start = time.perf_counter()
        while True:
            timings, out = run_pass(ops)
            untraced.append(timings)
            tally = check_outcomes(out, tally)
            if recorder is not None:
                lo = len(recorder.spans)
                timings, out = run_pass(ops, recorder, op_base=tally["attempted"])
                traced.append(timings)
                tally = check_outcomes(out, tally)
                spans.append((lo, len(recorder.spans)))
            del out
            spent = time.perf_counter() - start
            if spent * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if recorder is None:
        metrics = {
            "wall_ref": statistics.median(pass_units(t) for t in untraced),
            "setup_s": setup_s,
            "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
            "peak_rss_mb": peak_rss_mb,
            "var_resid_digits": digits(tally["var_resid"]),
            "visc_resid_digits": digits(tally["visc_resid"]),
            "route_gap_digits": digits(tally["route_gap"]),
        }
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(recorder, spans)
        metrics["trace_overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
        metrics["wall_s"] = pass_seconds(untraced)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    result = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args)
    env["passes"] = len(untraced)
    env["wall_ref_per_pass"] = [pass_units(t) for t in untraced]
    env["wall_s"] = pass_seconds(untraced)
    env["reference_s"] = env["wall_s"] / statistics.median(env["wall_ref_per_pass"])
    lines = [f"env {json.dumps(env)}"]
    lines += [f"failed {reason}" for reason in tally["reasons"]]
    return result, lines


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small meshes and few operations, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    load_program()
    args = parse_args(argv)
    result, lines = benchmark(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
