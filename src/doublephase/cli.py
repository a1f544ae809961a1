"""Batch front end.

Usage::

    doublephase <command> --config <path> [--out <dir>] [--seed <n>]

Commands: ``solve-var``, ``solve-visc``, ``solve-obstacle``, and
``study:<name>`` with name one of equivalence, comparison, caccioppoli,
regularization, obstacle-approximation.

The configuration is flat ``key = value`` text under ``[section]``
headers; ``#`` starts a comment. Boundary, obstacle and coefficient
closures use the expression grammar of :mod:`doublephase.expressions`.

Example::

    [problem]
    dimension = 2
    nodes = 33 33
    lower = 0 0
    extent = 1 1
    p = 2.5
    q = 3.0
    alpha = 1.0
    coefficient = 1.0
    epsilon = 0.0
    boundary = 0.5*x + 0.3*y + 0.2*sin(3.14159265358979*x)

    [output]
    directory = out
    prefix = demo

Exit codes: 0 success (all study verdicts pass), 1 non-convergence or a
failed linear solve, 2 configuration or other input error, 3 failed verdict.
All files are written atomically (temp file then rename), and every CSV
starts with a comment line recording version, config hash and seed.
"""

import argparse
import csv
import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    DoublePhaseError,
    LinearSolveFailure,
    NonConvergence,
    ParseError,
    ValidationError,
)
from .expressions import compile_expression
from .grids import BoundaryData, Grid, interpolate, write_field
from .operators import CoefficientField, DoublePhaseParams
from .studies import (
    caccioppoli_study,
    comparison_study,
    equivalence_study,
    obstacle_approximation_study,
    regularization_study,
)
from .variational import ProblemSpec, solve_dirichlet, solve_obstacle
from .viscosity import solve_viscosity

__all__ = ["RunConfig", "parse_config", "run", "main"]


def _tolerance(config, key, keyword):
    """The solver keyword for the ``[tolerances]`` entry ``key``, if set."""
    tol = config.tolerances[key]
    return {} if tol is None else {keyword: tol}


# command -> runner, in the order argparse and the diagnostics list them.
# The runners look the solvers and studies up per call; a solve returns
# (field, report), a study its table. The obstacle target defaults to the
# unconstrained solution
_COMMANDS = {
    "solve-var": lambda c: solve_dirichlet(c.spec, **_tolerance(c, "newton", "newton_tol")),
    "solve-visc": lambda c: solve_viscosity(c.spec, **_tolerance(c, "gauss_seidel", "tol")),
    "solve-obstacle": lambda c: solve_obstacle(c.spec, **_tolerance(c, "newton", "newton_tol")),
    "study:equivalence": lambda c: equivalence_study(c.spec, c.study_options["refinements"], seed=c.seed),
    "study:comparison": lambda c: comparison_study(c.spec, c.study_options["trials"], seed=c.seed),
    "study:caccioppoli": lambda c: caccioppoli_study(c.spec, c.study_options["cutoffs"], seed=c.seed),
    "study:regularization": lambda c: regularization_study(c.spec, c.study_options["epsilons"], seed=c.seed),
    "study:obstacle-approximation": lambda c: obstacle_approximation_study(
        c.spec, solve_dirichlet(c.spec)[0] if c.study_options["target"] is None else c.study_options["target"],
        c.study_options["levels"], seed=c.seed),
}


@dataclass
class RunConfig:
    """Validated run description built from a config file."""

    command: str
    spec: object
    tolerances: dict
    output_dir: str
    prefix: str
    seed: int
    study_options: dict
    config_hash: str


def _parse_sections(text):
    """(section, key) -> (value, line_no); diagnostics for bad lines."""
    values = {}
    diags = []
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            diags.append((line_no, line, "expected 'key = value'"))
            continue
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key:
            diags.append((line_no, line, "empty key"))
            continue
        if (section, key) in values:
            diags.append((line_no, key, "duplicate key"))
            continue
        values[(section, key)] = (value, line_no)
    return values, diags


class _ConfigReader:
    def __init__(self, values):
        self.values = values
        self.diags = []
        self.used = set()

    def get(self, section, key, default=None, required=False):
        entry = self.values.get((section, key))
        if entry is None:
            if required:
                self.diags.append((0, f"{section}.{key}", "missing required key"))
            return default
        self.used.add((section, key))
        return entry[0]

    def line(self, section, key):
        entry = self.values.get((section, key))
        return entry[1] if entry else 0

    def _convert(self, section, key, default, required, convert, what):
        """``convert`` of the raw text; a diagnostic naming ``what`` the
        value must be, and ``default``, where it raises ValueError."""
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError:
            self.diags.append((self.line(section, key), key, f"not {what}: {raw!r}"))
            return default

    def number(self, section, key, default=None, required=False):
        return self._convert(section, key, default, required, float, "a number")

    def integers(self, section, key, default=None, required=False):
        return self._convert(section, key, default, required,
                             lambda raw: tuple(int(t) for t in raw.split()), "integers")

    def count(self, section, key, default=None, required=False, least=1):
        """Exactly one integer, at least ``least``."""
        values = self.integers(section, key, required=required)
        if values is not None and (len(values) != 1 or values[0] < least):
            raw = self.values[(section, key)][0]
            self.diags.append((self.line(section, key), key, f"need one integer >= {least}, got {raw!r}"))
            return default
        return default if values is None else values[0]

    def numbers(self, section, key, default=None):
        return self._convert(section, key, default, False,
                             lambda raw: tuple(float(t) for t in raw.split()), "numbers")

    def boolean(self, section, key, default=False):
        raw = self.get(section, key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        self.diags.append((self.line(section, key), key, f"not a boolean: {raw!r}"))
        return default


def _compile_closure(reader, section, key, raw, grid):
    """``[section] key`` expression text -> (validated closure, its values
    at the grid nodes), recording diagnostics; (None, None) on failure,
    and no values without a grid."""
    line = reader.line(section, key)
    try:
        expr = compile_expression(raw)
    except ParseError as exc:
        reader.diags.append((line, key, str(exc)))
        return None, None
    if grid is None:
        return expr, None
    try:
        probe = expr(grid.coords)
    except DoublePhaseError as exc:
        reader.diags.append((line, key, str(exc)))
        return None, None
    if not np.all(np.isfinite(probe)):
        reader.diags.append((line, key, "expression is non-finite on the grid"))
        return None, None
    return expr, probe


def parse_config(text, command=None, seed_override=None, out_override=None):
    """Parse and validate configuration text into a :class:`RunConfig`.

    Raises :class:`ParseError` or :class:`ValidationError` carrying a
    list of (line, key, reason) diagnostics.
    """
    values, diags = _parse_sections(text)
    if diags:
        raise ParseError("configuration does not parse", diagnostics=diags)
    reader = _ConfigReader(values)

    cfg_command = reader.get("run", "command")
    if command is None:
        command = cfg_command
    elif cfg_command is not None and cfg_command != command:
        reader.diags.append(
            (reader.line("run", "command"), "command",
             f"config says {cfg_command!r} but {command!r} was requested")
        )
    if command is None:
        reader.diags.append((0, "command", "no command given"))
    elif command not in _COMMANDS:
        reader.diags.append(
            (0, "command", f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}")
        )

    dim = reader.count("problem", "dimension", required=True)
    nodes = reader.integers("problem", "nodes", required=True)
    lower = reader.numbers("problem", "lower")
    extent = reader.numbers("problem", "extent")
    p = reader.number("problem", "p", required=True)
    q = reader.number("problem", "q", required=True)
    alpha = reader.number("problem", "alpha", default=1.0)
    epsilon = reader.number("problem", "epsilon", default=0.0)
    strict = reader.boolean("problem", "strict", default=False)

    grid = None
    if dim is not None and nodes is not None:
        if dim not in (1, 2):
            reader.diags.append((reader.line("problem", "dimension"), "dimension", "must be 1 or 2"))
        elif len(nodes) != dim:
            reader.diags.append(
                (reader.line("problem", "nodes"), "nodes", f"need {dim} node counts, got {len(nodes)}")
            )
        else:
            try:
                grid = Grid(nodes, lower=lower, extent=extent)
            except (ValueError, DoublePhaseError) as exc:
                reader.diags.append((reader.line("problem", "nodes"), "nodes", str(exc)))

    params = None
    if p is not None and q is not None:
        coeff = None
        raw_coeff = reader.get("problem", "coefficient", default="0")
        line = reader.line("problem", "coefficient")
        try:
            a0 = float(raw_coeff)
        except ValueError:
            a0 = None
        if a0 is None:
            expr, probe = _compile_closure(reader, "problem", "coefficient", raw_coeff, grid)
            if probe is not None and np.any(probe < 0.0):
                reader.diags.append(
                    (line, "coefficient", "coefficient expression violates a(x) >= 0 on the grid")
                )
            elif expr is not None:
                coeff = CoefficientField.analytic(expr)
        elif not np.isfinite(a0):
            reader.diags.append((line, "coefficient", f"constant coefficient is not finite: {raw_coeff}"))
        elif a0 < 0.0:
            reader.diags.append((line, "coefficient", "constant coefficient violates a(x) >= 0"))
        else:
            coeff = CoefficientField.constant(a0)
        if coeff is not None:
            try:
                params = DoublePhaseParams(p, q, alpha=alpha, coeff=coeff)
            except ValueError as exc:
                reader.diags.append((reader.line("problem", "p"), "p/q", str(exc)))

    # [problem] boundary and obstacle, and [study] target: expression text,
    # compiled, probed on the grid, and made into what the run holds
    made = {}
    for section, key, make in (("problem", "boundary", BoundaryData.from_callable),
                               ("problem", "obstacle", lambda expr: interpolate(grid, expr)),
                               ("study", "target", lambda expr: expr)):
        raw = reader.get(section, key)
        expr = None
        if raw is not None and grid is not None:
            expr, _ = _compile_closure(reader, section, key, raw, grid)
        made[key] = None if expr is None else make(expr)
    boundary, obstacle, target = made["boundary"], made["obstacle"], made["target"]

    tolerances = {}
    for key in ("newton", "gauss_seidel"):
        tol = reader.number("tolerances", key)
        if tol is not None and not 0.0 < tol < np.inf:
            raw = values[("tolerances", key)][0]
            reader.diags.append((reader.line("tolerances", key), key, f"need a finite number > 0, got {raw!r}"))
            tol = None
        tolerances[key] = tol
    dir_cfg = reader.get("output", "directory", default=".")
    out_dir = out_override if out_override is not None else dir_cfg
    prefix = reader.get("output", "prefix", default="run")
    seed = reader.count("run", "seed", default=0, least=0)
    if seed_override is not None:
        if seed_override < 0:
            reader.diags.append((0, "seed", f"need one integer >= 0, got {seed_override!r}"))
        seed = seed_override

    study_options = {
        "refinements": reader.count("study", "refinements", default=3, least=2),
        "trials": reader.count("study", "trials", default=20),
        "cutoffs": reader.count("study", "cutoffs", default=20),
        "levels": reader.count("study", "levels", default=4),
        "epsilons": reader.numbers("study", "epsilons", default=(1e-1, 1e-2, 1e-3)),
        "target": target,
    }
    if not study_options["epsilons"]:
        reader.diags.append((reader.line("study", "epsilons"), "epsilons", "need at least one value"))

    for (section, key), (_value, line_no) in values.items():
        if (section, key) not in reader.used:
            reader.diags.append((line_no, key, f"unknown key in [{section}]"))

    spec = None
    if grid is not None and params is not None and not reader.diags:
        if command == "solve-obstacle" and obstacle is None:
            reader.diags.append((0, "obstacle", "solve-obstacle needs an obstacle expression"))
        elif command in ("solve-var", "solve-visc") and boundary is None:
            reader.diags.append((0, "boundary", "this command needs boundary data"))
        elif command and command.startswith("study") and boundary is None:
            reader.diags.append((0, "boundary", "studies need callable boundary data"))
        else:
            try:
                spec = ProblemSpec(
                    grid=grid,
                    params=params,
                    boundary=boundary,
                    epsilon=epsilon,
                    obstacle=obstacle,
                    strict_validation=strict,
                )
            except (ValueError, DoublePhaseError) as exc:
                reader.diags.append((0, "problem", str(exc)))

    if reader.diags:
        raise ValidationError("configuration is invalid", diagnostics=reader.diags)

    config_hash = hashlib.sha256(text.encode()).hexdigest()[:12]
    return RunConfig(
        command=command,
        spec=spec,
        tolerances=tolerances,
        output_dir=out_dir,
        prefix=prefix,
        seed=seed,
        study_options=study_options,
        config_hash=config_hash,
    )


def _atomic_write(path, writer):
    """Write via a temp file in the destination directory, then rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _provenance(config):
    return f"version={__version__} config_hash={config.config_hash} seed={config.seed}"


def _write_report(config, report, path):
    def writer(tmp):
        with open(tmp, "w", newline="", encoding="ascii") as f:
            f.write(f"# {_provenance(config)}\n")
            w = csv.writer(f)
            w.writerow(
                ["method", "converged", "iterations", "residual_norm", "energy",
                 "active_set_size", "delta_schedule", "notes"]
            )
            w.writerow(
                [report.method, int(report.converged), report.iterations,
                 format(report.residual_norm, ".17g"), format(report.energy, ".17g"),
                 report.active_set_size,
                 ";".join(format(d, "g") for d in report.delta_schedule),
                 report.notes]
            )

    _atomic_write(path, writer)


def run(config):
    """Execute a parsed :class:`RunConfig`; returns the process exit code.
    The directory of the output files is made before the solve; an
    OSError while it is made or written to exits 2."""
    if config.command not in _COMMANDS:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    base = os.path.join(config.output_dir, config.prefix)
    try:
        os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make the output directory: {exc}", file=sys.stderr)
        return 2
    try:
        result = _COMMANDS[config.command](config)
    except (NonConvergence, LinearSolveFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DoublePhaseError as exc:
        _print_diags(exc)
        return 2
    try:
        return _write_outputs(config, base, result)
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2


def _write_outputs(config, base, result):
    """Write a study's table or a solve's field and report; the exit code.
    A report that cannot be written takes this run's field file with it."""
    if config.command.startswith("study:"):
        path = base + f"_{result.name}.csv"
        _atomic_write(path, lambda tmp: result.to_csv(tmp, comment=_provenance(config)))
        status = "pass" if result.verdict else "fail"
        print(f"wrote {path} (verdict: {status})")
        return 0 if result.verdict else 3
    field, report = result
    _atomic_write(base + "_solution.field", lambda tmp: write_field(field, tmp))
    try:
        _write_report(config, report, base + "_report.csv")
    except OSError:
        os.unlink(base + "_solution.field")
        raise
    print(f"wrote {base}_solution.field and {base}_report.csv")
    return 0


def _print_diags(exc):
    print(f"error: {exc}", file=sys.stderr)
    for line, key, reason in getattr(exc, "diagnostics", []):
        where = f"line {line}, " if line else ""
        print(f"  {where}{key}: {reason}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Solve the double-phase equation variationally or in "
        "non-divergence form, and run theorem-shaped verification studies.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to a config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        config = parse_config(
            text, command=args.command, seed_override=args.seed, out_override=args.out
        )
    except (ParseError, ValidationError) as exc:
        _print_diags(exc)
        return 2

    return run(config)


if __name__ == "__main__":
    sys.exit(main())
