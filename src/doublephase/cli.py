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

Exit codes: 0 success (and every study verdict passed), 1 solver
non-convergence, 2 configuration error, 3 study verdict failure.
All files are written atomically (temp file then rename), and every CSV
starts with a comment line recording version, config hash and seed.
"""

import argparse
import csv
import hashlib
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (
    DoublePhaseError,
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

_COMMANDS = (
    "solve-var",
    "solve-visc",
    "solve-obstacle",
    "study:equivalence",
    "study:comparison",
    "study:caccioppoli",
    "study:regularization",
    "study:obstacle-approximation",
)

_STUDY_KEYS = ("refinements", "trials", "cutoffs", "levels", "epsilons", "target")


class RunConfig:
    """Validated run description built from a config file."""

    def __init__(self, command, spec, tolerances, output_dir, prefix, seed,
                 study_options, config_hash):
        self.command = command
        self.spec = spec
        self.tolerances = tolerances
        self.output_dir = output_dir
        self.prefix = prefix
        self.seed = seed
        self.study_options = study_options
        self.config_hash = config_hash


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

    def number(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self.diags.append((self.line(section, key), key, f"not a number: {raw!r}"))
            return default

    def integers(self, section, key, default=None, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return tuple(int(t) for t in raw.split())
        except ValueError:
            self.diags.append((self.line(section, key), key, f"not integers: {raw!r}"))
            return default

    def numbers(self, section, key, default=None):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return tuple(float(t) for t in raw.split())
        except ValueError:
            self.diags.append((self.line(section, key), key, f"not numbers: {raw!r}"))
            return default

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


def _compile_closure(reader, key, raw, dim, grid):
    """Expression text -> validated closure, recording diagnostics."""
    try:
        expr = compile_expression(raw)
    except ParseError as exc:
        reader.diags.append((reader.line("problem", key), key, str(exc)))
        return None
    if dim == 1 and 1 in expr.variables():
        reader.diags.append(
            (reader.line("problem", key), key, "expression uses 'y' on a 1D domain")
        )
        return None
    if grid is not None:
        try:
            probe = expr(grid.coords)
        except (ValidationError, DoublePhaseError) as exc:
            reader.diags.append((reader.line("problem", key), key, str(exc)))
            return None
        if not np.all(np.isfinite(probe)):
            reader.diags.append(
                (reader.line("problem", key), key, "expression is non-finite on the grid")
            )
            return None
    return expr


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

    dim = reader.integers("problem", "dimension", required=True)
    nodes = reader.integers("problem", "nodes", required=True)
    lower = reader.numbers("problem", "lower")
    extent = reader.numbers("problem", "extent")
    p = reader.number("problem", "p", required=True)
    q = reader.number("problem", "q", required=True)
    alpha = reader.number("problem", "alpha", default=1.0)
    epsilon = reader.number("problem", "epsilon", default=0.0)
    delta = reader.number("problem", "delta", default=0.0)
    strict = reader.boolean("problem", "strict", default=False)

    grid = None
    if dim is not None and nodes is not None:
        d = dim[0] if isinstance(dim, tuple) else int(dim)
        if d not in (1, 2):
            reader.diags.append((reader.line("problem", "dimension"), "dimension", "must be 1 or 2"))
        elif len(nodes) != d:
            reader.diags.append(
                (reader.line("problem", "nodes"), "nodes", f"need {d} node counts, got {len(nodes)}")
            )
        else:
            try:
                grid = Grid(
                    nodes,
                    lower=lower if lower is not None else None,
                    extent=extent if extent is not None else None,
                )
            except (ValueError, DoublePhaseError) as exc:
                reader.diags.append((reader.line("problem", "nodes"), "nodes", str(exc)))

    params = None
    if p is not None and q is not None:
        coeff = None
        raw_coeff = reader.get("problem", "coefficient", default="0")
        try:
            a0 = float(raw_coeff)
            if a0 < 0.0:
                reader.diags.append(
                    (reader.line("problem", "coefficient"), "coefficient",
                     "constant coefficient violates a(x) >= 0")
                )
            else:
                coeff = CoefficientField.constant(a0)
        except ValueError:
            d_for_expr = grid.dim if grid is not None else (dim[0] if dim else 2)
            expr = _compile_closure(reader, "coefficient", raw_coeff, d_for_expr, grid)
            if expr is not None:
                if grid is not None and np.any(expr(grid.coords) < 0.0):
                    reader.diags.append(
                        (reader.line("problem", "coefficient"), "coefficient",
                         "coefficient expression violates a(x) >= 0 on the grid")
                    )
                else:
                    coeff = CoefficientField.analytic(
                        expr, expr.gradient_callable(d_for_expr)
                    )
        if coeff is not None:
            try:
                params = DoublePhaseParams(p, q, alpha=alpha, coeff=coeff, delta=delta)
            except ValueError as exc:
                reader.diags.append((reader.line("problem", "p"), "p/q", str(exc)))

    boundary = None
    raw_boundary = reader.get("problem", "boundary")
    if raw_boundary is not None and grid is not None:
        expr = _compile_closure(reader, "boundary", raw_boundary, grid.dim, grid)
        if expr is not None:
            boundary = BoundaryData.from_callable(expr)

    obstacle = None
    raw_obstacle = reader.get("problem", "obstacle")
    if raw_obstacle is not None and grid is not None:
        expr = _compile_closure(reader, "obstacle", raw_obstacle, grid.dim, grid)
        if expr is not None:
            obstacle = interpolate(grid, expr)

    target = None
    raw_target = reader.get("study", "target")
    if raw_target is not None and grid is not None:
        target = _compile_closure(reader, "target", raw_target, grid.dim, grid)

    tolerances = {
        "newton": reader.number("tolerances", "newton", default=None),
        "gauss_seidel": reader.number("tolerances", "gauss_seidel", default=None),
    }
    dir_cfg = reader.get("output", "directory", default=".")
    out_dir = out_override if out_override is not None else dir_cfg
    prefix = reader.get("output", "prefix", default="run")
    seed_cfg = reader.number("run", "seed", default=0.0)
    seed = int(seed_override if seed_override is not None else seed_cfg)

    study_options = {
        "refinements": reader.integers("study", "refinements", default=(3,))[0],
        "trials": reader.integers("study", "trials", default=(20,))[0],
        "cutoffs": reader.integers("study", "cutoffs", default=(20,))[0],
        "levels": reader.integers("study", "levels", default=(4,))[0],
        "epsilons": reader.numbers("study", "epsilons", default=(1e-1, 1e-2, 1e-3)),
        "target": target,
    }

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
                    epsilon=epsilon if epsilon is not None else 0.0,
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
    """Execute a parsed :class:`RunConfig`; returns the process exit code."""
    os.makedirs(config.output_dir, exist_ok=True)
    base = os.path.join(config.output_dir, config.prefix)
    try:
        # command -> (solver, [tolerances] key, solver keyword), looked up per call
        solvers = {
            "solve-var": (solve_dirichlet, "newton", "newton_tol"),
            "solve-obstacle": (solve_obstacle, "newton", "newton_tol"),
            "solve-visc": (solve_viscosity, "gauss_seidel", "tol"),
        }
        if config.command in solvers:
            solver, key, keyword = solvers[config.command]
            tol = config.tolerances[key]
            field, report = solver(config.spec, **({} if tol is None else {keyword: tol}))
        elif config.command and config.command.startswith("study:"):
            return _run_study(config, base)
        else:
            print(f"error: unknown command {config.command!r}", file=sys.stderr)
            return 2
    except ValidationError as exc:
        _print_diags(exc)
        return 2
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _atomic_write(base + "_solution.field", lambda tmp: write_field(field, tmp))
    _write_report(config, report, base + "_report.csv")
    print(f"wrote {base}_solution.field and {base}_report.csv")
    return 0


def _run_study(config, base):
    name = config.command.split(":", 1)[1]
    opts = config.study_options
    spec = config.spec
    # study name -> call, looked up per call; the obstacle target defaults
    # to the unconstrained solution
    studies = {
        "equivalence": lambda: equivalence_study(spec, opts["refinements"], seed=config.seed),
        "comparison": lambda: comparison_study(spec, opts["trials"], seed=config.seed),
        "caccioppoli": lambda: caccioppoli_study(spec, opts["cutoffs"], seed=config.seed),
        "regularization": lambda: regularization_study(spec, opts["epsilons"], seed=config.seed),
        "obstacle-approximation": lambda: obstacle_approximation_study(
            spec, solve_dirichlet(spec)[0] if opts["target"] is None else opts["target"],
            opts["levels"], seed=config.seed),
    }
    if name not in studies:
        print(f"error: unknown study {name!r}", file=sys.stderr)
        return 2
    try:
        table = studies[name]()
    except ValidationError as exc:
        _print_diags(exc)
        return 2
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path = base + f"_{table.name}.csv"
    _atomic_write(path, lambda tmp: table.to_csv(tmp, comment=_provenance(config)))
    status = "pass" if table.verdict else "fail"
    print(f"wrote {path} (verdict: {status})")
    return 0 if table.verdict else 3


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
