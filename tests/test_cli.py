import os

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from doublephase.cli import _COMMANDS, main, parse_config
from doublephase.errors import ParseError, ValidationError
from doublephase.expressions import compile_expression
from doublephase.grids import read_field
from doublephase.viscosity import SecondOrderJet, nondiv_eval

LINEAR_1D = """
[run]
seed = 7

[problem]
dimension = 1
nodes = 65
lower = 0
extent = 1
p = 2.5
q = 3.0
alpha = 1.0
coefficient = 1.0
epsilon = 0.0
boundary = x

[output]
directory = {out}
prefix = bench
"""

STUDY_2D = """
[problem]
dimension = 2
nodes = 9 9
extent = 1 1
p = 2.5
q = 3.0
coefficient = 1.0
boundary = 0.5*x + 0.3*y + 0.2*sin(3.141592653589793*x)

[study]
trials = 3

[output]
directory = {out}
prefix = study
"""

# a study config whose dimension and [study] lines a test fills in
STUDY_TEMPLATE = """
[problem]
dimension = {dimension}
nodes = 9 9
p = 2.5
q = 3.0
coefficient = 1.0
boundary = 0.5*x + 0.3*y

[study]
{study}
"""

# a 1D config that a test edits line by line: line 2 is the dimension,
# 3 the nodes, 6 the coefficient and 7 the boundary
SMALL_1D = "[problem]\ndimension = 1\nnodes = 9\np = 2.5\nq = 3.0\ncoefficient = 1.0\nboundary = x\n"

# 0.01 at every node of a 9 x 9 grid (x = k/8, where sin(8 pi x) = 0) and
# -0.74 at every element centroid
BETWEEN_NODES = "0.01 - sin(25.132741228718345*x)^2"


def _grow(children):
    """One grammar step over expression texts."""
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"-({c})"),
        st.tuples(st.sampled_from(["sin", "cos", "abs"]), children).map(lambda t: f"{t[0]}({t[1]})"),
    )


# random expression trees of the grammar, as text
expression_trees = st.recursive(
    st.one_of(st.sampled_from(["x", "y"]), st.floats(0.0, 3.0).map(lambda c: format(c, ".4g"))),
    _grow,
    max_leaves=8,
)


class TestExpressions:
    def test_polynomial(self):
        f = compile_expression("2*x - y + 0.5")
        pts = np.array([[1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(f(pts), [0.5, 0.5])

    def test_power_and_abs(self):
        f = compile_expression("abs(x - 0.5)^1.5")
        pts = np.array([[1.5, 0.0]])
        np.testing.assert_allclose(f(pts), [1.0])

    def test_radial_expression(self):
        f = compile_expression("(x*x + y*y)^0.25")
        pts = np.array([[1.0, 1.0]])
        np.testing.assert_allclose(f(pts), [2.0**0.25])

    @settings(max_examples=300)
    @given(expression_trees, hnp.arrays(float, (8, 2), elements=st.floats(-1.0, 1.0)))
    def test_evaluation_matches_python(self, text, pts):
        # the same text read by Python: '^' as '**', the functions numpy's
        # and the constants Python numbers, which raise OverflowError where
        # the grammar's arrays give inf
        names = {"x": pts[:, 0], "y": pts[:, 1], "sin": np.sin, "cos": np.cos, "abs": np.abs}
        with np.errstate(all="ignore"):
            try:
                want = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
            except OverflowError:
                reject()
        got = compile_expression(text)(pts)
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape), rtol=1e-12, atol=1e-12)

    def test_fractional_power_domain_guard(self):
        f = compile_expression("x^0.5")
        with pytest.raises(ValidationError):
            f(np.array([[-1.0, 0.0]]))

    def test_parse_errors(self):
        for text in ["", "x +", "2 ** 3", "foo(x)", "x^y"]:
            with pytest.raises(ParseError):
                compile_expression(text)


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(LINEAR_1D.format(out=tmp_path), command="solve-var")
        assert cfg.command == "solve-var"
        assert cfg.seed == 7
        assert cfg.spec.grid.shape == (65,)
        assert cfg.spec.params.p == 2.5

    def test_exponent_invariant_diagnostic(self):
        text = "[problem]\ndimension = 1\nnodes = 9\np = 3\nq = 2\nboundary = x\n"
        with pytest.raises(ValidationError) as info:
            parse_config(text, command="solve-var")
        assert any("1 < p <= q" in reason for _l, _k, reason in info.value.diagnostics)

    @pytest.mark.parametrize("coefficient, reason", [
        ("-1.0", "constant coefficient violates a(x) >= 0"),
        ("x - 0.5", "coefficient expression violates a(x) >= 0 on the grid"),
    ], ids=["constant", "expression"])
    def test_negative_coefficient_diagnostic(self, coefficient, reason):
        text = SMALL_1D.replace("coefficient = 1.0", f"coefficient = {coefficient}")
        with pytest.raises(ValidationError) as info:
            parse_config(text, command="solve-var")
        assert info.value.diagnostics == [(6, "coefficient", reason)]

    @pytest.mark.parametrize("old, new, diagnostic", [
        ("nodes = 9", "nodes = 9 9", (3, "nodes", "need 1 node counts, got 2")),
        ("dimension = 1\nnodes = 9", "dimension = 2\nnodes = 2 2", (3, "nodes", "need at least 3 nodes per axis")),
        ("boundary = x", "boundary = x\nobstacle = x + 1",
         (0, "problem", "obstacle exceeds the boundary data on the boundary")),
        ("boundary = x", "boundary = x\nepsilon = -1", (0, "problem", "epsilon must be finite and >= 0")),
    ], ids=["node-count", "too-few-nodes", "obstacle-above-boundary", "negative-epsilon"])
    def test_grid_and_problem_rejections(self, old, new, diagnostic):
        with pytest.raises(ValidationError) as info:
            parse_config(SMALL_1D.replace(old, new), command="solve-var")
        assert info.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("key, old, new, line", [
        ("boundary", "boundary = x", "boundary = y", 7),
        ("coefficient", "coefficient = 1.0", "coefficient = 1 + y", 6),
        ("target", "boundary = x", "boundary = x\n[study]\ntarget = 0.5*y", 9),
    ], ids=["boundary", "coefficient", "target"])
    def test_y_on_a_1d_domain(self, key, old, new, line):
        # the probe on the grid's nodes reports it, on the key's own line
        with pytest.raises(ValidationError) as info:
            parse_config(SMALL_1D.replace(old, new), command="solve-var")
        assert info.value.diagnostics == [(line, key, "expression uses 'y' on a 1D domain")]

    @pytest.mark.parametrize("command, drop, diagnostic", [
        ("solve-obstacle", None, (0, "obstacle", "solve-obstacle needs an obstacle expression")),
        ("solve-var", "boundary = x\n", (0, "boundary", "this command needs boundary data")),
        ("solve-visc", "boundary = x\n", (0, "boundary", "this command needs boundary data")),
        ("study:caccioppoli", "boundary = x\n", (0, "boundary", "studies need callable boundary data")),
    ])
    def test_command_needs_its_data(self, command, drop, diagnostic):
        text = SMALL_1D if drop is None else SMALL_1D.replace(drop, "")
        with pytest.raises(ValidationError) as info:
            parse_config(text, command=command)
        assert info.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("command, reason", [
        (None, "no command given"),
        ("solve-fast", "unknown command 'solve-fast'; expected one of " + ", ".join(_COMMANDS)),
    ])
    def test_no_or_unknown_command(self, command, reason):
        with pytest.raises(ValidationError) as info:
            parse_config(SMALL_1D, command=command)
        assert info.value.diagnostics == [(0, "command", reason)]

    @pytest.mark.parametrize("text, diagnostic", [
        ("[problem]\nnot a key value line\n", (2, "not a key value line", "expected 'key = value'")),
        ("[problem]\n= 3\n", (2, "= 3", "empty key")),
        ("[problem]\np = 2\np = 3\n", (3, "p", "duplicate key")),
    ], ids=["no-equals", "empty-key", "duplicate-key"])
    def test_bad_line_reported_with_number(self, text, diagnostic):
        with pytest.raises(ParseError) as info:
            parse_config(text, command="solve-var")
        assert info.value.diagnostics == [diagnostic]

    def test_unknown_key_reported(self):
        text = (
            "[problem]\ndimension = 1\nnodes = 9\np = 2\nq = 3\n"
            "boundry = x\nboundary = x\n"
        )
        with pytest.raises(ValidationError) as info:
            parse_config(text, command="solve-var")
        assert any("unknown key" in reason for _l, k, reason in info.value.diagnostics
                   if k == "boundry")

    def test_strict_needs_a_boolean(self):
        text = STUDY_TEMPLATE.format(dimension=2, study="").replace("q = 3.0", "q = 3.0\nstrict = maybe")
        with pytest.raises(ValidationError) as info:
            parse_config(text, command="solve-var")
        assert info.value.diagnostics == [(7, "strict", "not a boolean: 'maybe'")]

    def test_command_conflict(self):
        text = "[run]\ncommand = solve-var\n" + "\n".join(LINEAR_1D.splitlines()[3:]).format(out=".")
        with pytest.raises(ValidationError):
            parse_config(text, command="solve-visc")


    def test_expression_coefficient_has_no_gradient(self):
        # the operator tools read grad a, which only a caller-supplied
        # gradient gives: parsed params raise the typed error naming it
        text = SMALL_1D.replace("coefficient = 1.0", "coefficient = 1 + x")
        params = parse_config(text, command="solve-var").spec.params
        jet = SecondOrderJet(np.array([0.5]), np.array([1.0]), np.array([[-2.0]]))
        with pytest.raises(ValidationError, match=r"CoefficientField\.analytic\(func, grad\)"):
            nondiv_eval(params, jet)


class TestMain:
    def test_solve_and_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        code = main(["solve-var", "--config", str(cfg)])
        assert code == 0
        field = read_field(tmp_path / "bench_solution.field")
        np.testing.assert_allclose(field.values, field.grid.coords[:, 0], atol=1e-10)
        report = (tmp_path / "bench_report.csv").read_text().splitlines()
        assert report[0].startswith("# version=")
        assert "config_hash=" in report[0] and "seed=7" in report[0]

    def test_viscosity_route(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        assert main(["solve-visc", "--config", str(cfg)]) == 0
        field = read_field(tmp_path / "bench_solution.field")
        np.testing.assert_allclose(field.values, field.grid.coords[:, 0], atol=1e-6)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\np = 3\nq = 2\n")
        assert main(["solve-var", "--config", str(cfg)]) == 2
        assert "missing required key" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["solve-var", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("command", [c for c in _COMMANDS if c.startswith("study:")])
    @pytest.mark.parametrize("key, value", [
        ("dimension", ""), ("dimension", "2 2"), ("dimension", "3"),
        ("refinements", ""), ("trials", ""), ("cutoffs", ""), ("levels", ""),
        ("refinements", "0"), ("refinements", "1"), ("trials", "0"), ("cutoffs", "0"),
        ("levels", "0"), ("levels", "-1"), ("levels", "2 3"),
        ("epsilons", ""),
    ])
    def test_bad_count_or_list_exit_2_naming_the_key(self, tmp_path, capsys, command, key, value):
        # every count is one integer (refinements at least 2, trials, cutoffs
        # and levels at least 1) and epsilons is not empty; else a
        # diagnostic, not a crash
        fields = {"dimension": "2", "study": ""}
        if key == "dimension":
            fields["dimension"] = value
        else:
            fields["study"] = f"{key} = {value}"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(**fields))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("seed, override", [
        ("nan", None), ("inf", None), ("-3", None), ("1.5", None), ("7.0", None), ("7", -3),
    ])
    def test_bad_seed_exit_2_naming_the_key(self, tmp_path, capsys, seed, override):
        # a seed is one integer >= 0, in the config and on the command line
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(LINEAR_1D.replace("seed = 7", f"seed = {seed}").format(out=tmp_path))
        argv = ["solve-var", "--config", str(cfg)]
        if override is not None:
            argv += ["--seed", str(override)]
        assert main(argv) == 2
        assert "seed: " in capsys.readouterr().err
        assert not list(tmp_path.glob("bench_*"))

    def test_seed_override_replaces_the_config_seed(self):
        assert parse_config(LINEAR_1D.format(out="."), command="solve-var", seed_override=0).seed == 0

    def test_delta_key_exit_2(self, tmp_path, capsys):
        # the solvers take delta from their own schedule, so the key is unknown
        cfg = tmp_path / "delta.cfg"
        cfg.write_text(LINEAR_1D.replace("epsilon = 0.0", "epsilon = 0.0\ndelta = 0.5").format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg)]) == 2
        assert "delta: unknown key in [problem]" in capsys.readouterr().err

    @pytest.mark.parametrize("strict, code", [("true", 2), ("false", 0)])
    def test_strict_exponent_validation(self, tmp_path, capsys, strict, code):
        # q/p = 1.6 exceeds 1 + alpha/n = 1.5 in 2D: only a strict run
        # refuses to solve, exits 2 and writes nothing
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=2, study="")
                       .replace("q = 3.0", f"q = 4.0\nstrict = {strict}"))
        assert main(["solve-var", "--config", str(cfg), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        if strict == "true":
            assert err == ("error: strict exponent validation failed: "
                           "q/p = 1.6 exceeds 1 + alpha/n = 1.5\n")
            assert not list(tmp_path.glob("run_*"))
        else:
            assert err == ""

    @pytest.mark.parametrize("line, key, value", [
        (7, "boundary", "0.5*x + ("),
        (9, "target", "0.5*x + ("),
        (9, "target", "0.5*y + x^-1"),
    ])
    def test_bad_closure_diagnostic_names_its_line(self, tmp_path, capsys, line, key, value):
        # the boundary replaces line 7, in [problem], and the target follows
        # as line 9, in [study]: each diagnostic names the line of its key
        lines = ["[problem]", "dimension = 2", "nodes = 9 9", "p = 2.5", "q = 3.0",
                 "coefficient = 1.0", "boundary = 0.5*x + 0.3*y", "[study]"]
        lines[line - 1:line] = [f"{key} = {value}"]
        cfg = tmp_path / "closure.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code = main(["study:obstacle-approximation", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"  line {line}, {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "solve-var", "solve-obstacle", "study:comparison", "study:caccioppoli",
        "study:regularization", "study:obstacle-approximation",
    ])
    def test_coefficient_negative_between_nodes_exits_2(self, tmp_path, capsys, command):
        # the config probe sees a >= 0 at the nodes; the solvers evaluate a
        # at the element centroids, where the typed error names the invariant
        text = STUDY_TEMPLATE.format(dimension=2, study="").replace("coefficient = 1.0",
                                                                    f"coefficient = {BETWEEN_NODES}")
        if command == "solve-obstacle":
            text = text.replace("[study]", "obstacle = -1 + 0*x\n[study]")
        cfg = tmp_path / "between.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: coefficient must be nonnegative at every point\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("value, reason", [
        ("inf", "constant coefficient is not finite: inf"),
        ("nan", "constant coefficient is not finite: nan"),
        ("-0.5", "constant coefficient violates a(x) >= 0"),
    ], ids=["inf", "nan", "-0.5"])
    def test_bad_constant_coefficient_exits_2(self, tmp_path, capsys, value, reason):
        cfg = tmp_path / "coefficient.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=2, study="")
                       .replace("coefficient = 1.0", f"coefficient = {value}"))
        out = tmp_path / "out"
        assert main(["solve-var", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: configuration is invalid\n  line 7, coefficient: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("command", ["solve-visc", "study:equivalence"])
    def test_nonconstant_coefficient_viscosity_route_exits_2(self, tmp_path, capsys, command, dimension):
        # the viscosity solver refuses a non-constant a: one error line and
        # no output file
        cfg = tmp_path / "nc.cfg"
        nodes, extent = ("33", "1") if dimension == 1 else ("9 9", "1 1")
        cfg.write_text(
            f"[problem]\ndimension = {dimension}\nnodes = {nodes}\nextent = {extent}\np = 2\nq = 2.5\n"
            "coefficient = 0.5 + 0.25*x\nboundary = x\n"
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: the viscosity route requires a constant coefficient a(x)\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", [
        "solve-var", "solve-obstacle", "study:comparison", "study:caccioppoli",
        "study:regularization", "study:obstacle-approximation",
    ])
    def test_expression_coefficient_runs(self, tmp_path, command):
        # every command that takes a non-constant a evaluates a(x) only;
        # study:comparison writes NaN in its viscosity column
        study = "trials = 3\ncutoffs = 3\nlevels = 3\nepsilons = 0.1 0.01"
        text = STUDY_TEMPLATE.format(dimension=2, study=study).replace(
            "coefficient = 1.0", "coefficient = 0.6 + 0.4*x + 0.2*sin(3.141592653589793*y)^2")
        if command == "solve-obstacle":
            text = text.replace("[study]", "obstacle = -1 + 0*x\n[study]")
        cfg = tmp_path / "expr.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) in (0, 3)
        if command.startswith("study:"):
            written = [f"run_{command[6:].replace('-', '_')}.csv"]
        else:
            written = ["run_report.csv", "run_solution.field"]
        assert sorted(os.listdir(out)) == written

    @pytest.mark.parametrize("dimension, nodes, study, reason", [
        (2, "9 9", "epsilons = inf 0.1", "epsilons must be finite, positive and strictly decreasing"),
        (2, "9 9", "epsilons = nan", "epsilons must be finite, positive and strictly decreasing"),
        (2, "4 4", "", "regularization study needs a node 2 layers inside the boundary"),
        (2, "5 4", "", "regularization study needs a node 2 layers inside the boundary"),
        (2, "3 3", "", "regularization study needs a node 2 layers inside the boundary"),
        (1, "4", "", "regularization study needs a node 2 layers inside the boundary"),
    ], ids=["inf-epsilon", "nan-epsilon", "4x4", "5x4", "3x3", "1d-4"])
    def test_regularization_study_input_exits_2(self, tmp_path, capsys, dimension, nodes, study, reason):
        # refused before any solve: one error line and no table
        cfg = tmp_path / "reg.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=dimension, study=study)
                       .replace("nodes = 9 9", f"nodes = {nodes}").replace("0.5*x + 0.3*y", "0.5*x"))
        out = tmp_path / "out"
        assert main(["study:regularization", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("dimension, nodes, runs", [
        (2, "4 4", False), (2, "5 5", False), (2, "6 5", False), (1, "5", False), (2, "6 6", True), (1, "6", True),
    ], ids=["4x4", "5x5", "6x5", "1d-5", "6x6", "1d-6"])
    def test_obstacle_approximation_study_needs_an_inner_element(self, tmp_path, capsys, dimension, nodes, runs):
        # with no element 2 layers inside the boundary (fewer than 6 nodes
        # on some axis) every interior modular distance would read 0: one
        # error line and no table
        cfg = tmp_path / "obs.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=dimension, study="levels = 3")
                       .replace("nodes = 9 9", f"nodes = {nodes}").replace("0.5*x + 0.3*y", "0.5*x"))
        out = tmp_path / "out"
        code = main(["study:obstacle-approximation", "--config", str(cfg), "--out", str(out)])
        if runs:
            assert code in (0, 3) and sorted(os.listdir(out)) == ["run_obstacle_approximation.csv"]
        else:
            assert code == 2 and not list(out.iterdir())
            reason = "obstacle approximation study needs an element 2 layers inside the boundary"
            assert capsys.readouterr().err == f"error: {reason}\n"

    def test_equivalence_with_exactly_agreeing_routes_exit_0(self, tmp_path, capsys):
        # affine data: both routes stay at the Poisson start, so every route
        # gap is exactly 0, which counts as not increasing
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=2, study=""))
        assert main(["study:equivalence", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_study_pass_exit_0_and_csv(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_2D.format(out=tmp_path))
        code = main(["study:comparison", "--config", str(cfg), "--seed", "3"])
        assert code == 0
        lines = (tmp_path / "study_comparison.csv").read_text().splitlines()
        assert lines[0].startswith("# version=") and "seed=3" in lines[0]
        assert lines[2].startswith("trial,")

    def test_obstacle_route(self, tmp_path):
        cfg = tmp_path / "obs.cfg"
        cfg.write_text(
            "[problem]\ndimension = 1\nnodes = 65\nextent = 1\np = 2\nq = 2\n"
            "coefficient = 0\nboundary = 0\n"
            "obstacle = 0.3 - 2*(x - 0.5)^2\n"
            f"[output]\ndirectory = {tmp_path}\nprefix = obs\n"
        )
        assert main(["solve-obstacle", "--config", str(cfg)]) == 0
        field = read_field(tmp_path / "obs_solution.field")
        assert np.max(field.values) > 0.25  # rides the obstacle

    def test_byte_for_byte_determinism(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_2D.format(out="."))
        for sub in ("a", "b"):
            code = main(
                ["study:comparison", "--config", str(cfg),
                 "--seed", "5", "--out", str(tmp_path / sub)]
            )
            assert code == 0
        c1 = (tmp_path / "a" / "study_comparison.csv").read_bytes()
        c2 = (tmp_path / "b" / "study_comparison.csv").read_bytes()
        assert c1 == c2

    def test_field_file_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(STUDY_2D.format(out="."))
        fields = []
        for sub in ("a", "b"):
            code = main(["solve-var", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / sub)])
            assert code == 0
            fields.append((tmp_path / sub / "study_solution.field").read_bytes())
        assert fields[0] == fields[1]
        assert fields[0].startswith(b"DPFIELD v2\n")

    def test_no_temp_files_left(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg)]) == 0
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_tolerance_override_applied(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            LINEAR_1D.format(out=tmp_path) + "\n[tolerances]\nnewton = 1e-10\n"
        )
        assert main(["solve-var", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command, key", [("solve-var", "newton"), ("solve-visc", "gauss_seidel")])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, command, key, value):
        # a tolerance is a finite number > 0: nan wrote an unconverged
        # solve-var field with exit 0, inf the warm start as converged
        out = tmp_path / "out"
        cfg = tmp_path / "tol.cfg"
        text = LINEAR_1D.format(out=out) + f"\n[tolerances]\n{key} = {value}\n"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        line = text.splitlines().index(f"{key} = {value}") + 1
        assert capsys.readouterr().err == (f"error: configuration is invalid\n"
                                           f"  line {line}, {key}: need a finite number > 0, got {value!r}\n")
        assert not out.exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make the output directory: ") and err.count("\n") == 1
        assert target.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]

    def test_prefix_with_a_missing_subdirectory_is_made(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.replace("prefix = bench", "prefix = sub/bench").format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg)]) == 0
        assert sorted(os.listdir(tmp_path / "sub")) == ["bench_report.csv", "bench_solution.field"]

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # a directory where the field file goes: the write fails after the
        # solve, with one error line and no temporary file left
        (tmp_path / "bench_solution.field").mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["bench_solution.field", "run.cfg"]

    @pytest.mark.parametrize("command", ["solve-var", "solve-visc", "solve-obstacle"])
    def test_unwritable_report_leaves_no_field_file(self, tmp_path, capsys, command):
        # a directory where the report goes: the field file written before
        # it is removed again, so a failed run leaves no output
        (tmp_path / "bench_report.csv").mkdir()
        cfg = tmp_path / "run.cfg"
        text = LINEAR_1D.format(out=tmp_path)
        if command == "solve-obstacle":
            text = text.replace("boundary = x", "boundary = x\nobstacle = -1 + 0*x")
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["bench_report.csv", "run.cfg"]

    def test_nonconvergence_maps_to_exit_1(self, tmp_path, monkeypatch):
        import doublephase.cli as cli_mod
        from doublephase.errors import NonConvergence

        def boom(spec, **kwargs):
            raise NonConvergence("stalled")

        monkeypatch.setattr(cli_mod, "solve_dirichlet", boom)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LINEAR_1D.format(out=tmp_path))
        assert main(["solve-var", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command, reason", [
        ("study:comparison", "obstacle exceeds the boundary data"),
        ("study:caccioppoli", "obstacle lives on a different grid"),
    ])
    def test_study_error_exit_2_without_csv(self, tmp_path, capsys, command, reason):
        # the study raises InfeasibleObstacle or GridMismatch on a spec with
        # an obstacle: a configuration error, not a traceback, and no table
        cfg = tmp_path / "obstacle.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=2, study="")
                       .replace("[study]", "obstacle = 0.1 - (x-0.5)^2\n[study]"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert reason in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["study:caccioppoli", "study:equivalence"])
    def test_pole_on_a_refined_grid_exits_2_without_warning(self, tmp_path, capsys, command):
        # x = 0.0625 is no node of the 9 x 9 config grid, so the config
        # probe passes; it is a node of the 17^2 grid the study refines to.
        # The pole gives inf there, not a numpy warning (an error under the
        # test config), and the boundary data's finiteness check exits 2
        cfg = tmp_path / "pole.cfg"
        cfg.write_text(STUDY_TEMPLATE.format(dimension=2, study="")
                       .replace("0.5*x + 0.3*y", "1 + (x - 0.0625)^-1"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: boundary data must be finite at every boundary node\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_regularization_study_route(self, tmp_path):
        cfg = tmp_path / "reg.cfg"
        cfg.write_text(
            "[problem]\ndimension = 2\nnodes = 9 9\nextent = 1 1\np = 2\nq = 2.5\n"
            "coefficient = 1.0\nboundary = 0.5*x + 0.3*y\n"
            "[study]\nepsilons = 0.1 0.01\n"
            f"[output]\ndirectory = {tmp_path}\nprefix = reg\n"
        )
        assert main(["study:regularization", "--config", str(cfg)]) == 0
        assert (tmp_path / "reg_regularization.csv").exists()

    def test_obstacle_approximation_study_route(self, tmp_path):
        cfg = tmp_path / "obsapp.cfg"
        cfg.write_text(
            "[problem]\ndimension = 1\nnodes = 33\nextent = 1\np = 2.2\nq = 2.8\n"
            "coefficient = 0.7\nboundary = 0.5*x\n"
            "[study]\nlevels = 3\n"
            f"[output]\ndirectory = {tmp_path}\nprefix = oa\n"
        )
        assert main(["study:obstacle-approximation", "--config", str(cfg)]) == 0
        assert (tmp_path / "oa_obstacle_approximation.csv").exists()

    def test_failing_study_maps_to_exit_3(self, tmp_path, monkeypatch):
        import doublephase.cli as cli_mod
        from doublephase.studies import StudyTable

        def fake_study(spec, trials, seed=0):
            return StudyTable("comparison", ("trial",), [(0,)], False, {})

        monkeypatch.setattr(cli_mod, "comparison_study", fake_study)
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_2D.format(out=tmp_path))
        assert main(["study:comparison", "--config", str(cfg)]) == 3
