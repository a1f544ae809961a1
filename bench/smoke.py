"""Smoke test of the benchmark itself; takes about half a minute.

    python3 bench/smoke.py

Checks that the metric lists in ``run.py`` match ``BENCHMARK.json``, that a
tiny mode of every workload prints every declared metric with its unit in
both trace modes, and that a deliberately perturbed field trips the
residual gates and counts as a failed, incorrect operation.
"""

import contextlib
import io
import json
import sys
import tempfile

import run


def declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], end_to_end, per_layer


def check_metric_lists(end_to_end, per_layer):
    assert dict(run.END_TO_END) == end_to_end, "END_TO_END differs from BENCHMARK.json"
    assert dict(run.PER_LAYER) == per_layer, "PER_LAYER differs from BENCHMARK.json"


def check_tiny_runs(workloads, end_to_end, per_layer):
    for name in workloads:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            out = io.StringIO()
            argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
            with contextlib.redirect_stdout(out):
                assert run.main(argv) == 0
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(expected))}"
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), f"{name}: {k} is not a number"
            print(f"ok  {name} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def perturbed(field_, amount=1e-3):
    """The field with one interior node moved by ``amount``."""
    out = field_.copy()
    out.values[out.grid.interior_idx[len(out.grid.interior_idx) // 2]] += amount
    return out


def check_gates_trip():
    from dataclasses import replace

    import workloads

    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        # captured solves of one ordered pair: both routes
        _wall, outcomes = run.run_pass(workloads.routes(3, True, workdir)[:1])
        op, table, error, solves = outcomes[0]
        assert error is None and run.check_outcomes(outcomes)["failed"] == 0
        for kind in ("dirichlet", "viscosity"):
            solve = next(s for s in solves if s.kind == kind)
            bad = [replace(solve, field=perturbed(solve.field))]
            tally = run.check_outcomes([(op, table, None, bad)])
            assert tally["failed"] == 1 and tally["wrong"] == 1, f"{kind} gate did not trip"
            print(f"ok  perturbed {kind} field trips its residual gate: {next(iter(tally['reasons']))}")

        # a field read back from the CLI
        _wall, outcomes = run.run_pass(workloads.fine_var(3, True, workdir)[:1])
        op, (code, field_), error, solves = outcomes[0]
        assert error is None and code == 0 and run.check_outcomes(outcomes)["failed"] == 0
        tally = run.check_outcomes([(op, (code, perturbed(field_)), None, [])])
        assert tally["failed"] == 1 and tally["wrong"] == 1, "solve-var gate did not trip"
        print(f"ok  perturbed solve-var field trips its residual gate: {next(iter(tally['reasons']))}")


def main():
    run.load_program()
    workloads, end_to_end, per_layer = declared()
    check_metric_lists(end_to_end, per_layer)
    check_tiny_runs(workloads, end_to_end, per_layer)
    check_gates_trip()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
