"""Tests of the benchmark itself: every workload at a tiny size, failure
accounting on corrupted outputs, and the nesting of traced spans."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipmbench import run as bench

ROOT = Path(__file__).resolve().parent.parent
bench.load_program(ROOT)

from ipmbench import checks, tracing, workloads  # noqa: E402  (needs the program on the path)

TINY = {
    "mc-crosscheck": {"n_pulses": 3 << 16},
    "mc-dark-uplink": {"n_pulses": 3 << 16},
    "rate-design": {"sweeps": 1, "grid": (0.0, 80.0, 1.0), "keyrates": 1},
    "modulator-characterization": {"scans": 1, "stokes_rows": 20, "mueller_evals": 5},
}


def tiny(name, work, seed=1):
    return workloads.WORKLOADS[name](seed=seed, work=work, **TINY[name])


def run_tiny(name, work):
    workload, tracer = tiny(name, work), tracing.Tracer()
    records = bench.run_rounds(workload, seconds=0, trace=True, min_rounds=1, tracer=tracer,
                               probes={})
    return workload, tracer, records


def corrupted(op, corrupt):
    """The same operation, with its output corrupted after the command ran."""
    run = op.run

    def run_then_corrupt():
        run()
        corrupt(op.out)

    op.run = run_then_corrupt
    return op


def test_tiny_covers_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_and_reports_every_declared_metric(name, tmp_path):
    workload, tracer, records = run_tiny(name, tmp_path)
    assert [r.failures for r in records if r.failures] == []
    assert {r.phase for r in records} >= {"warmup", "untraced", "traced"}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    probes = {"untraced": [0.03], "traced": [0.03]}
    end_to_end = bench.end_to_end(records, setup=[0.3], probes=probes)
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value in end_to_end.values())
    layer = bench.per_layer(records, workload, tracer, {"setup.import_numpy_s": 0.2,
                                                        "setup.import_cli_s": 0.3}, probes)
    assert set(layer) == {m["name"] for m in declared["per_layer"]}
    assert layer["cli.main.calls"] > 0
    assert 0.5 < layer["trace.top_level_share"] <= 1.0


def test_corrupted_tally_is_a_failure(tmp_path):
    def detected_above_sent(out):
        tally = json.loads(out.read_text())
        tally["signal"]["H"]["detected"] = tally["signal"]["H"]["sent"] + 1
        out.write_text(json.dumps(tally))

    op = corrupted(tiny("mc-dark-uplink", tmp_path).round(1)[0], detected_above_sent)
    record = bench.execute(op, "untraced", 1)
    assert any("detected > sent" in failure for failure in record.failures)


def test_wrong_sweep_rate_is_a_failure(tmp_path):
    def scale_rates(out):
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[8] = checks.fmt(1.5 * float(row[8]))
        out.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")

    sweep = next(op for op in tiny("rate-design", tmp_path).round(1) if op.kind == "sweep")
    record = bench.execute(corrupted(sweep, scale_rates), "untraced", 1)
    assert any("secure_rate gives" in failure for failure in record.failures)


def test_failing_command_is_a_failure(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"protocol": {"mu": 0.1, "nu": 0.2}}))
    op = workloads.cli_op("keyrate", 1, ["keyrate", "--scenario", scenario,
                                         "--out", tmp_path / "k.csv"], lambda: [])
    record = bench.execute(op, "untraced", 1)
    assert record.failures and "exited 3" in record.failures[0]


def test_traced_spans_nest_and_self_times_are_non_negative(tmp_path):
    _, tracer, _ = run_tiny("modulator-characterization", tmp_path)
    spans = tracer.spans()
    child = np.flatnonzero(spans["parent"] >= 0)
    parent = spans["parent"][child]
    assert child.size > 0
    assert np.all(spans["start"][parent] <= spans["start"][child])
    assert np.all(spans["end"][child] <= spans["end"][parent])
    assert np.all(spans["self"] >= -1e-12)
    # rotator is reached through modulator and polarization namespaces alike
    rotator = tracing.FUNCTIONS.index("polarization.rotator")
    assert np.any(spans["function"] == rotator)

    import ipmsim.modulator
    import ipmsim.polarization

    assert not hasattr(ipmsim.modulator.rotator, "__wrapped__")
    assert not hasattr(ipmsim.polarization.retarder, "__wrapped__")


def test_binomial_z_matches_gaussian_z_and_handles_empty_counts():
    n, p = 1_000_000, 0.01
    k = round(n * p + 3 * math.sqrt(n * p * (1 - p)))
    assert abs(checks.binomial_z(k, n, p) - 3.0) < 0.1
    assert abs(checks.binomial_z(0, 100, 1e-8)) < 0.01
    assert checks.binomial_z(0, 0, 0.5) == 0.0


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "ipmbench", tmp_path / "ipmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "ipmbench/run.py", "--workload", "rate-design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_import_timer_times_each_module_in_turn():
    imports = bench.ImportTimer(ROOT / "src", ("numpy", "ipmsim.cli"))
    for index in range(3):
        imports(index)
    assert [len(imports.times[m]) for m in ("numpy", "ipmsim.cli")] == [2, 1]
    assert all(t > 0 for times in imports.times.values() for t in times)
