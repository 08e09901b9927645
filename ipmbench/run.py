"""Run one ipmsim benchmark workload and print its metrics.

    python3 ipmbench/run.py --workload rate-design --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the program under test is that
checkout's ``src/ipmsim``, imported into this process.  A run

1. runs the workload's untimed preparation and one untimed warm-up round;
2. runs rounds until ``--seconds`` have passed, timing each operation and
   checking its output outside the timed section.  With ``--trace 1`` the
   first half of that time is untraced and the second half traced.  Before
   each round it times a host probe and one fresh interpreter that only
   runs ``import ipmsim.cli`` (``setup_s``), so the import times sample the
   whole run.

It prints every metric by name and unit, then, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A record of the run (provenance, input sizes, every
operation's time and failures) is written to ``.ipmbench_out/``, with the
spans of a traced run beside it.  Exit status is 0 when the run completes,
also when checks fail; 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".ipmbench_work"
OUT_DIR = ".ipmbench_out"
MIN_ROUNDS = 3
# The host probe's time at the reference host speed.  Round and import
# times are scaled by (PROBE_REF_S / median probe time) ** PROBE_ELASTICITY.
# Over a 4-minute trace on a shared 2-core host, the log of the round time
# followed the log of the probe time with slopes from 0.4 (MC kernel) to 0.9
# (rate-design); 0.5 gave the narrowest worst-case spread over the four
# workloads, where 1 over-corrected the MC workloads and 0 left the others
# drifting with the host.
PROBE_REF_S = 0.065
PROBE_ELASTICITY = 0.5
PROBE_GRID = np.arange(200_000, dtype=float)
PROBE_BUF = np.empty_like(PROBE_GRID)

# per-layer throughputs: operation kinds whose items and time they sum
KIND_RATES = {
    "mc_pulses_per_s": ("mc",),
    "rate_points_per_s": ("sweep", "keyrate"),
    "fit_scans_per_s": ("fitdl",),
    "stokes_rows_per_s": ("polarimetry",),
    "mueller_evals_per_s": ("mueller",),
}


def declared_units(root: Path) -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


class CannotRun(RuntimeError):
    """The checkout holds no ipmsim source, or the workload is unknown."""


def load_program(root: Path) -> Path:
    """Put the checkout's ``src`` first on the path and import ipmsim from it."""
    src = (root / "src").resolve()
    if not (src / "ipmsim" / "cli.py").is_file():
        raise CannotRun(f"no ipmsim source at {src / 'ipmsim'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ipmsim.cli

    if not Path(ipmsim.cli.__file__).resolve().is_relative_to(src):
        raise CannotRun(f"ipmsim imported from {ipmsim.cli.__file__}, not from {src}")
    return src


@dataclass
class Record:
    """One executed operation."""

    kind: str
    phase: str              # prepare, warmup, untraced or traced
    round: int
    seconds: float
    items: int
    cpu_self_s: float
    cpu_children_s: float
    bytes_written: int
    failures: list[str] = field(default_factory=list)


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def execute(op, phase: str, index: int, tracer=None) -> Record:
    """Time ``op.run`` (its console output captured), then check its output."""
    failures = []
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        start = perf_counter()
        try:
            with tracer.recording() if tracer else nullcontext():
                op.run()
        except Exception as exc:  # a crashing command is one failed operation
            failures.append(f"{op.kind} raised {exc!r}: {err.getvalue()[-500:]}")
        seconds = perf_counter() - start
    cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_self
    cpu_children = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    if not failures:
        try:
            failures = op.check()
        except Exception as exc:  # an unreadable output fails its check
            failures = [f"check of {op.kind} raised {exc!r}"]
    written = sum(p.stat().st_size for p in op.out.parent.glob(op.out.name + "*")) if op.out else 0
    return Record(op.kind, phase, index, seconds, op.items, cpu_self, cpu_children, written, failures)


def host_probe() -> float:
    """Seconds for a fixed mix of work that ipmsim never touches.

    On a shared host the speed of the same code drifts by 10-35 % over
    minutes, which swamps run-to-run comparisons.  The probe runs before
    every timed round, so the run's median probe time measures the host's
    speed during that run.  It mixes the three kinds of work the workloads
    do: interpreter-bound text handling, many small numpy calls, and bulk
    numpy array passes.

    The probe makes no allocation large enough for the C library to map
    fresh memory for it: the text goes in 50 kB pieces and the bulk passes
    reuse two preallocated arrays.  Otherwise its time could follow the
    allocator state that the workload leaves behind (a workload that frees
    large arrays raises the threshold for fresh mappings), not the host.
    """
    start = perf_counter()
    for first in range(0, 20_000, 5_000):
        text = ",".join(f"{(i + 0.5) ** 0.5:.9g}" for i in range(first, first + 5_000))
        sum(float(x) for x in text.split(","))
    small = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    for k in range(800):
        np.kron(small, small.conj()) @ np.full((4, 4), np.exp(1j * k)).real
    for _ in range(4):
        np.sin(PROBE_GRID, out=PROBE_BUF)
        np.multiply(PROBE_BUF, PROBE_GRID, out=PROBE_BUF)
        PROBE_BUF.sort()
    return perf_counter() - start


class ImportTimer:
    """Wall time of fresh interpreters that only import a module."""

    def __init__(self, src: Path, modules: tuple[str, ...]) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
        self.modules = modules
        self.times: dict[str, list[float]] = {module: [] for module in modules}
        for module in modules:  # untimed: the first launch fills the file cache
            self.launch(module)

    def launch(self, module: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def __call__(self, index: int) -> None:
        """One timed launch; the modules take turns from round to round."""
        module = self.modules[index % len(self.modules)]
        self.times[module].append(self.launch(module))


def run_rounds(workload, seconds: float, trace: bool, min_rounds: int, tracer,
               probes: dict[str, list[float]], imports: ImportTimer | None = None) -> list[Record]:
    """Prepare, warm up, then run timed rounds.

    Before each timed round it appends a host probe to ``probes[phase]`` and
    makes one ``imports`` launch; both count toward the phase's time budget.
    """
    records = [execute(op, "prepare", 0) for op in workload.prepare()]
    records += [execute(op, "warmup", 0) for op in workload.round(0)]
    phases = [("untraced", seconds / 2), ("traced", seconds / 2)] if trace else [("untraced", seconds)]
    index = 1
    for phase, budget in phases:
        with tracer if phase == "traced" else nullcontext():
            deadline, done = perf_counter() + budget, 0
            while done < min_rounds or perf_counter() < deadline:
                probes.setdefault(phase, []).append(host_probe())
                if imports:
                    imports(index)
                ops = workload.round(index)
                records += [execute(op, phase, index, tracer if phase == "traced" else None)
                            for op in ops]
                index, done = index + 1, done + 1
    return records


def round_times(records: list[Record], phase: str) -> list[float]:
    totals: dict[int, float] = {}
    for r in records:
        if r.phase == phase:
            totals[r.round] = totals.get(r.round, 0.0) + r.seconds
    return list(totals.values())


def host_scale(probes: list[float]) -> float:
    """Factor that takes a time measured beside ``probes`` to the reference host speed."""
    return (PROBE_REF_S / statistics.median(probes)) ** PROBE_ELASTICITY


def scaled_round_s(records: list[Record], probes: dict[str, list[float]], phase: str) -> float:
    """Median round time of ``phase``, scaled by the probes of the same phase."""
    return statistics.median(round_times(records, phase)) * host_scale(probes[phase])


def kind_rate(records: list[Record], kinds: tuple[str, ...], phase: str) -> float:
    mine = [r for r in records if r.phase == phase and r.kind in kinds]
    busy = sum(r.seconds for r in mine)
    return sum(r.items for r in mine) / busy if busy else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for (ru_maxrss, KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(records: list[Record], setup: list[float],
               probes: dict[str, list[float]]) -> dict[str, float]:
    """Times at the reference host speed; peak_rss_mb as measured."""
    return {
        "setup_s": statistics.median(setup) * host_scale(probes["untraced"]),
        "workload_s": scaled_round_s(records, probes, "untraced"),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records: list[Record], workload, tracer, imports: dict,
              probes: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer figures as measured; only trace.overhead_share is host-scaled."""
    out = tracer.summary()
    traced = [r for r in records if r.phase == "traced"]
    traced_mc = [r for r in traced if r.kind == "mc"]
    stats = workload.stats

    simulate_s = out["montecarlo.simulate.busy_s"]
    child_cpu = sum(r.cpu_children_s for r in traced_mc)
    out["montecarlo.pulses_per_busy_s"] = _ratio(sum(r.items for r in traced_mc), simulate_s)
    out["montecarlo.child_cpu_s"] = child_cpu
    out["montecarlo.parallel_efficiency"] = _ratio(
        child_cpu + sum(r.cpu_self_s for r in traced_mc), simulate_s * workload.workers)
    out["montecarlo.detected_per_pulse"] = _ratio(stats.detected, stats.pulses)
    out["montecarlo.sifted_per_detected"] = _ratio(stats.sifted, stats.detected)
    out["montecarlo.dark_only_share"] = _ratio(stats.dark_only, stats.detected)
    out["montecarlo.double_click_share"] = _ratio(stats.double_click, stats.detected)
    out["montecarlo.max_abs_z"] = max((abs(z) for z in stats.z_scores), default=0.0)
    out["montecarlo.low_statistics_flags"] = stats.low_statistics_flags

    points = sum(r.items for r in traced if r.kind in KIND_RATES["rate_points_per_s"])
    decoy_s = out["decoy.sweep_loss.busy_s"] + out["decoy.secure_rate.busy_s"]
    out["decoy.us_per_point"] = 1e6 * _ratio(decoy_s, points)
    out["decoy.rate_clamped_share"] = _ratio(stats.rate_rows_clamped, stats.rate_rows)
    out["cli.bytes_written"] = sum(r.bytes_written for r in traced)
    out["modulator.fit_delta_l.us_per_scan_point"] = 1e6 * _ratio(
        out["modulator.fit_delta_l.busy_s"],
        out["modulator.fit_delta_l.calls"] * getattr(workload, "scan_points", 0))
    out["modulator.fit_rel_error_max"] = max(stats.fit_rel_errors, default=0.0)

    out["trace.overhead_share"] = (scaled_round_s(records, probes, "traced")
                                   / scaled_round_s(records, probes, "untraced") - 1.0)
    out["trace.top_level_share"] = _ratio(out.pop("trace.top_level_s"), sum(r.seconds for r in traced))
    out.update(imports)
    out["host.probe_s"] = statistics.median([p for phase in probes.values() for p in phase])
    for name, kinds in KIND_RATES.items():
        out[name] = kind_rate(records, kinds, "untraced")
    return out


def provenance(root: Path, src: Path, workload, seed: int) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
        "workload": workload.name,
        "seed": seed,
        "input_sizes": workload.sizes(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> dict:
    """Run one workload; returns the result line plus the full record."""
    src = load_program(root)
    from ipmbench.tracing import Tracer
    from ipmbench.workloads import WORKLOADS

    if name not in WORKLOADS:
        raise CannotRun(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    units = declared_units(root)
    imports = ImportTimer(src, ("numpy", "ipmsim.cli") if trace else ("ipmsim.cli",))
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / WORK_DIR))
    tracer, probes = Tracer(), {}
    try:
        workload = WORKLOADS[name](seed=seed, work=work)
        records = run_rounds(workload, seconds, trace, MIN_ROUNDS, tracer, probes, imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = per_layer(records, workload, tracer, {
            "setup.import_numpy_s": statistics.median(imports.times["numpy"]),
            "setup.import_cli_s": statistics.median(imports.times["ipmsim.cli"])}, probes)
    else:
        metrics = end_to_end(records, imports.times["ipmsim.cli"], probes)
    failed = sum(1 for r in records if r.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.save(out_dir / f"{stem}.spans.npz")
    record = {
        "result": result,
        "provenance": provenance(root, src, workload, seed),
        "import_launches_s": imports.times,
        "host_probe_s": probes,
        "workload_s_unscaled": statistics.median(round_times(records, "untraced")),
        "kind_rates": {k: kind_rate(records, kinds, "untraced") for k, kinds in KIND_RATES.items()},
        "operations": [asdict(r) for r in records],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"result": result, "record": record, "records": records, "tracer": tracer,
            "workload": workload}


def report(outcome: dict) -> str:
    """Human-readable lines: every metric by name and unit, failures, provenance."""
    result, record = outcome["result"], outcome["record"]
    rounds = round_times(outcome["records"], "untraced")
    lines = [f"{record['provenance']['workload']} seed {record['provenance']['seed']}: "
             f"{len(rounds)} untraced timed rounds, {result['attempted']} operations, "
             f"{result['failed']} failed"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"  {'failed_ops_share':48s} {result['failed'] / result['attempted']:.6g} ratio")
    lines.append(f"  {'workload_s_unscaled':48s} {record['workload_s_unscaled']:.6g} s")
    lines.append(f"  {'host_probe_s (untraced median)':48s} "
                 f"{statistics.median(record['host_probe_s']['untraced']):.6g} s")
    for name, value in record["kind_rates"].items():
        if value and name not in result["metrics"]:
            lines.append(f"  {name:48s} {value:.6g} 1/s")
    for r in outcome["records"]:
        lines.extend(f"  FAILED {r.kind} round {r.round}: {msg}" for msg in r.failures)
    lines.append("provenance: " + json.dumps(record["provenance"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"ipmbench: {exc}", file=sys.stderr)
        return 2
    print(report(outcome))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
