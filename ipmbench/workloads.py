"""The four benchmark workloads.

A workload is a sequence of rounds and a round is a list of operations.
Each operation is one timed call into ipmsim, made in this process, plus
an untimed check of what it wrote.  The loop is closed: the next
operation starts only when the previous one has returned, and the only
extra processes are the ``mc --workers 2`` pool of mc-crosscheck.

The workloads are chosen so that each layer likely to be optimised does
most of the work in one workload and almost none in another:

* mc-crosscheck: the Monte Carlo kernel across the process pool, at
  criterion 7's point, where dark fires are too rare to matter;
* mc-dark-uplink: the same kernel serially, with darks on the dense
  branch, so a pool change leaves it alone and a dark-path change does not;
* rate-design: the analytic decoy engine and the CLI's CSV writer;
* modulator-characterization: the modulator, polarization and
  polarimetry layers, and the CLI's CSV reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from ipmbench import checks, inputs
from ipmsim import cli, modulator, polarization

H_IN = np.array([1.0, 1.0, 0.0, 0.0])


class CommandFailed(RuntimeError):
    """An ipmsim command exited with a status other than 0."""


@dataclass
class Op:
    """One timed call into ipmsim and the check of its output."""

    kind: str
    items: int                          # work units: pulses, points, scans, rows, evals
    run: Callable[[], None]
    check: Callable[[], list[str]]
    out: Path | None = None             # the command's output; sidecars share its name


def cli_op(kind: str, items: int, argv: list, check: Callable[[], list[str]]) -> Op:
    argv = [str(a) for a in argv]

    def run() -> None:
        status = cli.main(argv)
        if status != 0:
            raise CommandFailed(f"ipmsim {' '.join(argv)} exited {status}")

    return Op(kind, items, run, check, Path(argv[argv.index("--out") + 1]))


@dataclass
class Workload:
    """Base: a named, seeded source of rounds writing into ``work``."""

    seed: int
    work: Path
    stats: checks.Stats = field(default_factory=checks.Stats)

    name = ""
    workers = 1

    def rng(self, index: int) -> np.random.Generator:
        return inputs.stream(self.seed, self.name, index)

    def prepare(self) -> list[Op]:
        """Untimed operations run once before the first round."""
        return []

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def sizes(self) -> dict:
        """The workload's input sizes, for the run's provenance record."""
        sizes = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.name not in ("seed", "work", "stats")}
        return {**sizes, "workers": self.workers}


@dataclass
class MonteCarlo(Workload):
    """``ipmsim mc`` at one channel, a fresh MC seed every round."""

    n_pulses: int = 16 << 20
    channel: dict = field(default_factory=dict)

    def _scenario(self, n_pulses: int, chunk_pulses: int = 1 << 20) -> Path:
        return inputs.write_json(
            self.work / f"mc-{n_pulses}.json",
            {"channel": self.channel, "sim": {"n_pulses": n_pulses, "chunk_pulses": chunk_pulses}},
        )

    def prepare(self) -> list[Op]:
        # the tally must not depend on the worker count: 4 small chunks, run
        # at 1 and at 2 workers, byte for byte
        scenario = self._scenario(4 << 16, chunk_pulses=1 << 16)
        outs = [self.work / f"determinism-w{w}.json" for w in (1, 2)]

        def run() -> None:
            for workers, out in zip((1, 2), outs):
                if cli.main(["mc", "--scenario", str(scenario), "--out", str(out),
                             "--workers", str(workers)]) != 0:
                    raise CommandFailed(f"determinism run at {workers} workers failed")

        def check() -> list[str]:
            same = outs[0].read_bytes() == outs[1].read_bytes()
            return [] if same else ["tally differs between --workers 1 and --workers 2"]

        return [Op("mc-determinism", 0, run, check)]

    def round(self, index: int) -> list[Op]:
        scenario = self._scenario(self.n_pulses)
        out = self.work / "mc.json"
        argv = ["mc", "--scenario", scenario, "--out", out,
                "--seed", self.rng(index).integers(2**63), "--workers", self.workers]
        return [cli_op("mc", self.n_pulses, argv,
                       lambda: checks.check_mc(out, scenario, self.n_pulses, self.stats))]


@dataclass
class McCrosscheck(MonteCarlo):
    channel: dict = field(default_factory=lambda: {"total_loss_db": 25.0})

    name = "mc-crosscheck"
    workers = 2


@dataclass
class McDarkUplink(MonteCarlo):
    n_pulses: int = 8 << 20
    channel: dict = field(default_factory=lambda: {
        "total_loss_db": 45.0, "dark_rate": 1e5, "gate_window": 1e-9})

    name = "mc-dark-uplink"
    workers = 1


@dataclass
class RateDesign(Workload):
    """Fine loss sweeps and single key-rate points over seeded design points."""

    sweeps: int = 4
    grid: tuple[float, float, float] = (0.0, 80.0, 0.01)
    keyrates: int = 4

    name = "rate-design"

    @property
    def points_per_sweep(self) -> int:
        start, stop, step = self.grid
        return int(round((stop - start) / step)) + 1

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for k, design in enumerate(inputs.rate_scenarios(rng, self.sweeps, self.grid)):
            scenario = inputs.write_json(self.work / f"sweep-{k}.json", design)
            out = self.work / f"sweep-{k}.csv"
            sample = np.random.default_rng(rng.integers(2**63))
            ops.append(cli_op("sweep", self.points_per_sweep,
                              ["sweep", "--scenario", scenario, "--out", out],
                              lambda s=scenario, o=out, r=sample:
                                  checks.check_sweep(o, s, r, self.stats)))
        for k, design in enumerate(inputs.rate_scenarios(rng, self.keyrates, self.grid, True)):
            scenario = inputs.write_json(self.work / f"keyrate-{k}.json", design)
            out = self.work / f"keyrate-{k}.csv"
            ops.append(cli_op("keyrate", 1, ["keyrate", "--scenario", scenario, "--out", out],
                              lambda s=scenario, o=out: checks.check_keyrate(o, s, self.stats)))
        return ops


@dataclass
class ModulatorCharacterization(Workload):
    """One seeded modulator per round: fit, polarimetry, state table, trace, Mueller check."""

    scans: int = 32
    scan_points: int = 1201
    stokes_rows: int = 20000
    mueller_evals: int = 2800

    name = "modulator-characterization"

    def round(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for k, delta_l in enumerate(inputs.arm_imbalances(rng, self.scans)):
            lam_nm, intensity = inputs.noisy_scan(rng, delta_l, self.scan_points)
            scan = inputs.write_csv(self.work / f"scan-{k}.csv", "wavelength_nm,intensity",
                                    [lam_nm, intensity])
            out = self.work / f"fit-{k}.csv"
            ops.append(cli_op("fitdl", 1, ["fitdl", "--in", scan, "--out", out],
                              lambda o=out, d=delta_l: checks.check_fitdl(o, d, self.stats)))

        projections = inputs.write_csv(self.work / "projections.csv", "i1,i2,i3,s0",
                                       inputs.projections(rng, self.stokes_rows))
        out = self.work / "stokes.csv"
        ops.append(cli_op("polarimetry", self.stokes_rows,
                          ["polarimetry", "--in", projections, "--out", out],
                          lambda o=out: checks.check_polarimetry(o, projections)))

        device = inputs.write_json(self.work / "device.json",
                                   {"modulator": inputs.modulator_section(rng)})
        states, trace = self.work / "states.csv", self.work / "trace.csv"
        ops.append(cli_op("states", 4, ["states", "--scenario", device, "--out", states],
                          lambda: checks.check_unit_stokes(states, 4, slice(4, 8))))
        ops.append(cli_op("trace", 1024, ["trace", "--scenario", device, "--out", trace],
                          lambda: checks.check_unit_stokes(trace, 1024, slice(3, 7))))
        ops.append(self._mueller_op(inputs.mueller_draws(rng, self.mueller_evals)))
        return ops

    def _mueller_op(self, draws) -> Op:
        configs = [(modulator.ModulatorConfig(delta=d, phi0_operating=p), v1, v2)
                   for d, p, v1, v2 in draws]
        composed = []

        def run() -> None:
            for cfg, v1, v2 in configs:
                m = modulator.modulator_mueller(v1, v2, cfg)
                composed.append(polarization.apply_mueller(m, H_IN))

        def check() -> list[str]:
            closed = [modulator.output_stokes(v1, v2, cfg) for cfg, v1, v2 in configs]
            return checks.check_mueller(np.array(composed), np.array(closed))

        return Op("mueller", len(configs), run, check)


WORKLOADS = {cls.name: cls for cls in
             (McCrosscheck, McDarkUplink, RateDesign, ModulatorCharacterization)}
