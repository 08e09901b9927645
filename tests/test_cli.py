import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ipmsim
from ipmsim import cli, decoy
from ipmsim.bounds import BoundError
from ipmsim.cli import (
    _COMMANDS,
    _READ_BYTES,
    _WRITE_ROWS,
    RATE_COLUMNS,
    _null_z,
    _read_blocks,
    _write_outputs,
    _write_rows,
    build_parser,
    main,
)
from ipmsim.decoy import DECOY_GAP, ChannelParams, ProtocolParams
from ipmsim.modulator import (
    BB84_DRIVE_FRACTIONS,
    RECEIVER_FRAME,
    ModulatorConfig,
    bb84_table,
    modulator_mueller,
    poincare_trace,
    wavelength_scan,
)
from ipmsim.montecarlo import STATES, RateEstimate
from ipmsim.polarimetry import InconsistentProjectionsWarning, extract_stokes
from ipmsim.polarization import apply_mueller, degree_of_polarization
from ipmsim.scenario import (
    _SECTIONS,
    ParameterError,
    Scenario,
    ScenarioError,
    SweepSpec,
    load_scenario,
    resolved_dict,
    scenario_from_dict,
)

from helpers import BB84_TARGET_STOKES, _rate_row, bitwise_equal, oracle_read_csv, sweep_points
from helpers import _write_csv as rowwise_write_csv


def write_table(path, header, columns):
    """A CSV table written as every command writes one: through ``open_output`` and ``_write_rows``."""
    with _write_outputs(path) as open_output:
        _write_rows(open_output("", header), columns)


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def strict_json(text):
    """Parse JSON that must hold no NaN or Infinity, which the JSON grammar lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@st.composite
def decoy_pairs(draw):
    """(mu, nu) at the edges of the decoy order: nu = mu, nu at the least gap and their float
    neighbours, or a subnormal or huge nu."""
    mu = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    edge = mu * (1 - DECOY_GAP)
    near = st.sampled_from([mu, math.nextafter(mu, 0.0), math.nextafter(mu, 1.0), edge,
                            math.nextafter(edge, 0.0), math.nextafter(edge, 1.0), 1e200])
    return mu, draw(near | st.floats(5e-324, 2.2e-308) | st.floats(5e-324, 1e200))


def read_table(path, columns):
    """The blocks ``_read_blocks`` yields, concatenated: the whole table."""
    return np.concatenate(list(_read_blocks(path, columns)))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestScenario:
    def test_defaults_without_file(self):
        scn = load_scenario(None)
        assert scn.protocol.mu == 0.6
        assert scn.channel.total_loss_db == 45.0
        assert scn.sweep.stop_db == 70.0

    def test_partial_override(self, tmp_path):
        path = write_scenario(tmp_path, {"channel": {"total_loss_db": 30.0}})
        scn = load_scenario(path)
        assert scn.channel.total_loss_db == 30.0
        assert scn.channel.detector_efficiency == 0.6

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'chanel'"):
            scenario_from_dict({"chanel": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ScenarioError, match="channel.total_los_db"):
            scenario_from_dict({"channel": {"total_los_db": 10}})

    def test_physical_precondition_is_parameter_error(self):
        with pytest.raises(ParameterError, match="nu < mu"):
            scenario_from_dict({"protocol": {"mu": 0.1, "nu": 0.2}})

    @settings(max_examples=300, deadline=None)
    @given(decoy_pairs())
    @example((0.6, 0.6))
    @example((0.6, math.nextafter(0.6, 0.0)))
    @example((0.6, math.nextafter(0.6, 1.0)))
    @example((0.6, 5e-324))
    @example((0.4, 5e-324))       # 0.4 nu rounds to 0
    @example((1e-300, 1e-301))    # mu nu underflows to 0
    @example((0.6, 1e200))        # nu**2 would overflow
    @example((0.4925396286408898, 0.4925396286408898))   # mu nu - nu**2 is 2.8e-17 here
    @example((0.6, 0.6 * (1 - DECOY_GAP)))                 # the least accepted gap
    @example((0.6, math.nextafter(0.6 * (1 - DECOY_GAP), 1.0)))
    def test_decoy_order_is_one_rule_naming_nu(self, pair):
        mu, nu = pair
        # the least relative gap in floating point (it implies nu < mu), mu nu - nu^2 not
        # underflowing, and q1_lower's factor finite (a subnormal nu overflows it)
        accepted = (nu <= mu * (1 - DECOY_GAP) and mu * nu - nu**2 > 0
                    and math.isfinite(mu**2 * math.exp(-mu) / (mu * nu - nu**2)))
        try:
            ProtocolParams(mu=mu, nu=nu)
            assert accepted
        except BoundError as exc:
            assert not accepted and exc.field == "nu"
        try:
            scenario_from_dict({"protocol": {"mu": mu, "nu": nu}})
            assert accepted
        except ScenarioError as exc:
            assert not accepted and exc.field_path == "protocol.nu"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("depth", [1000, 100000])
    def test_nesting_past_the_recursion_limit_exits_2(self, tmp_path, capsys, depth):
        # valid JSON, but json.loads raised RecursionError here, a traceback and exit status 1
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        assert main(["keyrate", "--scenario", str(path), "--out", str(tmp_path / "rate.csv")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["field"] is None and record["error"].startswith(f"scenario file {path} nests too deeply: ")
        assert list(tmp_path.iterdir()) == [path]

    def test_root_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, [])
        assert main(["keyrate", "--scenario", str(scn), "--out", str(tmp_path / "rate.csv")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "scenario root must be an object", "field": None}
        assert not (tmp_path / "rate.csv").exists()

    def test_resolved_dict_expands_all_defaults(self):
        resolved = resolved_dict(Scenario())
        assert set(resolved) == {"modulator", "protocol", "channel", "sim", "sweep"}
        assert resolved["protocol"]["mu"] == 0.6
        assert resolved["channel"]["gate_window"] == 1e-10
        assert resolved["modulator"]["v_pi_pm"] == 4.0

    def test_sweep_grid_construction(self):
        scn = scenario_from_dict({"sweep": {"start_db": 1.0, "stop_db": 2.0, "step_db": 0.5}})
        assert scn.sweep.grid().tolist() == [1.0, 1.5, 2.0]

    def test_grid_is_the_python_float_grid(self):
        spec = SweepSpec(start_db=0.3, stop_db=80.0, step_db=0.01)
        assert spec.grid().tolist() == [0.3 + i * 0.01 for i in range(7971)]

    @pytest.mark.parametrize(
        "sweep", [{"stop_db": 1e7, "step_db": 1.0}, {"stop_db": 70.0, "step_db": 1e-300},
                  {"stop_db": 1e308, "step_db": 1e-308}]
    )
    def test_grid_over_ten_million_points_is_a_parameter_error(self, sweep, tmp_path, capsys):
        SweepSpec(stop_db=1e7 - 1, step_db=1.0)   # exactly 10^7 points
        scn = write_scenario(tmp_path, {"sweep": sweep})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", str(scn), "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["field"] == "sweep"
        assert "at most 10000000 points" in record["error"]
        assert not out.exists()

    def test_collapsing_grid_flag_is_a_usage_error(self, tmp_path, capsys):
        # 10^6 + k 1e-12 rounds to a few floats: the grid's points collapse
        assert main(["sweep", "--grid", "1e6:1000000.000001:1e-12", "--out", str(tmp_path / "s.csv")]) == 2
        assert "'step_db' must exceed" in json.loads(capsys.readouterr().err)["error"]

    def test_overflowing_grid_flag_is_a_usage_error(self, tmp_path, capsys):
        # 0, 1e308, 2e308: the last point passes the float range
        assert main(["sweep", "--grid", "0:1.7e308:1e308", "--out", str(tmp_path / "s.csv")]) == 2
        assert "'step_db' must keep the last grid point" in json.loads(capsys.readouterr().err)["error"]

    def test_grid_whose_top_plus_step_overflows_loads(self):
        assert SweepSpec(stop_db=1.7e308, step_db=1.7e308).grid().tolist() == [0.0, 1.7e308]

    def test_integer_fields_give_the_float_grid(self):
        # an int step past int64 raised OverflowError, and 2**62 wrapped the grid's last point to -2**63
        assert SweepSpec(step_db=2**64).grid().tolist() == [0.0]
        assert SweepSpec(start_db=0, stop_db=2**63, step_db=2**62).grid().tolist() == [0.0, 2.0**62, 2.0**63]

    def test_step_at_the_top_of_the_float_range_loads(self):
        # the spacing rule read the spacing at stop_db + step_db, inf at the float range's top
        assert SweepSpec(step_db=sys.float_info.max).grid().tolist() == [0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e300), st.floats(0.5, 64.0), st.integers(1, 1000))
    def test_an_accepted_grid_strictly_increases(self, stop, spacings, points):
        # steps of a few float spacings at the grid's top, the edge of the rule
        step = spacings * float(np.spacing(stop))
        with contextlib.suppress(ParameterError):
            spec = scenario_from_dict({"sweep": {"start_db": max(stop - points * step, 0.0),
                                                 "stop_db": stop, "step_db": step}}).sweep
            grid = spec.grid()
            assert np.all(grid[1:] > grid[:-1])


NO_FLOAT = 10**400   # a JSON integer that no float can hold
ALL_VACUUM = {"protocol": {"p_signal": 0, "p_decoy": 0, "p_vacuum": 1}}
OVERFLOWING_GRID = {"sweep": {"start_db": 0, "stop_db": 1.7e308, "step_db": 1e308}}

# the probes that reached a traceback, a nan rate or an unchecked section
PROBES = [
    ("keyrate", {"protocol": {"f_ec": float("nan")}}, 3, "protocol.f_ec"),
    ("keyrate", {"channel": {"num_detectors": 2.5}}, 2, "channel.num_detectors"),
    ("keyrate", {"channel": {"num_detectors": True}}, 2, "channel.num_detectors"),
    ("keyrate", {"channel": {"total_loss_db": float("inf")}}, 3, "channel.total_loss_db"),
    ("keyrate", {"channel": {"num_detectors": NO_FLOAT}}, 3, "channel.num_detectors"),
    ("keyrate", {"channel": {"total_loss_db": NO_FLOAT}}, 3, "channel.total_loss_db"),
    ("states", {"modulator": {"delta": NO_FLOAT}}, 3, "modulator.delta"),
    ("sweep", {"sweep": {"stop_db": NO_FLOAT}}, 3, "sweep.stop_db"),
    ("mc", {"sim": {"n_pulses": 1000.5}}, 2, "sim.n_pulses"),
    ("mc", {"sim": {"seed": 1.5}}, 2, "sim.seed"),
    ("mc", {"sim": {"n_pulses": [1]}}, 2, "sim.n_pulses"),
    ("keyrate", {"modulator": {"phi0_operating": "pi/4"}}, 2, "modulator.phi0_operating"),
    # a single-field range check names its key
    ("keyrate", {"sim": {"n_pulses": -5}}, 3, "sim.n_pulses"),
    ("sweep", {"sweep": {"start_db": -5}}, 3, "sweep.start_db"),
    # a geometric operating phase past the float range wrote nan trace rows
    ("trace", {"modulator": {"phi0_operating": None, "delta_l": 1e305}}, 3, "modulator.phi0_operating"),
    ("states", {"modulator": {"phi0_operating": None, "delta_l": 1e305}}, 3, "modulator.phi0_operating"),
    ("trace", {"modulator": {"temp_coeff": 1e200, "temp_delta": 1e200}}, 3, "modulator.phi0_operating"),
    # the default +-1.2 nm scan crossed 0 nm
    ("scan", {"modulator": {"wavelength": 1e-9}}, 3, "modulator.wavelength"),
    ("trace", {"modulator": {"phi0_operating": None, "delta_l": 1e305, "wavelength": 1e-9}}, 3,
     "modulator.wavelength"),
    # a geometric scan phase past the float range wrote nan scan rows with exit 0, then named no field
    ("scan", {"modulator": {"delta_l": 1e303}}, 3, "modulator.delta_l"),
    ("fitdl", {"modulator": {"delta_l": 1e303}}, 3, "modulator.delta_l"),
    # the intensity-modulator fields left with the model no command ran
    ("states", {"modulator": {"v_pi_im": 4.0}}, 2, "modulator.v_pi_im"),
    ("states", {"modulator": {"mod_depth": 1.0}}, 2, "modulator.mod_depth"),
    ("states", {"modulator": {"phi_1": 0.0}}, 2, "modulator.phi_1"),
    # an underflowing mu*nu - nu^2 passed load: keyrate exited 3 naming no field, mc exited 0
    ("keyrate", {"protocol": {"mu": 1e-300, "nu": 1e-301}}, 3, "protocol.nu"),
    ("mc", {"protocol": {"mu": 1e-300, "nu": 1e-301}}, 3, "protocol.nu"),
    # the decoy order named the section; a collapsing step named no field
    ("keyrate", {"protocol": {"mu": 0.5, "nu": 0.5}}, 3, "protocol.nu"),
    ("sweep", {"sweep": {"start_db": 1e6, "stop_db": 1000000.000001, "step_db": 1e-12}}, 3, "sweep.step_db"),
    # an all-vacuum allocation passed load: keyrate exited 3 naming no field, mc exited 0 with nan
    ("keyrate", ALL_VACUUM, 3, "protocol"),
    ("mc", ALL_VACUUM, 3, "protocol"),
    # a grid whose last point overflows wrote an inf loss row with exit 0
    ("sweep", OVERFLOWING_GRID, 3, "sweep.step_db"),
    # (1 - p_d)^n rounded far enough that the cells summed past 1 + 1e-12: mc exited 3 naming no field
    ("mc", {"protocol": {"p_signal": 0.5, "p_decoy": 0.5, "p_vacuum": 0}, "channel": {"num_detectors": 536776045}},
     3, "channel.num_detectors"),
    # a subnormal nu overflowed q1_lower's factor: keyrate and sweep wrote a nan Q1L with exit 0
    *((command, {"protocol": {"nu": nu}}, 3, "protocol.nu") for nu in (5e-324, 1e-310)
      for command in ("keyrate", "sweep", "mc")),
    # a splitter offset whose 2 delta overflows: trace wrote nan rows with exit 0, states named no field
    ("trace", {"modulator": {"delta": 1e308}}, 3, "modulator.delta"),
    ("states", {"modulator": {"delta": -1e308}}, 3, "modulator.delta"),
    # a wavelength whose default scan prints fewer than 1201 distinct points, or inf: scan exited 0
    ("scan", {"modulator": {"wavelength": 1e-3}}, 3, "modulator.wavelength"),
    ("fitdl", {"modulator": {"wavelength": 1e300}}, 3, "modulator.wavelength"),
    # a range check names its key; a decoy within 1e-5 of the signal breaks the decoy order
    ("keyrate", {"channel": {"detector_efficiency": 0}}, 3, "channel.detector_efficiency"),
    ("keyrate", {"protocol": {"mu": 0.6, "nu": 0.599999}}, 3, "protocol.nu"),
    # a v_pi_pm below 2^-1014 makes the smallest drive voltage subnormal: at 1e-320 states exited 0
    # with H at S1 = 0.999999985
    *((command, {"modulator": {"v_pi_pm": float(np.nextafter(2.0**-1014, 0))}}, 3, "modulator.v_pi_pm")
      for command in ("states", "trace")),
]

SECTION_KEYS = resolved_dict(Scenario())   # section -> key -> default
ODD_VALUES = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), NO_FLOAT, -NO_FLOAT, 2**64, 1e308, 0, -1, True]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.integers() | st.floats() | ODD_VALUES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def near_default(default):
    """The field's default or a number of its type, most of them in range."""
    return st.just(default) | (st.integers(-1, 8) if type(default) is int else st.floats(0.0, 1.0))


@st.composite
def scenario_trees(draw):
    """Sections of numbers near the defaults, plus one odd entry.

    The odd entry is a value of any JSON type under a known or unknown key,
    or an unknown or known section holding any JSON value.
    """
    tree = {}
    for name in draw(st.lists(st.sampled_from(list(SECTION_KEYS)), unique=True, max_size=3)):
        keys = draw(st.lists(st.sampled_from(list(SECTION_KEYS[name])), unique=True, max_size=4))
        tree[name] = {key: draw(near_default(SECTION_KEYS[name][key])) for key in keys}
    name = draw(st.sampled_from([*SECTION_KEYS, "bogus"]))
    if name in SECTION_KEYS and draw(st.booleans()):
        key = draw(st.sampled_from([*SECTION_KEYS[name], "bogus"]))
        tree.setdefault(name, {})[key] = draw(ODD_VALUES | JSON_VALUES)
    else:
        tree[name] = draw(JSON_VALUES)
    return tree


@st.composite
def command_trees(draw):
    """A command and a scenario tree; mc gets a small sim section that runs in ms."""
    command = draw(st.sampled_from(["keyrate", "states", "mc"]))
    tree = draw(scenario_trees())
    if command == "mc":
        n = draw(st.integers(1, 10**5))
        tree["sim"] = {"n_pulses": n, "chunk_pulses": draw(st.integers(1, n))}
    return command, tree


@st.composite
def allocations(draw):
    """(p_signal, p_decoy, p_vacuum): shares, zeros among them, summing to 1 up to a slack of 1e-9."""
    weights = [draw(st.floats(0.0, 1.0) | st.floats(0.0, 1.0) | st.just(0.0)) for _ in range(3)]
    total = sum(weights)
    shares = [w / total for w in weights] if total > 0 else [0.0, 0.0, 1.0]
    slack = draw(st.sampled_from([0.0, 1e-9, -1e-9, 9e-10, -9e-10]) | st.floats(-1e-9, 1e-9))
    shares[draw(st.integers(0, 2))] += slack
    return dict(zip(("p_signal", "p_decoy", "p_vacuum"), shares))


@st.composite
def runnable_trees(draw):
    """Protocol, channel, sim and sweep sections with every value inside its declared bound.

    nu is mu times a draw from (0, 1], so that the decoy order mostly holds.
    A sweep grid holds at most about 200 points: that keeps the runtime
    down and hides nothing, as no grid rule depends on the grid's length.
    """
    tree = {
        section: {f.name: draw(st.just(f.default) | within_bounds(f.metadata, f.type == "int"))
                  for f in dataclasses.fields(_SECTIONS[section]) if f.metadata}
        for section in ("protocol", "channel", "sim")
    }
    tree["protocol"]["nu"] = tree["protocol"]["mu"] * draw(st.floats(0.0, 1.0, exclude_min=True))
    tree["protocol"].update(draw(allocations()))
    start = draw(st.just(0.0) | within_bounds({"ge": 0}, False))
    step = draw(within_bounds({"gt": 0}, False))
    # stop may overflow to inf, which load refuses
    tree["sweep"] = {"start_db": start, "stop_db": start + draw(st.floats(0.0, 199.0)) * step, "step_db": step}
    return tree


# (section, key, bounds, is_int) for every section field that declares a bound
BOUNDED_FIELDS = [
    (section, f.name, dict(f.metadata), f.type == "int")
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.metadata
]
FINITE = {"allow_nan": False, "allow_infinity": False}


def past_bound(comparison, bound, is_int):
    """Values that fail one bound, the nearest one first."""
    below = comparison in ("gt", "ge")   # the failing side lies below the bound
    strict = comparison in ("gt", "lt")  # the bound itself fails
    if is_int:
        edge = bound if strict else bound - 1 if below else bound + 1
        return st.just(edge) | (st.integers(max_value=edge) if below else st.integers(min_value=edge))
    edge = bound if strict else float(np.nextafter(bound, -np.inf if below else np.inf))
    if below:
        return st.just(edge) | st.floats(max_value=bound, exclude_max=not strict, **FINITE)
    return st.just(edge) | st.floats(min_value=bound, exclude_min=not strict, **FINITE)


def within_bounds(bounds, is_int):
    """Values that meet every bound of one field, its edges included."""
    if is_int:   # int fields are int64 counts and seeds
        low = bounds["gt"] + 1 if "gt" in bounds else bounds.get("ge")
        high = bounds["lt"] - 1 if "lt" in bounds else bounds.get("le", 2**63 - 1)
        return st.integers(low, high)
    low, high = bounds.get("gt", bounds.get("ge")), bounds.get("lt", bounds.get("le"))
    return st.floats(low, high, exclude_min="gt" in bounds, exclude_max="lt" in bounds, **FINITE)


def run_main(argv):
    """Exit status and stderr of one in-process CLI run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    return status, err.getvalue()


def run_scenario(command, tree):
    """``run_main`` of one command on a scenario tree, in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "scenario.json"
        scn.write_text(json.dumps(tree))
        return run_main([command, "--scenario", str(scn), "--out", str(Path(tmp) / "out")])


def run_section(section, key, value):
    """``run_scenario`` of the command that reads the section; keyrate loads sim and sweep."""
    return run_scenario("states" if section == "modulator" else "keyrate", {section: {key: value}})


def assert_json_stderr(status, err):
    """The CLI contract: exit 0, 2 or 3, stderr only JSON records, an error record on failure."""
    assert status in (0, 2, 3)
    assert "Traceback" not in err
    records = [json.loads(line) for line in err.splitlines()]
    assert all(isinstance(r, dict) for r in records)
    assert (status != 0) == ("error" in (records[-1] if records else {}))
    return records


class TestInputBoundary:
    @pytest.mark.parametrize("command, data, status, field", PROBES)
    def test_bad_value_is_one_record_naming_its_field(self, command, data, status, field,
                                                      tmp_path, capsys):
        scn = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scn), "--out", str(out)]) == status
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert json.loads(err)["field"] == field
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(scenario_trees())
    def test_random_trees_raise_only_scenario_errors(self, tree):
        with contextlib.suppress(ScenarioError):   # ParameterError included
            scenario_from_dict(tree)

    @settings(max_examples=150, deadline=None)
    @given(command_trees())
    def test_random_trees_exit_0_2_or_3_with_json_stderr(self, command_tree):
        assert_json_stderr(*run_scenario(*command_tree))

    @settings(max_examples=300, deadline=None)
    @given(runnable_trees())
    @example(ALL_VACUUM)
    @example({"protocol": {"p_signal": 0.7500000009, "p_decoy": 0.25, "p_vacuum": 0}})   # sum 1 + 9e-10
    @example({"protocol": {"p_signal": 0.7500000009, "p_decoy": 0.25, "p_vacuum": 0}, "sim": {"n_pulses": 10**6}})
    @example(OVERFLOWING_GRID)
    def test_a_scenario_that_loads_runs_keyrate_sweep_and_mc(self, tree):
        try:
            scenario_from_dict(tree)
        except ScenarioError:   # ParameterError included
            return
        for command in ("keyrate", "sweep", "mc"):
            status, err = run_scenario(command, tree)
            assert status == 0, f"{command}: {err}"
            assert all("warning" in json.loads(line) for line in err.splitlines()), err

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BOUNDED_FIELDS), st.data())
    def test_value_past_a_declared_bound_exits_3_naming_its_key(self, bounded, data):
        section, key, bounds, is_int = bounded
        comparison, bound = data.draw(st.sampled_from(sorted(bounds.items())))
        status, err = run_section(section, key, data.draw(past_bound(comparison, bound, is_int)))
        assert status == 3
        assert json.loads(err)["field"] == f"{section}.{key}"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BOUNDED_FIELDS), st.data())
    def test_value_within_its_bounds_exits_0_or_fails_a_cross_field_rule(self, bounded, data):
        section, key, bounds, is_int = bounded
        status, err = run_section(section, key, data.draw(within_bounds(bounds, is_int)))
        records = assert_json_stderr(status, err)
        if status != 0:   # the decoy order names protocol.nu, the other rules their section
            assert status == 3 and records[-1]["field"] in (section, "protocol.nu")

    @pytest.mark.parametrize("command", ["states", "trace"])
    def test_smallest_v_pi_pm_gives_the_stokes_of_the_default(self, command, tmp_path):
        # at 2^-1014 the smallest drive voltage, v_pi_pm / 256, is still a normal float
        small, default = ModulatorConfig(v_pi_pm=2.0**-1014), ModulatorConfig()
        stokes = {"states": lambda cfg: bb84_table(cfg)[1], "trace": lambda cfg: poincare_trace(cfg)[3]}[command]
        assert bitwise_equal(stokes(small), stokes(default))
        tables = []
        for cfg in (small, default):
            out = tmp_path / f"{cfg.v_pi_pm}.csv"
            scn = write_scenario(tmp_path, {"modulator": {"v_pi_pm": cfg.v_pi_pm}})
            assert main([command, "--scenario", str(scn), "--out", str(out)]) == 0
            header, rows = read_csv(out)
            tables.append([[cell for name, cell in zip(header, row) if name.startswith("S")] for row in rows])
        assert tables[0] == tables[1]


# values each flag accepts, and values that no flag accepts
FUZZ_VALUES = {
    "--scenario": ["s.json", "bad.json"],
    "--out": ["out.csv"],
    "--grid": ["1549:1551:0.01", "0:80:1"],
    "--in": ["proj.csv", "scan.csv"],
    "--seed": ["1", "0"],
    "--workers": ["1", "2"],
    "--bogus": ["1"],
}
ANY_VALUE = st.sampled_from(
    ["absent.json", ".", "sub/x.csv", "-5:10:1", "5:1:1", "0:1:0", "nan:1:1", "0:1", "-1",
     "18446744073709551616", "two"]
) | st.text("0123456789.:-", max_size=8)


# the flags each command reads besides --out, and besides --scenario on the
# commands whose _COMMANDS entry lists scenario sections
OWN_FLAGS = {"sweep": ["--grid"], "scan": ["--grid"], "fitdl": ["--grid", "--in"],
             "polarimetry": ["--in"], "mc": ["--seed", "--workers"]}


@st.composite
def argv_lists(draw):
    """A command (or a bogus one) and up to four flags, each with a value or none.

    Most flags are ones the command reads and most values are typical of their
    flag, so that many runs get past the parser.
    """
    command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    own = st.sampled_from(["--scenario", "--out", *OWN_FLAGS.get(command, [])])
    argv = [command]
    for flag in draw(st.lists(own | own | st.sampled_from(list(FUZZ_VALUES)), max_size=4)):
        typical = st.sampled_from(FUZZ_VALUES[flag])
        value = draw(typical | typical | ANY_VALUE | st.none())
        argv += [flag] if value is None else [flag, value]
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv_lists())
    def test_random_argv_exits_0_2_or_3_with_json_stderr(self, argv):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)    # relative --out values and the default outputs land here
            try:
                Path("s.json").write_text(json.dumps({"sim": {"n_pulses": 10**5, "seed": 1}}))
                Path("bad.json").write_text(json.dumps({"channel": {"detector_efficiency": 0}}))
                Path("proj.csv").write_text("i1,i2,i3,s0\n1.0,0.5,0.5,1.0\n")
                run_main(["scan", "--out", "scan.csv"])
                assert_json_stderr(*run_main(argv))
            finally:
                os.chdir(cwd)


class TestStatesCommand:
    def test_outputs_table_matching_targets(self, tmp_path, capsys):
        out = tmp_path / "states.csv"
        assert main(["states", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "state", "v0", "v1", "v2", "S0", "S1", "S2", "S3",
            "S1_meas", "S2_meas", "S3_meas",
        ]
        assert [r[0] for r in rows] == list(STATES)
        for row in rows:
            target = BB84_TARGET_STOKES[row[0]]
            got = np.array([float(x) for x in row[4:8]])
            np.testing.assert_allclose(got, target, atol=1e-12)
            assert float(row[2]) + float(row[3]) == 0.0
        assert "states" in capsys.readouterr().out

    def test_measured_columns_show_waveplate_leakage(self, tmp_path):
        # default receiver retardance is 7% off the quarter wave, so the
        # recovered S3 of the D state leaks cos(0.93 pi/2) from its S2
        out = tmp_path / "states.csv"
        main(["states", "--out", str(out)])
        _, rows = read_csv(out)
        d_row = next(r for r in rows if r[0] == "D")
        assert float(d_row[8]) == pytest.approx(0.0, abs=1e-12)       # S1 exact
        assert float(d_row[9]) == pytest.approx(1.0, abs=1e-12)       # S2 exact
        assert float(d_row[10]) == pytest.approx(np.cos(0.93 * np.pi / 2), abs=1e-9)

    def test_splitter_offset_gives_the_physical_receiver_frame_states(self, tmp_path, capsys):
        # at delta = 0.3 the receiver sees the element pipeline's output
        # through the half-wave plate at 22.5 deg; through the default
        # waveplate the A state's S3 leakage lifts its recovered DOP past 1.05,
        # which the CLI reports as one JSON warning record on stderr
        scn = write_scenario(tmp_path, {"modulator": {"delta": 0.3}})
        cfg = load_scenario(scn).modulator
        out = tmp_path / "states.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no Python warning escapes main
            assert main(["states", "--scenario", str(scn), "--out", str(out)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{
            "warning": "recovered DOP 1.0517 exceeds 1: projections are inconsistent",
            "category": InconsistentProjectionsWarning.__name__,
        }]
        _, rows = read_csv(out)
        h_in = np.array([1.0, 1.0, 0.0, 0.0])
        for row, (v1, v2) in zip(rows, BB84_DRIVE_FRACTIONS * cfg.v_pi_pm):
            want = RECEIVER_FRAME @ apply_mueller(modulator_mueller(v1, v2, cfg), h_in)
            got = np.array([float(x) for x in row[4:]])
            np.testing.assert_allclose(got[:4], want, rtol=1e-8, atol=1e-12)
            d = cfg.qwp_retardance
            leaked = [want[1], want[2], want[3] * np.sin(d) + want[2] * np.cos(d)]
            np.testing.assert_allclose(got[4:], leaked, rtol=1e-8, atol=1e-12)
        h = np.array([float(x) for x in rows[0][4:8]])
        np.testing.assert_allclose(h, [1, np.cos(0.6), 0, -np.sin(0.6)], atol=1e-12)

    def test_sidecar_written(self, tmp_path):
        out = tmp_path / "states.csv"
        main(["states", "--out", str(out)])
        sidecar = json.loads((tmp_path / "states.csv.params.json").read_text())
        assert sidecar["command"] == "states"
        assert sidecar["parameters"]["modulator"]["v_pi_pm"] == 4.0


SIDECAR_SECTIONS = {
    "states": {"modulator"},
    "trace": {"modulator"},
    "scan": {"modulator"},
    "fitdl": {"modulator"},
    "polarimetry": set(),
    "keyrate": {"protocol", "channel"},
    "sweep": {"protocol", "channel", "sweep"},
    "mc": {"protocol", "channel", "sim"},
}


class TestSidecars:
    @pytest.mark.parametrize("command", list(SIDECAR_SECTIONS))
    def test_sidecar_records_only_the_sections_its_command_reads(self, command, tmp_path):
        proj = tmp_path / "proj.csv"
        proj.write_text("i1,i2,i3,s0\n1.0,0.5,0.5,1.0\n")
        run = tmp_path / "run"
        run.mkdir()
        argv = [command, "--in", str(proj)] if command == "polarimetry" else [command]
        argv += ["--out", str(run / "out")]
        # the handler writes only through the writer it is given, and main writes the sidecar
        written = []

        def open_output(suffix, header=()):   # records the file and writes it to memory
            written.append(suffix)
            return io.StringIO()

        _COMMANDS[command][0](build_parser().parse_args(argv), Scenario(), open_output)
        assert not any(run.iterdir())
        assert main(argv) == 0
        # the data file, mc's report, and the sidecar: nothing else
        suffixes = ["", ".report.csv"] if command == "mc" else [""]
        assert written == suffixes
        assert sorted(p.name for p in run.iterdir()) == sorted(f"out{s}" for s in [*suffixes, ".params.json"])
        sidecar = strict_json((run / "out.params.json").read_text())
        if command == "mc":
            strict_json((run / "out").read_text())
        sections = SIDECAR_SECTIONS[command]
        assert sidecar["command"] == command
        assert sidecar["parameters"] == resolved_dict(Scenario(), sorted(sections))
        assert set(sidecar["parameters"]) == sections


class TestTraceCommand:
    def test_trace_csv_is_equatorial_great_circle(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "v1", "v2", "S0", "S1", "S2", "S3"]
        s3 = np.array([float(r[6]) for r in rows])
        assert np.max(np.abs(s3)) <= 1e-12

    def test_no_cell_reads_minus_zero(self, tmp_path):
        # the push-pull drive crosses 0 V four times, where v2 = -v1 is -0.0; at delta -0.0
        # every S3 = sin(2 delta) is -0.0, and keyrate echoes a -0.0 loss as loss_db
        for command, data in [("trace", {}), ("trace", {"modulator": {"delta": -0.0}}),
                              ("keyrate", {"channel": {"total_loss_db": -0.0}})]:
            out = tmp_path / f"{command}.csv"
            assert main([command, "--scenario", str(write_scenario(tmp_path, data)), "--out", str(out)]) == 0
            _, rows = read_csv(out)
            if command == "trace":
                assert [row[0] for row in rows if row[2] == "0"] == ["0", "0.5", "1", "1.5"]
            assert "-0" not in {cell for row in rows for cell in row}


class TestScanAndFit:
    def test_scan_then_fit_round_trip(self, tmp_path):
        scan_out = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(scan_out)]) == 0
        header, rows = read_csv(scan_out)
        assert header == ["wavelength_nm", "intensity"]
        assert len(rows) == 1201

        fit_out = tmp_path / "fit.csv"
        assert main(["fitdl", "--in", str(scan_out), "--out", str(fit_out)]) == 0
        _, fit_rows = read_csv(fit_out)
        delta_l = float(fit_rows[0][0])
        assert abs(delta_l - 6.0e-3) / 6.0e-3 < 1e-3

    def test_fitdl_synthesizes_without_input(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert main(["fitdl", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert abs(float(rows[0][0]) - 6.0e-3) / 6.0e-3 < 1e-3

    def test_default_scan_at_the_wavelength_bound_starts_above_zero(self, tmp_path):
        scn = write_scenario(tmp_path, {"modulator": {"wavelength": float(np.nextafter(1.2e-9, 1.0))}})
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", str(scn), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][0]) > 0

    def test_default_scan_at_the_largest_wavelength_prints_distinct_points(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        scn = write_scenario(tmp_path, {"modulator": {"wavelength": 1e-4}})
        assert main(["scan", "--scenario", str(scn), "--out", str(out)]) == 0
        printed = [float(row[0]) for row in read_csv(out)[1]]
        assert len(printed) == 1201 and all(a < b for a, b in zip(printed, printed[1:]))
        scn = write_scenario(tmp_path, {"modulator": {"wavelength": float(np.nextafter(1e-4, 1.0))}})
        assert main(["scan", "--scenario", str(scn), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["field"] == "modulator.wavelength"

    @pytest.mark.parametrize("wavelength", [1550e-9, 632.8e-9, 1.2000000000000002e-9, 5e-5, 1e-4])
    def test_default_scan_is_the_grid_around_the_wavelength(self, wavelength, tmp_path):
        scn = write_scenario(tmp_path, {"modulator": {"wavelength": wavelength}})
        nm = wavelength * 1e9
        default, grid = tmp_path / "default.csv", tmp_path / "grid.csv"
        assert main(["scan", "--scenario", str(scn), "--out", str(default)]) == 0
        assert main(["scan", "--scenario", str(scn), f"--grid={nm - 1.2!r}:{nm + 1.2!r}:0.002", "--out", str(grid)]) == 0
        assert default.read_bytes() == grid.read_bytes()

    def test_singular_normal_equations_are_named(self, tmp_path, capsys):
        # the scan's first point lies at 2.2e-16 nm, so every other point sits at one end of the fit's axis
        scn = write_scenario(tmp_path, {"modulator": {"wavelength": 1.2000000000000002e-9}})
        assert main(["scan", "--scenario", str(scn), "--out", str(tmp_path / "scan.csv")]) == 0
        capsys.readouterr()
        assert main(["fitdl", "--scenario", str(scn), "--out", str(tmp_path / "fit.csv")]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "the fit's normal equations are singular: the scan does not identify a fringe", "field": None}

    def test_scan_under_8_points_is_numerical_exit(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        assert main(["scan", "--grid", "1549:1549.006:0.001", "--out", str(scan)]) == 0
        assert len(read_csv(scan)[1]) == 7
        capsys.readouterr()
        assert main(["fitdl", "--in", str(scan), "--out", str(tmp_path / "fit.csv")]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "scan must be two equal-length 1-d arrays of at least 8 points", "field": None}

    def test_fit_failure_is_numerical_exit(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"modulator": {"delta_l": 1.5e-4}})
        out = tmp_path / "fit.csv"
        assert main(["fitdl", "--scenario", str(scn), "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert "period" in record["error"]

    @pytest.mark.parametrize(
        "column, edit, error",
        [
            (1, lambda c: np.where(np.arange(c.size) == 7, np.nan, c), "intensities must be finite"),
            (1, lambda c: np.where(np.arange(c.size) == 7, np.inf, c), "intensities must be finite"),
            (0, lambda c: np.where(np.arange(c.size) == 0, 0.0, c),
             "wavelengths must be finite and positive"),
            (0, lambda c: -c, "wavelengths must be finite and positive"),
            (1, lambda c: -c, r"fitted fringe offset -0\.5 must be positive"),
        ],
        ids=["nan-intensity", "inf-intensity", "zero-wavelength", "negative-wavelengths",
             "negated-intensities"],
    )
    def test_bad_scan_is_named_numerical_exit(self, tmp_path, capsys, column, edit, error):
        scan = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(scan)]) == 0
        data = read_table(scan, 2)
        data[:, column] = edit(data[:, column])
        write_table(scan, ("wavelength_nm", "intensity"), data.T)
        capsys.readouterr()
        assert main(["fitdl", "--in", str(scan), "--out", str(tmp_path / "fit.csv")]) == 3
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(records) == 1 and records[0]["field"] is None
        assert re.fullmatch(error, records[0]["error"])

    @pytest.mark.parametrize(
        "edit",
        [lambda c: c, lambda c: c * 1.05, lambda c: c * 0.9, lambda c: c + 0.03, lambda c: c * 3,
         lambda c: c * 1e-7, lambda c: c * 1e100, lambda c: c * 1e300,
         lambda c: (3 * c + 0.03).astype(str)],   # text cells are written verbatim: full precision
        ids=["unchanged", "times-1.05", "times-0.9", "plus-0.03", "times-3", "times-1e-7", "times-1e100",
             "times-1e300", "times-3-plus-0.03-at-full-precision"],
    )
    def test_scaled_or_offset_scan_fits_delta_l(self, tmp_path, capsys, edit):
        scan = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(scan)]) == 0
        data = read_table(scan, 2)
        write_table(scan, ("wavelength_nm", "intensity"), [data[:, 0], edit(data[:, 1])])
        capsys.readouterr()
        out = tmp_path / "fit.csv"
        assert main(["fitdl", "--in", str(scan), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert abs(float(rows[0][0]) / 6.0e-3 - 1) < 1e-9

    def test_in_with_grid_is_a_usage_error(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(scan)]) == 0
        capsys.readouterr()
        out = tmp_path / "fit.csv"
        assert main(["fitdl", "--in", str(scan), "--grid", "1549:1551:0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "not allowed with" in json.loads(err)["error"]
        assert not out.exists()

    def test_fitdl_runs_without_lstsq_or_argsort(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fitdl called lstsq or argsort")

        scan = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(scan)]) == 0
        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        monkeypatch.setattr(np, "argsort", forbidden)
        assert main(["fitdl", "--in", str(scan), "--out", str(tmp_path / "fit.csv")]) == 0

    def test_reversed_scan_gives_identical_bytes(self, tmp_path):
        scan, reversed_scan = tmp_path / "scan.csv", tmp_path / "reversed.csv"
        assert main(["scan", "--out", str(scan)]) == 0
        header, *rows = scan.read_text().splitlines()
        reversed_scan.write_text("\n".join([header, *rows[::-1]]) + "\n")
        for name in ("scan", "reversed"):
            assert main(["fitdl", "--in", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / f"{name}-fit.csv")]) == 0
        assert (tmp_path / "scan-fit.csv").read_bytes() == (tmp_path / "reversed-fit.csv").read_bytes()

    def test_grid_override_in_nanometers(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--out", str(out), "--grid", "1549:1551:0.01"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 201
        assert float(rows[0][0]) == pytest.approx(1549.0)

    @pytest.mark.parametrize("command", ["scan", "fitdl"])
    @pytest.mark.parametrize("start", ["0", "1e-320"], ids=["0-nm", "underflowing-to-0-m"])
    def test_grid_starting_at_0_m_is_a_usage_error(self, command, start, tmp_path, capsys, monkeypatch):
        # refused before the scan runs, where the 0 m wavelength exited 3
        monkeypatch.setattr(cli, "wavelength_scan", failing_on_call(1, cli.wavelength_scan, "the scan ran"))
        assert main([command, "--grid", f"{start}:1:0.5", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": f"ipmsim {command}: argument --grid: must start above 0 nm, got {float(start)!r}",
            "field": None,
        }
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("command", ["scan", "fitdl", "sweep"])
    @pytest.mark.parametrize("grid", ["1549.3:1551.1:0.0007", None], ids=["grid", "default"])
    def test_a_rerun_from_the_sidecar_writes_the_same_bytes(self, command, grid, tmp_path):
        scn = write_scenario(tmp_path, {"modulator": {"delta_l": 6.1e-3, "n_1": 1.47},
                                        "sweep": {"start_db": 40.0, "stop_db": 60.5, "step_db": 0.1}})
        first, rerun = tmp_path / "first.csv", tmp_path / "rerun.csv"
        grid_argv = ["--grid", grid] if grid else []
        assert main([command, "--scenario", str(scn), *grid_argv, "--out", str(first)]) == 0
        sidecar = strict_json((tmp_path / "first.csv.params.json").read_text())
        own = {"fitdl": ["input"], "sweep": ["threshold_db", "threshold_is_grid_edge"]}.get(command, [])
        assert set(sidecar) == {"command", "parameters", "grid", *own}
        assert sidecar["grid"] == (None if grid is None else "1549.3:1551.1:0.0007")
        again = write_scenario(tmp_path, sidecar["parameters"], name="again.json")
        grid_argv = ["--grid", sidecar["grid"]] if sidecar["grid"] is not None else []
        assert main([command, "--scenario", str(again), *grid_argv, "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == first.read_bytes()
        assert (tmp_path / "rerun.csv.params.json").read_bytes() == (tmp_path / "first.csv.params.json").read_bytes()


class TestScanBlocks:
    """scan --grid in the CLI's blocks against one whole-grid scan, at block edges."""

    B = _WRITE_ROWS

    @pytest.mark.parametrize("points", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_blocks_give_the_bytes_of_one_whole_grid_scan(self, points, tmp_path):
        spec = SweepSpec(1549.0, 1549.0 + (points - 1) * 0.001, 0.001)
        assert len(spec) == points
        lam = spec.grid() * 1e-9
        intensities = wavelength_scan(ModulatorConfig(), lam)
        grid = f"{spec.start_db!r}:{spec.stop_db!r}:{spec.step_db!r}"
        blocks = list(cli._synthetic_scan(build_parser().parse_args(["scan", "--grid", grid]), Scenario()))
        assert [len(block) for block, _ in blocks] == [min(self.B, points - i) for i in range(0, points, self.B)]
        assert bitwise_equal(np.concatenate([block for block, _ in blocks]), lam)
        assert bitwise_equal(np.concatenate([block for _, block in blocks]), intensities)
        out, whole = tmp_path / "scan.csv", tmp_path / "whole.csv"
        assert main(["scan", "--grid", grid, "--out", str(out)]) == 0
        rowwise_write_csv(whole, ("wavelength_nm", "intensity"), zip(lam * 1e9, intensities))
        assert out.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("command", ["scan", "fitdl"])
    def test_a_phase_overflow_in_a_later_block_names_delta_l(self, command, tmp_path, capsys, monkeypatch):
        # the phase falls with the wavelength, so a real overflow starts in the first block: fake one in the second
        def scan(cfg, lam):
            if lam[0] > 1550e-9:
                raise BoundError("delta_l", "must keep the scan phase within the float range")
            return wavelength_scan(cfg, lam)

        monkeypatch.setattr(cli, "wavelength_scan", scan)
        assert main([command, "--grid", "1549:1551:0.0001", "--out", str(tmp_path / "x.csv")]) == 3
        assert json.loads(capsys.readouterr().err)["field"] == "modulator.delta_l"
        assert not any(tmp_path.iterdir())


# cells of --in tables: floats as repr and %.9g, ints, and spellings float()
# accepts but numpy's C reader does not, each padded with ASCII or Unicode space
_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: "%.9g" % x),
    st.integers(-(10**20), 10**20).map(str),
)
_SPELLED_CELLS = st.sampled_from([
    "1_000", "-2_5.0_1e1_0", "\u0661\u0662\u0663", "\uff11.\uff15", "\u0663e\u0662",
    "nan", "-NaN", "+nAn", "inf", "-Infinity", "+iNfInItY", "INF", "-0", "-0.0", "1e500", ".5", "5.",
])
# \x1f pads a cell for numpy's C reader but not for float()
_PADS = st.sampled_from(["", " ", "\t", "  ", "\xa0", "\u3000", " \u2003", "\x1f"])
_TEXT_CELLS = st.sampled_from(
    ["", "x", "1__0", "_1", "1_", "0x10", "1 2", "--1", "infinit", "1e", "1#2", '"1"', "1\x00"]
)


def _padded(cells):
    return st.tuples(_PADS, cells, _PADS).map("".join)


@st.composite
def csv_tables(draw):
    """(file text, expected columns, blank lines above the header) of a random --in table."""
    columns = draw(st.sampled_from([2, 4]))
    cell = st.one_of(_NUMBER_CELLS, _padded(_NUMBER_CELLS), _padded(_SPELLED_CELLS))
    cells = st.lists(cell, min_size=columns, max_size=columns)
    rows = draw(st.lists(cells.map(",".join), max_size=6))
    bad_row = st.one_of(
        st.sampled_from(["", " ", "\t\u3000"]),
        cells.map(lambda c: ",".join(c) + ","),
        cells.map(lambda c: ",".join(c[1:])),
        st.tuples(cells, _padded(_TEXT_CELLS), st.integers(0, columns - 1)).map(
            lambda t: ",".join(t[0][: t[2]] + [t[1]] + t[0][t[2] + 1 :])
        ),
    )
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_row))
    leading = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    # a lone \r, \x85 and \u2028 end a line for str.splitlines as \n does
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"]))
    trailing = draw(st.sampled_from(["", newline, newline * 2, " ", newline + " \t" + newline]))
    return newline.join([*leading, "a,b", *rows]) + trailing, columns, len(leading)


class TestCsvInput:
    @pytest.mark.parametrize(
        "body, error",
        [
            ("", "input file {path} has no data rows"),
            ("1,2\n3\n", "{path}:3: expected 2 columns, got 1"),
            # the first offending line is named, whatever is wrong with a later one
            ("1,2\n1,x\n3\n", "{path}:3: could not convert string to float: 'x'"),
            ("1,2\n3,4,5\n1,x\n", "{path}:3: expected 2 columns, got 3"),
        ],
    )
    def test_malformed_input_names_the_line(self, tmp_path, capsys, body, error):
        infile = tmp_path / "scan.csv"
        infile.write_text("wavelength_nm,intensity\n" + body)
        assert main(["fitdl", "--in", str(infile), "--out", str(tmp_path / "fit.csv")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error.format(path=infile)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("\n\nwavelength_nm,intensity\n1,2\n1,x\n",
             "{path}:5: could not convert string to float: 'x'"),
            # a blank interior line is an error; whitespace-only lines above the header are not
            (" \n\t\nwavelength_nm,intensity\n1,2\n\n3,4\n", "{path}:5: expected 2 columns, got 1"),
        ],
    )
    def test_lines_count_from_the_top_of_the_file(self, tmp_path, capsys, text, error):
        infile = tmp_path / "scan.csv"
        infile.write_text(text)
        assert main(["fitdl", "--in", str(infile), "--out", str(tmp_path / "fit.csv")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error.format(path=infile)

    def test_values_parse_as_python_floats(self, tmp_path):
        infile = tmp_path / "in.csv"
        infile.write_text("a,b\n1_000, 2.5 \nnan,inf\n-Infinity,1e-3\n")
        np.testing.assert_array_equal(
            read_table(infile, 2), [[1000.0, 2.5], [np.nan, np.inf], [-np.inf, 1e-3]]
        )

    @settings(max_examples=400, deadline=None)
    @given(csv_tables())
    @example(("a,b\n1,2#3\n", 2, 0))
    # str.splitlines also ends lines at \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029,
    # where a reader that iterates the file's lines does not
    @example(("a,b\f1,2\n3,4\n", 2, 0))
    @example(("a,b\n1,2\f\n3,4", 2, 0))
    @example(("a,b\n1\f,2", 2, 0))
    @example(("a,b\r1,2\r3,4\r", 2, 0))
    @example(("a,b\n1,2\x853,4\n", 2, 0))
    @example(("a,b\u20281,2\n3,4", 2, 0))
    @example(("a,b\n1\x1f,2\n", 2, 0))
    @example(("a,b\n1,2\n\x1f3,4\n1_0,2\n", 2, 0))
    def test_random_tables_match_the_oracle(self, tmp_path_factory, table):
        text, columns, leading_lines = table
        infile = tmp_path_factory.getbasetemp() / "table.csv"
        infile.write_bytes(text.encode())
        try:
            expected = oracle_read_csv(infile, columns)
        except ScenarioError as exc:
            # the oracle numbers lines from the first non-blank one
            expected = re.sub(
                rf"^{re.escape(str(infile))}:(\d+):",
                lambda m: f"{infile}:{int(m[1]) + leading_lines}:",
                str(exc),
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = read_table(infile, columns)
            except ScenarioError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray), got
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(csv_tables(), st.sampled_from([1, 2, 3, 7]), st.data())
    def test_block_edges_do_not_change_the_result(self, tmp_path_factory, table, read_bytes, data):
        text, columns, _ = table
        body = text.encode()
        # a byte that is not UTF-8, or the tail of a two-byte character, somewhere in the file
        stray = data.draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\xa9"]))
        at = data.draw(st.integers(0, len(body)))
        infile = tmp_path_factory.getbasetemp() / "blocks.csv"
        infile.write_bytes(body[:at] + stray + body[at:])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_BYTES", read_bytes)
            small_blocks = read_outcome(infile, columns)
        assert small_blocks == read_outcome(infile, columns)

    @pytest.mark.parametrize(
        "body",
        [
            b"1,2\n" * 30000 + b"\xff\n",
            # errors come in file order: a bad row before the byte is named instead, here line 2
            b"1,x\n" + b"1,2\n" * 30000 + b"1,\xc3\n",
            # a byte before a bad row is named
            b"1,2\n" * 30000 + b"1,\xc3\n" + b"1,x\n",
            # also where both lie in one block and one read
            b"1,2\n1,x\n1,\xff\n",
            b"1,2\n1,\xff\n1,x\n",
            # a truncated character at the end of the file spans two bytes
            b"1,2\n" * 30000 + b"1,\xe2\x82",
        ],
    )
    def test_undecodable_byte_is_named_by_its_offset_in_the_file(self, tmp_path, body):
        infile = tmp_path / "scan.csv"
        infile.write_bytes(b"wavelength_nm,intensity\n" + body)
        with pytest.raises(UnicodeDecodeError) as decode:
            infile.read_text()
        expected = f"input file {infile} is not UTF-8: {decode.value}"
        text = infile.read_bytes()
        if 0 <= (row := text.find(b"\n1,x\n")) < decode.value.start:
            lineno = text.count(b"\n", 0, row) + 2
            expected = f"{infile}:{lineno}: could not convert string to float: 'x'"
        with pytest.raises(ScenarioError) as info:
            read_table(infile, 2)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            ["1_0,0.5,0.5,1"],                                          # the same block is walked anyway
            ["0.5,0.5,0.5,1"] * (_READ_BYTES // 14 + 3) + ["1_0,0.5,0.5,1"],  # a later read's block is walked
        ],
        ids=["alone", "walked-block", "later-walked-block"],
    )
    @pytest.mark.parametrize("cell", ["0.5\x1f", "\x1f0.5"], ids=["after", "before"])
    def test_a_1f_beside_a_cell_is_refused_whatever_the_block(self, tmp_path, capsys, cell, rows):
        infile = tmp_path / "proj.csv"
        infile.write_text("\n".join(["i1,i2,i3,s0", f"{cell},0.5,0.5,1", *rows]) + "\n")
        assert main(["polarimetry", "--in", str(infile), "--out", str(tmp_path / "stokes.csv")]) == 2
        error = f"{infile}:2: could not convert string to float: {cell!r}"
        assert json.loads(capsys.readouterr().err) == {"error": error, "field": None}

    def test_reading_holds_little_beyond_the_result(self, tmp_path):
        infile = tmp_path / "proj.csv"
        data = np.random.default_rng(16).uniform(0.0, 2.5, size=(200000, 4))
        np.savetxt(infile, data, fmt="%.17g", delimiter=",", header="i1,i2,i3,s0", comments="")
        del data
        tracemalloc.start()
        try:
            rows = sum(len(block) for block in _read_blocks(infile, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 200000
        # reading the whole text and its lines peaked at 56.5 MiB, and the whole table is 6.1 MiB
        assert peak < 4 * 2**20

    def test_walking_holds_little_beyond_the_result(self, tmp_path):
        # numpy's C reader rejects 1_000, so every row takes the Python walk
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n" + "1_000,0.5,0.25,2_0\n" * 200000)
        tracemalloc.start()
        try:
            rows = [(len(block), (block == [1000.0, 0.5, 0.25, 20.0]).all()) for block in _read_blocks(infile, 4)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(n for n, _ in rows) == 200000 and all(right for _, right in rows)
        # holding every row as a Python list peaked at about 49 MiB, and the whole table is 6.1 MiB
        assert peak < 4 * 2**20

    def test_long_lines_hold_one_read(self, tmp_path):
        # 4096 rows of about 2 KB: a block of 4096 lines held the whole 8 MB text twice, a 16.1 MiB peak
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n" + (" " * 2000 + "0.5,0.5,0.5,1\n") * 4096)
        tracemalloc.start()
        try:
            rows = sum(len(block) for block in _read_blocks(infile, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 4096
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("rows", [1201, 20000])
    def test_a_short_read_ends_the_file_with_its_last_line(self, tmp_path, rows):
        # the last line was held back until a final, empty read, which yielded it alone
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n" + "0.5,0.5,0.5,1\n" * rows)
        blocks = [len(block) for block in _read_blocks(infile, 4)]
        # 14-byte rows: each read after the first asks for under 14 bytes more than _READ_BYTES, so the
        # file takes as many reads as it holds _READ_BYTES, rounded up, and the last read is short
        assert sum(blocks) == rows and len(blocks) == -(-infile.stat().st_size // _READ_BYTES)
        assert blocks[-1] > 1

    def test_well_formed_table_never_reaches_the_python_walk(self, tmp_path, monkeypatch):
        load, parsed = np.loadtxt, []

        def loadtxt(*args, **kwargs):
            parsed.append(load(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        data = np.random.default_rng(15).uniform(0.0, 2.5, size=(20000, 4))
        infile = tmp_path / "proj.csv"
        np.savetxt(infile, data, fmt="%.17g", delimiter=",", header="i1,i2,i3,s0", comments="")
        # the walk builds a new array; the C reader's own arrays mean it was not taken, in any of the reads
        blocks = list(_read_blocks(infile, 4))
        assert len(blocks) > 1 and all(block is own for block, own in zip(blocks, parsed, strict=True))
        assert np.concatenate(blocks).tobytes() == data.tobytes()


class TestPolarimetryCommand:
    def test_batch_extraction(self, tmp_path):
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n1.0,0.5,0.5,1.0\n0.5,1.0,0.5,1.0\n")
        out = tmp_path / "stokes.csv"
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["S0", "S1", "S2", "S3", "DOP"]
        np.testing.assert_allclose([float(x) for x in rows[0]], [1, 1, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose([float(x) for x in rows[1]], [1, 0, 1, 0, 1], atol=1e-12)

    @pytest.mark.parametrize(
        "row", ["nan,0.5,0.5,1", "0.5,0.5,0.5,nan", "0.5,-inf,0.5,1", "1e308,1e308,1e308,1e308"]
    )
    def test_non_finite_projections_exit_3(self, tmp_path, capsys, row):
        infile = tmp_path / "proj.csv"
        infile.write_text(f"i1,i2,i3,s0\n0.5,0.5,0.5,1\n{row}\n")
        out = tmp_path / "stokes.csv"
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "projections must be finite", "field": None}
        assert not out.exists()

    def test_large_finite_projections_give_a_finite_dop(self, tmp_path, capsys):
        # S1^2 + S2^2 + S3^2 overflowed here, and the DOP column read inf
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n0.5,0.5,0.5,1\n1e200,1e200,1e200,1e200\n")
        out = tmp_path / "stokes.csv"
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == "1e+200,1e+200,1e+200,1e+200,1.73205081"
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"warning": "recovered DOP 1.7321 exceeds 1: projections are inconsistent",
                            "category": InconsistentProjectionsWarning.__name__}]

    def test_norm_past_the_float_range_gives_a_finite_dop(self, tmp_path, capsys):
        # S1..S3 = 1.68e308, so the norm overflows; the DOP column read inf
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n0.5,0.5,0.5,1\n8.9e307,8.9e307,8.9e307,1e307\n")
        out = tmp_path / "stokes.csv"
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == "1e+307,1.68e+308,1.68e+308,1.68e+308,29.0984536"
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"warning": "recovered DOP 29.0985 exceeds 1: projections are inconsistent",
                            "category": InconsistentProjectionsWarning.__name__}]

    def test_input_may_be_the_output(self, tmp_path):
        rng = np.random.default_rng(17)
        s0 = rng.uniform(0.5, 2.0, size=5000)
        projections = np.column_stack([rng.uniform(0.0, 1.0, size=(5000, 3)) * s0[:, None], s0])
        infile, out, same = tmp_path / "proj.csv", tmp_path / "stokes.csv", tmp_path / "same.csv"
        np.savetxt(infile, projections, fmt="%.17g", delimiter=",", header="i1,i2,i3,s0", comments="")
        same.write_bytes(infile.read_bytes())
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 0
        assert main(["polarimetry", "--in", str(same), "--out", str(same)]) == 0
        assert same.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("rows", [_WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 2 * _WRITE_ROWS + 1])
    def test_blocks_write_the_bytes_of_one_extraction(self, tmp_path, capsys, rows):
        rng = np.random.default_rng(rows)
        s0 = rng.uniform(0.5, 2.0, size=rows)
        projections = np.column_stack([rng.uniform(0.0, 1.0, size=(rows, 3)) * s0[:, None], s0])
        infile, out = tmp_path / "proj.csv", tmp_path / "stokes.csv"
        np.savetxt(infile, projections, fmt="%.17g", delimiter=",", header="i1,i2,i3,s0", comments="")
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"polarimetry: extracted {rows} states to {out}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stokes = extract_stokes(*projections.T)
        expected = rowwise_bytes(("S0", "S1", "S2", "S3", "DOP"), zip(*stokes.T, degree_of_polarization(stokes)))
        assert out.read_bytes() == expected

    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, capsys):
        infile = tmp_path / "proj.csv"
        rows = _READ_BYTES // 14 + 10   # 14-byte rows: the bad row comes after the first read
        infile.write_text("i1,i2,i3,s0\n" + "0.5,0.5,0.5,1\n" * rows + "0.5,0.5,1\n")
        out = tmp_path / "stokes.csv"
        assert main(["polarimetry", "--in", str(infile), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == f"{infile}:{rows + 2}: expected 4 columns, got 3"
        assert not out.exists()

    def test_dop_warning_names_the_largest_dop_of_any_block(self, tmp_path, capsys):
        # DOP sqrt(2) in the first block, sqrt(3) in a later one
        rows = ["0.5,0.5,0.5,1"] * (3 * _WRITE_ROWS)
        rows[7], rows[2 * _WRITE_ROWS + 5] = "1,1,0.5,1", "1,1,1,1"
        infile = tmp_path / "proj.csv"
        infile.write_text("i1,i2,i3,s0\n" + "\n".join(rows) + "\n")
        assert main(["polarimetry", "--in", str(infile), "--out", str(tmp_path / "stokes.csv")]) == 0
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert records == [{"warning": "recovered DOP 1.7321 exceeds 1: projections are inconsistent",
                            "category": InconsistentProjectionsWarning.__name__}]

    @pytest.mark.parametrize(
        "body, status, error",
        [
            # a non-finite projection before the byte is named, in the same block or an earlier one
            ("0.5,0.5,0.5,1\nnan,0.5,0.5,1\n", 3, "projections must be finite"),
            ("0.5,0.5,0.5,1\n" * (_READ_BYTES // 14 + 1) + "nan,0.5,0.5,1\n", 3, "projections must be finite"),
            ("0.5,0.5,0.5,1\n1,0.5\n", 2, "{path}:3: expected 4 columns, got 2"),
            ("0.5,0.5,0.5,1\n\n1,0.5,0.5,1\n", 2, "{path}:3: expected 4 columns, got 1"),   # a blank line
            # and before a malformed row in the same block, or after one
            ("nan,0.5,0.5,1\n1,x,0.5,1\n", 3, "projections must be finite"),
            ("1,x,0.5,1\nnan,0.5,0.5,1\n", 2, "{path}:2: could not convert string to float: 'x'"),
            # with no error before it, the byte is named
            ("0.5,0.5,0.5,1\n", 2, "input file {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                   "in position 26: invalid start byte"),
        ],
    )
    def test_errors_come_in_file_order(self, tmp_path, capsys, body, status, error):
        infile = tmp_path / "proj.csv"
        infile.write_bytes(("i1,i2,i3,s0\n" + body).encode() + b"\xff\nnan,0.5,0.5,1\n")
        assert main(["polarimetry", "--in", str(infile), "--out", str(tmp_path / "stokes.csv")]) == status
        assert json.loads(capsys.readouterr().err) == {"error": error.format(path=infile), "field": None}

    def test_missing_input_is_scenario_error(self, tmp_path, capsys):
        assert main(["polarimetry", "--out", str(tmp_path / "x.csv")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ipmsim polarimetry: the following arguments are required: --in",
                                    "field": None}


class TestKeyrateAndSweep:
    def test_keyrate_row(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert main(["keyrate", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "loss_db" and header[-1] == "R_per_s"
        assert len(rows) == 1
        assert float(rows[0][-1]) == pytest.approx(100.075771, rel=1e-6)

    def test_invalid_protocol_exits_3_naming_field(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"protocol": {"mu": 0.1, "nu": 0.2}})
        assert main(["keyrate", "--scenario", str(scn), "--out", str(tmp_path / "r.csv")]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["field"] == "protocol.nu"
        assert "nu < mu" in record["error"]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"typo": {}})
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "s.csv")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["field"] == "typo"

    def test_default_sweep_threshold_beyond_sixty(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), "--grid", "40:70:1"]) == 0
        sidecar = json.loads((tmp_path / "sweep.csv.params.json").read_text())
        assert sidecar["threshold_db"] > 60.0
        assert "threshold" in capsys.readouterr().out

    def test_zero_rate_past_underflow_prints_without_a_sign(self, tmp_path):
        # dark-free channel past eta's underflow: the no-single-photon-gain
        # branch, where the unclamped rate is -0.0
        scn = write_scenario(tmp_path, {"channel": {"dark_rate": 0.0}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                     "--grid", "3000:4000:500"]) == 0
        header, rows = read_csv(out)
        column = header.index("R_per_pulse")
        assert [row[column] for row in rows[1:]] == ["0", "0"]

    def test_saturated_darks_give_a_vacuum_yield_of_one(self, tmp_path):
        # 1e9 darks/s in a 1 us gate: p_d = 1000 clamps to 1, so every
        # detector fires on every pulse and Y0 = 1 - (1 - p_d)^4 = 1
        scn = write_scenario(tmp_path, {"channel": {"dark_rate": 1e9, "gate_window": 1e-6}})
        out = tmp_path / "r.csv"
        assert main(["keyrate", "--scenario", str(scn), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["Y0"], row["Q_mu"], row["E_mu"], row["R_per_pulse"]) == ("1", "1", "0.5", "0")

    def test_dark_free_deep_loss_sweep_exits_0(self, tmp_path, capsys):
        # Q1_L turns subnormal near 3219 dB and nu * Q1_L underflows to 0
        scn = write_scenario(tmp_path, {"channel": {"dark_rate": 0.0}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                     "--grid", "3000:3300:1"]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_csv(out)[1]) == 301

    def test_dark_free_threshold_lies_inside_its_grid_step(self, tmp_path):
        # the rate underflows to 0 instead of changing sign, so the threshold is not the grid point at 3300 dB
        scn = write_scenario(tmp_path, {"channel": {"dark_rate": 0}})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", str(scn), "--grid", "0:4000:100", "--out", str(out)]) == 0
        assert 3200 < strict_json((tmp_path / "s.csv.params.json").read_text())["threshold_db"] < 3300

    def test_no_positive_point_writes_a_null_threshold(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out), "--grid", "80:90:1"]) == 0
        sidecar = strict_json((tmp_path / "s.csv.params.json").read_text())
        assert sidecar["threshold_db"] is None and not sidecar["threshold_is_grid_edge"]
        assert capsys.readouterr().out == f"sweep: 11 points, no positive-rate point -> {out}\n"

    def test_positive_grid_end_prints_a_lower_bound(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out), "--grid", "0:1:0.5"]) == 0
        sidecar = strict_json((tmp_path / "s.csv.params.json").read_text())
        assert sidecar["threshold_db"] == 1.0 and sidecar["threshold_is_grid_edge"]
        assert capsys.readouterr().out == (
            f"sweep: 3 points, positive-rate threshold >= 1 dB (rate positive at the grid's end) -> {out}\n")

    def test_tiny_normal_nu_runs(self, tmp_path, capsys):
        # q1_lower's factor mu^2 e^-mu / (mu nu - nu^2) is 3.3e299 here, finite
        scn = write_scenario(tmp_path, {"protocol": {"nu": 1e-300}, "sim": {"n_pulses": 1000}})
        for command in ("keyrate", "sweep", "mc"):
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / command)]) == 0
            assert capsys.readouterr().err == ""

    def test_a_sweep_holds_little_beyond_one_block(self, tmp_path):
        tracemalloc.start()
        try:
            assert main(["sweep", "--grid", "0:20:0.0001", "--out", str(tmp_path / "s.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 200001 points: evaluating the whole grid before writing peaked at 20.7 MiB here, blocks at 3.0 MiB
        assert peak < 4 * 2**20

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--out", str(out_a), "--grid", "40:55:0.5"])
        main(["sweep", "--out", str(out_b), "--grid", "40:55:0.5"])
        assert out_a.read_bytes() == out_b.read_bytes()


def failing_on_call(n, fn, error):
    """``fn``, except that its n-th call raises ``ValueError(error)``."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise ValueError(error)
        return fn(*args, **kwargs)

    return failing


class TestOutputsAppearTogether:
    """A command's files appear together when it succeeds, and a failure changes no output path."""

    def test_a_sweep_failing_in_its_second_block_leaves_the_previous_outputs(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--grid", "0:10:0.001"]   # 10001 points: three blocks
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(before) == ["s.csv", "s.csv.params.json"]
        original, streamed = decoy._rate_curve, []

        def rate_curve(*args):   # notes the new files, which hold the first block when the second fails
            streamed.extend((path.name, path.stat().st_size) for path in tmp_path.iterdir() if path.name not in before)
            return engine(*args)

        monkeypatch.setattr(decoy, "_rate_curve", rate_curve)
        capsys.readouterr()
        for out in ("s.csv", "fresh.csv"):
            engine = failing_on_call(2, original, "the engine failed")
            streamed.clear()
            assert main([*argv, "--out", str(tmp_path / out)]) == 3
            assert json.loads(capsys.readouterr().err) == {"error": "the engine failed", "field": None}
            assert [name for name, size in streamed if size > 0] == [f".{out}.{os.getpid()}.tmp"]
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_directory_at_an_output_path_moves_no_file(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        before = out.read_bytes()
        (tmp_path / "s.csv.params.json").unlink()
        (tmp_path / "s.csv.params.json").mkdir()
        capsys.readouterr()
        assert main(["sweep", "--grid", "0:1:0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["field"] is None
        assert out.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.csv", "s.csv.params.json"]
        assert not any((tmp_path / "s.csv.params.json").iterdir())

    def test_mc_failing_before_its_sidecar_writes_none_of_its_files(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "resolved_dict", failing_on_call(1, cli.resolved_dict, "no sidecar"))
        assert main(["mc", "--out", str(tmp_path / "mc.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "no sidecar"
        assert not any(tmp_path.iterdir())


class TestMcCommand:
    def scenario(self, tmp_path, n=200_000, seed=42):
        return write_scenario(
            tmp_path,
            {
                "sim": {"n_pulses": n, "seed": seed},
                "channel": {"total_loss_db": 15.0},
            },
        )

    def test_writes_tally_report_and_sidecar(self, tmp_path, capsys):
        scn = self.scenario(tmp_path)
        out = tmp_path / "mc.json"
        assert main(["mc", "--scenario", str(scn), "--out", str(out)]) == 0
        tally = json.loads(out.read_text())
        assert tally["signal"]["H"]["sent"] > 0
        header, rows = read_csv(tmp_path / "mc.json.report.csv")
        assert header == ["quantity", "empirical", "stderr", "analytic", "z_score"]
        assert [r[0] for r in rows] == ["Q_mu", "Q_nu", "E_mu", "E_nu", "Y0"]
        for row in rows:
            assert abs(float(row[4])) < 5.0  # z-scores sane, Y0 with no vacuum click too
        assert capsys.readouterr().err == ""

    def test_defaults_carry_no_low_statistics_flag(self, tmp_path, capsys):
        # the default sim section is large enough to check the default 45 dB channel
        assert main(["mc", "--out", str(tmp_path / "mc.json")]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("mc: 1000000000 pulses")
        assert "flags=" not in summary

    def test_z_score_uses_the_analytic_spread(self):
        # an empirical count of 0 has no spread of its own; the null's does
        none = RateEstimate(value=0.0, stderr=0.0, numerator=0, denominator=100)
        assert _null_z(none, 0.01) == pytest.approx(-0.01 / np.sqrt(0.01 * 0.99 / 100))
        assert _null_z(none, 0.0) == 0.0
        some = RateEstimate(value=0.02, stderr=0.014, numerator=2, denominator=100)
        assert _null_z(some, 0.0) == np.inf
        empty = RateEstimate(value=float("nan"), stderr=float("nan"), numerator=0, denominator=0)
        assert np.isnan(_null_z(empty, 0.5))

    def test_seed_flag_overrides_scenario(self, tmp_path):
        scn = self.scenario(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        main(["mc", "--scenario", str(scn), "--out", str(out_a)])
        main(["mc", "--scenario", str(scn), "--out", str(out_b), "--seed", "7"])
        main(["mc", "--scenario", str(scn), "--out", str(out_c), "--seed", "7"])
        assert out_a.read_bytes() != out_b.read_bytes()
        assert out_b.read_bytes() == out_c.read_bytes()

    def test_largest_pulse_count_is_one_draw_that_a_seed_fixes(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"sim": {"n_pulses": 2**63 - 1}})
        assert main(["mc", "--scenario", str(scn), "--out", str(tmp_path / "max.json")]) == 0
        assert capsys.readouterr().err == ""
        tally = json.loads((tmp_path / "max.json").read_text())
        assert sum(tally[c][s]["sent"] for c in ("signal", "decoy", "vacuum") for s in STATES) == 2**63 - 1
        for run in ("a", "b"):
            assert main(["mc", "--scenario", str(scn), "--seed", "5", "--out", str(tmp_path / f"{run}.json")]) == 0
        for suffix in ("", ".report.csv", ".params.json"):
            assert (tmp_path / f"a.json{suffix}").read_bytes() == (tmp_path / f"b.json{suffix}").read_bytes()

    def test_oversized_chunk_is_a_parameter_error(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, {"sim": {"n_pulses": 2**65, "chunk_pulses": 2**65}})
        out = tmp_path / "mc.json"
        assert main(["mc", "--scenario", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "must be < 9223372036854775808" in json.loads(err)["error"]
        assert not out.exists()

    def test_chunk_pulses_is_accepted_and_ignored(self, tmp_path, capsys):
        # a run is one draw, so no ratio of n_pulses to chunk_pulses is refused
        scn = write_scenario(tmp_path, {"sim": {"n_pulses": 10**9, "chunk_pulses": 1}})
        out = tmp_path / "mc.json"
        assert main(["mc", "--scenario", str(scn), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_workers_do_not_change_bytes(self, tmp_path):
        scn = write_scenario(
            tmp_path,
            {"sim": {"n_pulses": 300_000, "seed": 3, "chunk_pulses": 65536}},
        )
        out_a, out_b = tmp_path / "w1.json", tmp_path / "w2.json"
        main(["mc", "--scenario", str(scn), "--out", str(out_a), "--workers", "1"])
        main(["mc", "--scenario", str(scn), "--out", str(out_b), "--workers", "2"])
        assert out_a.read_bytes() == out_b.read_bytes()
        # the worker count is not a parameter of the result, so the sidecar omits it
        sidecar_a = tmp_path / "w1.json.params.json"
        sidecar_b = tmp_path / "w2.json.params.json"
        assert sidecar_a.read_bytes() == sidecar_b.read_bytes()


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["keyrate", "--seed", "1"],
            ["sweep", "--seed", "1"],
            ["states", "--grid", "0:1:0.1"],
            ["keyrate", "--grid", "0:1:0.1"],
            ["mc", "--grid", "0:1:0.1"],
            # with --in, which polarimetry requires, so the ignored flag is the only error
            ["polarimetry", "--in", "p.csv", "--seed", "1"],
            ["polarimetry", "--in", "p.csv", "--scenario", "s.json"],
        ],
    )
    def test_flag_on_a_command_that_ignores_it_exits_2(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == f"ipmsim: unrecognized arguments: {' '.join(argv[-2:])}"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_each_command_accepts_only_the_flags_it_reads(self, command):
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {flag for a in subparsers.choices[command]._actions for flag in a.option_strings}
        scenario = ["--scenario"] if _COMMANDS[command][2] else []
        assert flags == {"-h", "--help", "--out", *scenario, *OWN_FLAGS.get(command, [])}

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["keyrate", "--bogus"],
            ["mc", "--workers", "two"],
            ["mc", "--workers", "0"],
            ["mc", "--workers", "-3"],
            ["polarimetry", "--in", "nope.csv"],
            ["fitdl", "--in", "nope.csv"],
            ["trace", "--out", "no_such_dir/t.csv"],
            ["sweep", "--grid=-5:10:1"],
        ],
    )
    def test_usage_error_is_one_json_record(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error", "field"}

    @pytest.mark.parametrize(
        "command, flag, body",
        [
            ("keyrate", "--scenario", b"\xff\xfe{}"),
            ("fitdl", "--in", b"wavelength_nm,intensity\n1550,\xff\n"),
            ("polarimetry", "--in", b"i1,i2,i3,s0\n\xff,0,0,1\n"),
        ],
        ids=["scenario", "fitdl-in", "polarimetry-in"],
    )
    def test_file_that_is_not_utf8_exits_2(self, command, flag, body, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(body)
        assert main([command, flag, str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["field"] is None
        assert str(path) in record["error"] and "UTF-8" in record["error"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["sweep", "--grid", "nan:1:1"], "finite"),
            (["sweep", "--grid", "0:inf:1"], "finite"),
            (["scan", "--grid", "1549:1551:nan"], "finite"),
            (["mc", "--seed", "-1"], "'seed' must be >= 0"),
            (["mc", "--seed", "18446744073709551616"], "'seed' must be < 18446744073709551616"),
            (["mc", "--workers", "0"], "must be a positive integer, got '0'"),
        ],
        ids=["sweep-nan-start", "sweep-inf-stop", "scan-nan-step", "mc-seed-negative",
             "mc-seed-2**64", "mc-workers-0"],
    )
    def test_bad_flag_value_exits_2_with_its_reason(self, argv, reason, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        # checked where argparse reads the flag, so the record names it
        assert record["error"].startswith(f"ipmsim {argv[0]}: argument {argv[1]}: ")
        assert reason in record["error"] and record["field"] is None
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("out", ["", ".", "/"])
    @pytest.mark.parametrize("argv", [["keyrate", "--scenario", "absent.json"], ["polarimetry", "--in", "absent.csv"]],
                             ids=["keyrate", "polarimetry"])
    def test_out_that_names_no_file_exits_2_before_any_input_is_read(self, argv, out, tmp_path, monkeypatch, capsys):
        # pathlib's "has an empty name" exited 3 here, as a numerical failure
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", out]) == 2
        [line] = capsys.readouterr().err.splitlines()
        error = f"ipmsim {argv[0]}: argument --out: must name a file, got {out!r}"
        assert json.loads(line) == {"error": error, "field": None}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], *([name, "--help"] for name in _COMMANDS)])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def run_python(*argv, **kwargs):
    """A fresh Python process on ``argv`` that imports ipmsim from this source tree."""
    src = str(Path(ipmsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, ipmsim.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])"
    )
    assert run_python("-c", code, check=True).stdout.strip() == "[]"


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_runs_on_its_defaults_in_its_own_process(command, tmp_path):
    # a process shows its exit status and everything that reaches stderr, which an in-process call does not
    (tmp_path / "proj.csv").write_text("i1,i2,i3,s0\n0.5,0.5,0.5,1\n1,0.5,0.5,1\n")
    argv = [command, "--in", "proj.csv"] if command == "polarimetry" else [command]
    done = run_python("-m", "ipmsim.cli", *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert all(isinstance(json.loads(line), dict) for line in done.stderr.splitlines())
    # the data files and the sidecar at the default --out, nothing else: mc writes no flat mc.json.csv
    out, suffixes = ("mc.json", ["", ".report.csv"]) if command == "mc" else (f"{command}.csv", [""])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["proj.csv", out + ".params.json",
                                                                 *(out + s for s in suffixes)])


def read_outcome(path, columns):
    """What ``read_table`` gives: the array's dtype, shape and bytes, or the error text."""
    try:
        values = read_table(path, columns)
    except ScenarioError as exc:
        return str(exc)
    return values.dtype, values.shape, values.tobytes()


def rowwise_bytes(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "oracle.csv"
        rowwise_write_csv(path, header, rows)
        return path.read_bytes()


def columnar_bytes(header, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(path, header, columns)
        return path.read_bytes()


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e300, -1e-300, 1e16]
FLOAT_COLUMN = st.builds(
    lambda values: np.array(values, dtype=np.float64),
    st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))),
)
INT_COLUMN = st.builds(
    lambda values: np.array(values, dtype=np.int64),
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1)),
)
TEXT_COLUMN = st.builds(
    lambda values: np.array(values, dtype=str),
    st.lists(st.text(st.characters(blacklist_categories=("Cs",)))),
)


@st.composite
def mixed_tables(draw):
    """Equal-length text, int64 and float columns in random order."""
    columns = draw(st.lists(st.one_of(FLOAT_COLUMN, INT_COLUMN, TEXT_COLUMN), min_size=1, max_size=6))
    rows = min(len(c) for c in columns)
    return [c[:rows] for c in columns]


class TestColumnarWriter:
    """The columnar writer against the row-wise writer it replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_tables())
    def test_mixed_tables_match_the_rowwise_oracle(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        assert columnar_bytes(header, columns) == rowwise_bytes(header, zip(*columns))

    @pytest.mark.parametrize(
        "rows", [0, 1, cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1, 2 * cli._WRITE_ROWS + 1]
    )
    def test_tables_across_block_edges_match_the_rowwise_oracle(self, rows):
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        floats[::3] = np.resize(SPECIAL_FLOATS, len(floats[::3]))
        columns = [
            np.array([f"row {k}" for k in range(rows)], dtype=str),
            rng.integers(-(2**63), 2**63 - 1, size=rows, endpoint=True),
            floats,
        ]
        header = ["text", "int", "float"]
        assert columnar_bytes(header, columns) == rowwise_bytes(header, zip(*columns))

    def test_writing_holds_little_beyond_the_columns(self, tmp_path):
        columns = np.random.default_rng(18).standard_normal((5, 50000))
        tracemalloc.start()
        try:
            write_table(tmp_path / "table.csv", [f"c{k}" for k in range(5)], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # formatting every row before the first write peaked at 13 MiB here (52.7 MiB at 200000 rows)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "data, grid",
        [
            ({}, None),
            # dark-free past eta's underflow, where the unclamped rate is -0.0
            ({"channel": {"dark_rate": 0.0}}, SweepSpec(3000.0, 4000.0, 500.0)),
        ],
    )
    def test_sweep_writes_the_oracle_bytes(self, tmp_path, data, grid):
        scn_path = write_scenario(tmp_path, data)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(scn_path), "--out", str(out)]
        if grid is not None:
            argv += ["--grid", f"{grid.start_db}:{grid.stop_db}:{grid.step_db}"]
        assert main(argv) == 0
        scn = load_scenario(scn_path)
        points, _ = sweep_points(scn.protocol, scn.channel, (grid or scn.sweep).grid())
        assert out.read_bytes() == rowwise_bytes(RATE_COLUMNS, [_rate_row(pt) for pt in points])

    def test_sweep_command_builds_no_rate_point(self, tmp_path, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("the sweep command built a RatePoint")

        monkeypatch.setattr(decoy, "RatePoint", no_points)
        assert main(["sweep", "--out", str(tmp_path / "s.csv")]) == 0
        with pytest.raises(AssertionError, match="built a RatePoint"):
            sweep_points(ProtocolParams(), ChannelParams(), [40.0])
