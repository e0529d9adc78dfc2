"""Config parsing, the assembled analysis report, and parametric sweeps."""

import dataclasses
import inspect
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

import flipkit
from flipkit import cli, coupling, cpw, device, fieldsolve, loss, transmon
from flipkit.device import ConfigError, DeviceReport, analyze, parse_config
from flipkit.units import round12


def val(field):
    """Unwrap a {value, by} provenance pair."""
    return field["value"]


@pytest.fixture(scope="module")
def spec():
    return device.paper_default()


@pytest.fixture(scope="module")
def report(spec):
    return analyze(spec)


def mode(report, name):
    return next(m for m in report.data["modes"] if m["name"] == name)


# ------------------------------------------------------------- parsing

def test_preset_parses_and_echoes_cj(spec):
    assert spec.bottom.transmon.c_junction == pytest.approx(8e-15, rel=1e-12)
    assert spec.top.transmon.c_junction == pytest.approx(8e-15, rel=1e-12)
    assert spec.bottom.transmon.c_shunt == pytest.approx(81e-15, rel=1e-12)
    assert spec.interlayer_thickness == pytest.approx(0.5e-3, rel=1e-12)


def test_default_config_text_round_trips(spec):
    text = device.default_config_text()
    again = parse_config(text)
    assert again.bottom.geometry == spec.bottom.geometry
    assert again.top.transmon == spec.top.transmon


def test_empty_config_lists_missing_keys():
    # a key is required exactly when its record field has no default
    with pytest.raises(ConfigError) as e:
        parse_config("")
    chip_keys = ["cpw.trace_width", "cpw.trace_gap", "cpw.substrate_eps_r",
                 "resonator.length", "resonator.pocket_extension",
                 "transmon.junction_capacitance",
                 "transmon.shunt_capacitance",
                 "transmon.junction_inductance", "readout.coupling_q"]
    assert e.value.errors == [
        f"missing required key {key!r}" for key in [
            *(f"chip.{side}.{key}" for side in ("bottom", "top")
              for key in chip_keys),
            "stack.interlayer_thickness", "stack.interlayer_eps_r",
            "coupling.pad_overlap_area"]]


def test_unknown_key_reported_with_line():
    text = device.default_config_text() + "\nchip.bottom.cpw.bogus = 1 um\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert any("bogus" in m and "line" in m for m in e.value.errors)


def test_duplicate_key_rejected():
    text = device.default_config_text() + \
        "\nstack.interlayer_thickness = 1 mm\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert any("duplicate" in m for m in e.value.errors)


def test_negative_thickness_rejected():
    text = device.default_config_text().replace(
        "stack.interlayer_thickness = 0.5 mm",
        "stack.interlayer_thickness = -1 mm")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_wrong_unit_dimension_rejected():
    text = device.default_config_text().replace(
        "chip.bottom.transmon.junction_inductance = 8.75 nH",
        "chip.bottom.transmon.junction_inductance = 8.75 fF")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    line_errors = [m for m in e.value.errors if m.startswith("line ")]
    assert len(line_errors) == 1
    assert "chip.bottom.transmon.junction_inductance" in line_errors[0]
    assert "inductance has no unit 'fF'" in line_errors[0]


def test_errors_are_aggregated_not_first_only():
    text = device.default_config_text()
    text = text.replace("stack.interlayer_thickness = 0.5 mm",
                        "stack.interlayer_thickness = -1 mm")
    text = text.replace("chip.top.transmon.junction_inductance = 7 nH",
                        "chip.top.transmon.junction_inductance = 0 nH")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert len(e.value.errors) >= 2


def edited_preset(edits, extra=""):
    """Preset text with each (line, replacement) edit applied."""
    text = device.default_config_text()
    for line, replacement in edits:
        assert line in text
        text = text.replace(line, replacement)
    return text + extra


def config_errors(edits, extra=""):
    with pytest.raises(ConfigError) as e:
        parse_config(edited_preset(edits, extra))
    return e.value.errors


def test_every_problem_is_reported():
    errors = config_errors([
        ("fieldsolve.cell = 0.5 um", "fieldsolve.cell = -1 um"),
        ("fieldsolve.box_factor = 10", "fieldsolve.box_factor = 3"),
        ("loss.participation.interlayer = 0.077519",
         "loss.participation.interlayer = 1.5"),
        ("chip.top.transmon.junction_inductance = 7 nH",
         "chip.top.transmon.junction_inductance = 0 nH"),
        ("chip.bottom.transmon.baseline_q = 1.43512e6",
         "chip.bottom.transmon.baseline_q = -1"),
    ], extra="chip.bottom.readout.g_qr = -5 MHz\n")
    assert sorted(errors) == sorted([
        "fieldsolve.cell must be positive",
        "fieldsolve.box_factor must be >= 10",
        "loss.participation.interlayer must be in [0, 1]",
        "loss.participation values sum past 1",
        "chip.top.transmon.junction_inductance must be positive",
        "chip.bottom.transmon.baseline_q must be positive",
        "chip.bottom.readout.g_qr must be positive",
    ])


def test_one_box_factor_minimum(spec):
    # the config, the library and the CLI default to the one minimum
    # that the config and the library enforce
    least = fieldsolve.MIN_BOX_FACTOR
    defaults = {f.name: f.default
                for f in dataclasses.fields(device.DeviceSpec)}
    assert defaults["fieldsolve_box_factor"] == least
    assert inspect.signature(fieldsolve.cpw_cross_section).parameters[
        "box_factor"].default == least
    assert cli.build_parser().parse_args([
        "fieldsolve", "--w", "10um", "--s", "6um", "--eps-sub", "11.9"
    ]).box_factor == least
    below = math.nextafter(least, 0.0)
    with pytest.raises(ValueError,
                       match="^box must be at least 10 apertures wide$"):
        fieldsolve.cpw_cross_section(spec.bottom.geometry, cell=2e-6,
                                     box_factor=below)
    assert config_errors([("fieldsolve.box_factor = 10",
                           f"fieldsolve.box_factor = {below!r}")]) == [
        "fieldsolve.box_factor must be >= 10"]


@pytest.mark.parametrize("line,replacement,want", [
    ("stack.interlayer_thickness = 0.5 mm",
     "stack.interlayer_thickness = -1 mm",
     ["stack.interlayer_thickness must be positive"]),
    ("stack.interlayer_eps_r = 1.0", "stack.interlayer_eps_r = 0.5",
     ["stack.interlayer_eps_r must be >= 1"]),
    ("stack.interlayer_tan_delta = 0.0", "stack.interlayer_tan_delta = -1e-6",
     ["stack.interlayer_tan_delta must be >= 0"]),
    ("coupling.pad_overlap_area = 0.1034481 mm2",
     "coupling.pad_overlap_area = 0 mm2",
     ["coupling.pad_overlap_area must be positive"]),
    ("coupling.f_bottom = 5.16 GHz", "coupling.f_bottom = 0 GHz",
     ["coupling.f_bottom must be positive"]),
    ("coupling.f_top = 5.75 GHz", "coupling.f_top = -5.75 GHz",
     ["coupling.f_top must be positive"]),
    ("chip.top.cpw.substrate_thickness = 0.75 mm",
     "chip.top.cpw.substrate_thickness = 0 mm",
     ["chip.top.cpw.substrate_thickness must be positive"]),
    ("chip.bottom.readout.coupling_q = 6618.16",
     "chip.bottom.readout.coupling_q = 0",
     ["chip.bottom.readout.coupling_q must be positive"]),
    # the CPW, resonator and transmon records name their fields, mapped
    # here to the keys; a rule over two keys names both
    ("chip.top.cpw.trace_width = 10 um", "chip.top.cpw.trace_width = 0 um",
     ["chip.top.cpw.trace_width must be positive"]),
    ("chip.top.cpw.trace_gap = 5.806 um", "chip.top.cpw.trace_gap = 0 um",
     ["chip.top.cpw.trace_gap must be positive"]),
    ("chip.bottom.resonator.length = 4.2956 mm",
     "chip.bottom.resonator.length = 0 mm",
     ["chip.bottom.resonator.length must be positive"]),
    ("chip.top.resonator.pocket_extension = 0.25 mm",
     "chip.top.resonator.pocket_extension = 5 mm",
     ["chip.top.resonator.pocket_extension must be >= 0 and shorter than "
      "chip.top.resonator.length"]),
    ("chip.top.transmon.junction_capacitance = 8 fF",
     "chip.top.transmon.junction_capacitance = -8 fF",
     ["chip.top.transmon.junction_capacitance must be >= 0"]),
    ("chip.top.transmon.junction_capacitance = 8 fF\n"
     "chip.top.transmon.shunt_capacitance = 81 fF",
     "chip.top.transmon.junction_capacitance = 0 fF\n"
     "chip.top.transmon.shunt_capacitance = 0 fF",
     ["chip.top.transmon.junction_capacitance + "
      "chip.top.transmon.shunt_capacitance must be positive"]),
    ("chip.top.transmon.junction_inductance = 7 nH",
     "chip.top.transmon.junction_inductance = 0 nH",
     ["chip.top.transmon.junction_inductance must be positive"]),
    ("chip.bottom.transmon.c_eff = 115 fF",
     "chip.bottom.transmon.c_eff = 0 fF",
     ["chip.bottom.transmon.c_eff must be positive when given"]),
], ids=["thickness", "eps_r", "tan_delta", "pad_area", "f_bottom", "f_top",
        "substrate_thickness", "coupling_q", "trace_width", "trace_gap",
        "resonator_length", "pocket_extension", "junction_capacitance",
        "total_capacitance", "junction_inductance", "c_eff"])
def test_out_of_range_value_names_its_key(line, replacement, want):
    assert config_errors([(line, replacement)]) == want


GAP_0 = ("chip.top.cpw.trace_gap = 5.806 um", "chip.top.cpw.trace_gap = 0 um")
LENGTH_0 = ("chip.top.resonator.length = 4.0481 mm",
            "chip.top.resonator.length = 0 mm")
LJ_0 = ("chip.top.transmon.junction_inductance = 7 nH",
        "chip.top.transmon.junction_inductance = 0 nH")
EPS_SUB = ("chip.top.cpw.substrate_eps_r = 11.9",
           "chip.top.cpw.substrate_eps_r = 0.5")


@pytest.mark.parametrize("edits,want", [
    ([GAP_0, LJ_0], [
        "chip.top.cpw.trace_gap must be positive",
        "chip.top.transmon.junction_inductance must be positive"]),
    ([LENGTH_0, LJ_0], [
        "chip.top.resonator.length must be positive",
        "chip.top.transmon.junction_inductance must be positive"]),
    # the resonator borrows the substrate eps_r and leaves it to the CPW
    ([EPS_SUB, LENGTH_0], ["chip.top.cpw.substrate_eps_r must be >= 1",
                           "chip.top.resonator.length must be positive"]),
    ([EPS_SUB], ["chip.top.cpw.substrate_eps_r must be >= 1"]),
    # a sub-record failure and a ChipSpec one on the same chip
    ([GAP_0, ("chip.top.readout.coupling_q = 5782.30",
              "chip.top.readout.coupling_q = 0")],
     ["chip.top.cpw.trace_gap must be positive",
      "chip.top.readout.coupling_q must be positive"]),
    # a missing permittivity counts as 1 where it is borrowed, so the
    # records that borrow it are still checked
    ([("stack.interlayer_eps_r = 1.0\n", ""), GAP_0, LENGTH_0],
     ["missing required key 'stack.interlayer_eps_r'",
      "chip.top.cpw.trace_gap must be positive",
      "chip.top.resonator.length must be positive"]),
    ([("chip.top.cpw.substrate_eps_r = 11.9\n", ""), LENGTH_0],
     ["missing required key 'chip.top.cpw.substrate_eps_r'",
      "chip.top.resonator.length must be positive"]),
], ids=["gap_and_inductance", "length_and_inductance",
        "substrate_eps_and_length", "substrate_eps", "gap_and_coupling_q",
        "missing_eps_r", "missing_substrate_eps"])
def test_no_chip_record_hides_another(edits, want):
    assert config_errors(edits) == want


def test_records_name_their_fields(spec):
    # outside a config, ChipSpec and DeviceSpec name the record field
    with pytest.raises(ConfigError) as e:
        dataclasses.replace(spec.top, coupling_q=0.0, g_qr=-1.0)
    assert e.value.errors == ["coupling_q must be positive",
                              "g_qr must be positive"]
    with pytest.raises(ConfigError) as e:
        dataclasses.replace(spec, interlayer_eps_r=0.5,
                            participation={"substrate": 0.5,
                                           "interlayer": 0.6})
    assert e.value.errors == ["interlayer_eps_r must be >= 1",
                              "participation values sum past 1"]


def test_line_and_missing_key_errors_join_the_value_errors():
    errors = config_errors([
        ("chip.top.readout.coupling_q = 5782.30\n", ""),
        ("stack.interlayer_thickness = 0.5 mm",
         "stack.interlayer_thickness = -1 mm"),
        ("chip.bottom.transmon.baseline_q = 1.43512e6",
         "chip.bottom.transmon.baseline_q = 0"),
    ], extra="chip.bottom.readout.g_qr = 5 parsec\n")
    assert len(errors) == 4
    assert errors[0].startswith("line ") and "parsec" in errors[0]
    assert errors[1:] == [
        "missing required key 'chip.top.readout.coupling_q'",
        "chip.bottom.transmon.baseline_q must be positive",
        "stack.interlayer_thickness must be positive"]


def test_participation_both_or_neither():
    text = device.default_config_text().replace(
        "loss.participation.interlayer = 0.077519\n", "")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert any("participation" in m for m in e.value.errors)


# ------------------------------------------------------------- analyze

def test_resonator_intervals(report):
    bot = mode(report, "bottom_resonator")
    top = mode(report, "top_resonator")
    assert val(bot["frequency_low_hz"]) == pytest.approx(6.87e9, rel=5e-3)
    assert val(bot["frequency_high_hz"]) == pytest.approx(7.29e9, rel=5e-3)
    assert val(top["frequency_low_hz"]) == pytest.approx(7.29e9, rel=5e-3)
    assert val(top["frequency_high_hz"]) == pytest.approx(7.77e9, rel=5e-3)
    # FEM eigenfrequencies fall inside the analytic windows
    assert val(bot["frequency_low_hz"]) < 7.11469e9 < \
        val(bot["frequency_high_hz"])
    assert val(top["frequency_low_hz"]) < 7.50486e9 < \
        val(top["frequency_high_hz"])


def test_qubit_rows_dual_frequencies(report):
    bot = mode(report, "bottom_qubit")
    top = mode(report, "top_qubit")
    # literal Cj + Cs route
    assert val(bot["frequency_hz"]) == pytest.approx(5.49e9, rel=0.01)
    assert val(top["frequency_hz"]) == pytest.approx(6.16e9, rel=0.01)
    # calibrated effective-capacitance route
    assert val(bot["frequency_c_eff_hz"]) == pytest.approx(4.85e9, rel=0.01)
    assert val(top["frequency_c_eff_hz"]) == pytest.approx(5.44e9, rel=0.01)
    # the oracle stays within 1% of the closed form
    assert val(bot["frequency_cpb_hz"]) == \
        pytest.approx(val(bot["frequency_hz"]), rel=0.01)


def test_qubit_t1_bounds_self_consistent(report):
    # each row's bound is Q/(2 pi f) at the row's own analytic frequency
    # (the printed 44.23/20.88 us pair belongs to the FEM frequencies and
    # is covered against t1_upper_bound directly in test_loss)
    for name in ("bottom_qubit", "top_qubit"):
        row = mode(report, name)
        want = val(row["q_total"]) / (2.0 * math.pi * val(row["frequency_hz"]))
        assert val(row["t1_upper_s"]) == pytest.approx(want, rel=1e-9)


def test_coupling_operating_point(report):
    c = report.data["coupling"]
    assert val(c["r"]) == pytest.approx(0.010084, abs=1e-4)
    assert val(c["g_hz"]) / 1e6 == pytest.approx(54.93, abs=0.05)
    assert val(c["hybrid_lower_hz"]) < val(c["f_bottom_hz"])
    assert val(c["hybrid_upper_hz"]) > val(c["f_top_hz"])


def provenance_tags(node):
    """The "by" of every {value, by} pair under node."""
    if isinstance(node, list):
        return set().union(*map(provenance_tags, node))
    if not isinstance(node, dict):
        return set()
    if set(node) == {"value", "by"}:
        return {node["by"]}
    return set().union(*map(provenance_tags, node.values()))


def test_every_field_carries_provenance(report):
    assert all(isinstance(tag, str) and tag
               for tag in provenance_tags(report.data))


# provenance tags that name neither a library function nor a config key
PLAIN_TAGS = {"interval midpoint / q_total"}


def names_config_key(name):
    """A config key, a dotted head of one, or a chip key without its
    chip.<side>. prefix."""
    return any(name == key or key.startswith(name + ".")
               or key.startswith("chip.") and key.split(".", 2)[2] == name
               for key in device._KEYS)


def tag_resolves(tag):
    if tag in PLAIN_TAGS:
        return True
    keys = re.findall(r"config:([\w.]+)", tag) + re.findall(
        r"not computed: ([\w.]+) not configured", tag)
    checks = [names_config_key(key) for key in keys]
    head = re.match(r"(\w+)\.(\w+)", tag)
    if head:
        checks.append(hasattr(getattr(flipkit, head[1], None), head[2]))
    return bool(checks) and all(checks)


def test_every_provenance_tag_resolves(report):
    # the preset, and a variant that takes the other report paths: a
    # dispersive shift, a chip without c_eff and baseline_q, and the
    # participation solved instead of configured
    variant = analyze_preset([
        ("chip.bottom.transmon.c_eff = 115 fF\n", ""),
        ("chip.bottom.transmon.baseline_q = 1.43512e6\n", ""),
        ("loss.participation.substrate = 0.922481\n", ""),
        ("loss.participation.interlayer = 0.077519\n", ""),
        ("fieldsolve.cell = 0.5 um", "fieldsolve.cell = 2 um")],
        extra="chip.top.readout.g_qr = 50 MHz\n")
    tags = provenance_tags(report.data) | provenance_tags(variant.data)
    assert {"coupling.dispersive_shift",
            "not computed: transmon.c_eff not configured",
            "not computed: transmon.baseline_q not configured",
            "fieldsolve.energy_participation"} <= tags
    assert [tag for tag in sorted(tags) if not tag_resolves(tag)] == []


def test_analyze_deterministic_bytes(spec):
    a = analyze(spec).to_json()
    b = analyze(spec).to_json()
    assert a == b
    assert a.encode() == b.encode()


def test_report_json_round_trip(report):
    text = report.to_json()
    again = DeviceReport(json.loads(text))
    assert again.to_json() == text
    assert json.loads(text)["schema"] == report.data["schema"]


# -------------------------------------------------------------- sweeps

def test_thickness_sweep_trends(spec):
    grid = [0.1e-3, 0.5e-3, 1.0e-3, 2.0e-3, 4.0e-3]
    table = device.sweep(spec, "interlayer_thickness", grid)
    assert table.param_values == grid
    for col in ("cg_f", "r", "g_hz", "crosstalk_db"):
        vals = table.column(col)
        assert all(b < a for a, b in zip(vals, vals[1:])), col


def test_thickness_sweep_qubits_bitwise_constant(spec):
    table = device.sweep(spec, "interlayer_thickness",
                         [0.1e-3, 1.0e-3, 4.0e-3])
    for col in ("qubit_bottom_hz", "qubit_top_hz"):
        vals = table.column(col)
        assert len(set(vals)) == 1, col  # identical floats, not just close


def test_loss_sweep_trends(spec):
    grid = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    table = device.sweep(spec, "loss_tangent", grid)
    for col in ("q_total_bottom", "t1_upper_bottom_s", "q_total_top",
                "t1_upper_top_s"):
        vals = table.column(col)
        assert all(b <= a for a, b in zip(vals, vals[1:])), col
    gam = table.column("gamma_cap_bottom_per_s")
    assert gam[0] == 0.0
    # linear in the tangent: the two top decades scale by exactly 100
    assert gam[-1] == pytest.approx(100.0 * gam[-3], rel=1e-9)


def test_loss_sweep_rows_equal_budgets_built_at_each_tangent(spec):
    # the rows evaluate the loss formulas at each tangent from one budget
    # per chip; they must equal, to the bit, a budget built at the tangent
    grid = cli._parse_grid("0:1e-3:log25", "scalar")
    assert grid[0] == 0.0 and len(grid) == 25
    table = device.sweep(spec, "loss_tangent", grid)
    participation, _ = device.resolve_participation(spec)
    for chip in (spec.bottom, spec.top):
        f_q = transmon.qubit_numbers(chip.transmon, chip.flux_bias)[
            "frequency"]
        for i, tan_d in enumerate(grid):
            budget = loss.LossBudget(
                mode_frequency=f_q, baseline_q=chip.baseline_q,
                regions={"interlayer": (participation["interlayer"], tan_d)})
            q = loss.q_with_dielectric(budget)
            assert table.columns[f"q_total_{chip.name}"][i] == q
            assert table.columns[f"t1_upper_{chip.name}_s"][i] == \
                loss.t1_upper_bound(q, f_q)
            assert table.columns[f"gamma_cap_{chip.name}_per_s"][i] == \
                loss.dielectric_decay_rate(budget)
            assert table.columns[f"qubit_{chip.name}_hz"][i] == f_q


@pytest.mark.parametrize("parameter,grid,row_function", [
    ("interlayer_thickness", "0.1mm:4mm:log25", "_thickness_row"),
    ("loss_tangent", "0:1e-3:log25", "_loss_tangent_row"),
], ids=["thickness", "loss"])
def test_sweep_runs_its_row_function_once_per_row(spec, monkeypatch,
                                                  parameter, grid,
                                                  row_function):
    # the benchmark's tracer wraps these two functions by name and counts
    # their calls as sweep rows
    calls = []
    real = getattr(device, row_function)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(device, row_function, counted)
    values = cli._parse_grid(grid, "scalar" if parameter == "loss_tangent"
                             else "length")
    assert device.sweep(spec, parameter, values).n_rows == len(calls) == 25


@pytest.mark.parametrize("parameter,values", [
    ("interlayer_thickness", [math.nan]),
    ("interlayer_thickness", [1e-3, math.inf]),
    ("loss_tangent", [math.nan, 1e-3]),
    ("loss_tangent", [0.0, math.inf]),
], ids=["thickness-nan", "thickness-inf", "loss-nan", "loss-inf"])
def test_sweep_rejects_non_finite_values(spec, parameter, values):
    # NaN passed the range checks and gave NaN rows
    with pytest.raises(ValueError, match="^sweep values must be finite$"):
        device.sweep(spec, parameter, values)


def test_sweep_unknown_parameter(spec):
    with pytest.raises(ValueError):
        device.sweep(spec, "substrate_mood", [1.0])


def test_loss_sweep_requires_baseline_q(spec):
    # one error names every chip without a baseline Q
    text, without = device.default_config_text(), []
    for side, line in (("bottom", "chip.bottom.transmon.baseline_q = "
                                  "1.43512e6\n"),
                       ("top", "chip.top.transmon.baseline_q = 754259\n")):
        assert line in text
        text, without = text.replace(line, ""), without + [side]
        stripped = parse_config(text)
        with pytest.raises(ConfigError) as e:
            device.sweep(stripped, "loss_tangent", [1e-6])
        assert e.value.errors == [
            f"chip.{s}.transmon.baseline_q is required for a loss_tangent "
            "sweep" for s in without]


@pytest.fixture
def cpb_calls(monkeypatch):
    """Arguments of every transmon.cpb_spectrum call made in the test."""
    calls = []
    real = transmon.cpb_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transmon, "cpb_spectrum", counted)
    return calls


def without_coupling_frequencies(text=None):
    """Config text (the preset by default) parsed without coupling.f_*."""
    lines = (text or device.default_config_text()).splitlines(keepends=True)
    return parse_config("".join(
        line for line in lines
        if not line.startswith(("coupling.f_bottom", "coupling.f_top"))))


def test_analyze_runs_cpb_oracle_once_per_chip(spec, cpb_calls):
    bare = without_coupling_frequencies()
    assert bare.coupling_f_bottom is None and bare.coupling_f_top is None
    for s in (spec, bare):
        cpb_calls.clear()
        analyze(s)
        per_chip = Counter(args[:2] for args in cpb_calls)  # (Ec, Ej)
        assert list(per_chip.values()) == [1, 1]


@pytest.fixture
def energy_calls(monkeypatch):
    """Arguments of every transmon.qubit_energies call made in the test."""
    calls = []
    real = transmon.qubit_energies

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transmon, "qubit_energies", counted)
    return calls


@pytest.mark.parametrize("run", [
    analyze,
    lambda s: device.sweep(s, "interlayer_thickness",
                           np.geomspace(0.1e-3, 4e-3, 25)),
    lambda s: device.sweep(s, "loss_tangent", np.geomspace(1e-7, 1e-3, 25)),
], ids=["analyze", "thickness", "loss"])
def test_closed_form_derived_once_per_chip(spec, energy_calls, run):
    # each chip's (Ec, Ej), and so its closed-form frequency, is derived
    # once, whether or not coupling.f_* stands in for it
    for s in (spec, without_coupling_frequencies()):
        energy_calls.clear()
        run(s)
        assert energy_calls == [(s.bottom.transmon, s.bottom.flux_bias),
                                (s.top.transmon, s.top.flux_bias)]


@pytest.mark.parametrize("extra", [[], ["--c-eff", "90fF", "--flux", "0.2",
                                        "--ng", "0.3", "--json"]],
                         ids=["text", "c-eff-json"])
def test_transmon_command_runs_cpb_oracle_once(cpb_calls, capsys, extra):
    argv = ["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8.75nH"]
    assert cli.main(argv + extra) == 0
    assert len(cpb_calls) == 1


@pytest.mark.parametrize("parameter,grid", [
    ("interlayer_thickness", np.geomspace(0.1e-3, 4e-3, 25)),
    ("loss_tangent", np.geomspace(1e-7, 1e-3, 25)),
], ids=["thickness", "loss"])
def test_sweeps_never_run_cpb_oracle(spec, cpb_calls, parameter, grid):
    for s in (spec, without_coupling_frequencies()):
        table = device.sweep(s, parameter, grid)
        assert table.n_rows == 25
    assert cpb_calls == []


def test_participation_resolution_prefers_config(spec):
    p, src = device.resolve_participation(spec)
    assert src.startswith("config")
    assert p["substrate"] == pytest.approx(0.922481, abs=1e-6)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-6)


def analyze_preset(edits, extra=""):
    return analyze(parse_config(edited_preset(edits, extra)))


def test_participation_is_field_solved_when_not_configured():
    solved = analyze_preset([
        ("loss.participation.substrate = 0.922481\n", ""),
        ("loss.participation.interlayer = 0.077519\n", ""),
        ("fieldsolve.cell = 0.5 um", "fieldsolve.cell = 2 um")])
    for row in solved.data["modes"]:
        shares = row["participation"]
        assert {p["by"] for p in shares.values()} == {
            "fieldsolve.energy_participation"}, row["name"]
        # the facing ground at 0.5 mm is outside the box, so the two
        # half-spaces split the energy in proportion to their eps_r
        assert val(shares["substrate"]) == pytest.approx(11.9 / 12.9,
                                                         abs=1e-12)


def test_field_solved_participation_builds_no_map(monkeypatch):
    # the report and the loss-tangent sweep take a solved participation
    # from the face solve's energies: each solves, and neither builds the
    # potential map
    runs = {"solve_potential": [], "_direct_map": []}
    for name, seen in runs.items():
        def spy(*args, fn=getattr(fieldsolve, name), seen=seen):
            seen.append(args)
            return fn(*args)

        monkeypatch.setattr(fieldsolve, name, spy)
    solved = parse_config(edited_preset([
        ("loss.participation.substrate = 0.922481\n", ""),
        ("loss.participation.interlayer = 0.077519\n", ""),
        ("fieldsolve.cell = 0.5 um", "fieldsolve.cell = 2 um")]))
    analyze(solved)
    assert (len(runs["solve_potential"]), runs["_direct_map"]) == (1, [])
    device.sweep(solved, "loss_tangent", [0.0, 1e-4, 1e-3])
    assert (len(runs["solve_potential"]), runs["_direct_map"]) == (2, [])


def test_field_solve_grid_is_capped(spec):
    # a fine cell in a config without participation is refused before
    # the section is built, 2049 cells a side being one past the cap, and
    # so is a coarse one; both name the keys, not the solver's parameters
    g = spec.bottom.geometry
    for cell, message in [
            (f"{10 * (g.trace_width + 2 * g.gap) / 2049!r} m",
             r"^fieldsolve\.cell \S+ m makes the box 2049 cells wide, above "
             r"2048: raise fieldsolve\.cell or lower fieldsolve\.box_factor$"),
            ("20 um", r"^fieldsolve\.cell too coarse for this geometry$")]:
        with pytest.raises(ConfigError, match=message):
            analyze_preset([
                ("loss.participation.substrate = 0.922481\n", ""),
                ("loss.participation.interlayer = 0.077519\n", ""),
                ("fieldsolve.cell = 0.5 um", f"fieldsolve.cell = {cell}")])


def test_field_solve_refuses_a_facing_chip_below_one_cell():
    # a facing ground that snaps to the metal plane was left out of the
    # section, so 0.1 um solved as an open section (interlayer p 0.0775)
    # while 0.3 um, which snaps to one cell, gave 0.557; the section
    # builder refuses it, and the message names the config's keys
    def solved(thickness):
        return parse_config(edited_preset([
            ("loss.participation.substrate = 0.922481\n", ""),
            ("loss.participation.interlayer = 0.077519\n", ""),
            ("stack.interlayer_thickness = 0.5 mm",
             f"stack.interlayer_thickness = {thickness}")]))

    for run in (analyze, lambda s: device.sweep(s, "loss_tangent", [0.0])):
        with pytest.raises(ConfigError, match=r"^stack\.interlayer_thickness "
                           r"1e-07 m snaps below one fieldsolve\.cell "
                           r"\(5e-07 m\), onto the metal plane: raise "
                           r"stack\.interlayer_thickness or lower "
                           r"fieldsolve\.cell$"):
            run(solved("0.1 um"))
    assert device.resolve_participation(solved("0.3 um"))[0]["interlayer"] \
        > 0.5


def test_dispersive_shift_with_g_qr(spec):
    row = mode(analyze_preset([], extra="chip.bottom.readout.g_qr = 50 MHz\n"),
               "bottom_qubit")
    chip = spec.bottom
    nums = transmon.qubit_numbers(chip.transmon, chip.flux_bias)
    detuning = nums["frequency"] - cpw.resonator_interval(
        chip.resonator).midpoint
    assert row["chi_hz"] == {
        "value": round12(coupling.dispersive_shift(
            50e6, detuning, nums["anharmonicity"])),
        "by": "coupling.dispersive_shift"}


def test_qubit_loss_not_computed_without_baseline_q(report):
    bare = analyze_preset([("chip.bottom.transmon.baseline_q = 1.43512e6\n",
                            "")])
    row = mode(bare, "bottom_qubit")
    for key in ("q_total", "t1_upper_s", "gamma_cap_per_s"):
        assert row[key] == {
            "value": None,
            "by": "not computed: transmon.baseline_q not configured"}, key
    for name in ("bottom_resonator", "top_resonator"):
        assert mode(bare, name) == mode(report, name)


def test_report_rows_agree_with_sweep_rows():
    # the report and the sweeps share one loss path and one coupling path:
    # a sweep row at the configured value prints what the report prints
    lossy = without_coupling_frequencies(
        device.default_config_text().replace(
            "stack.interlayer_tan_delta = 0.0",
            "stack.interlayer_tan_delta = 3.3e-6"))
    assert lossy.interlayer_tan_delta == 3.3e-6
    assert lossy.coupling_f_bottom is None and lossy.coupling_f_top is None
    lossy_report = analyze(lossy)
    loss_rows = device.sweep(lossy, "loss_tangent", [3.3e-6])
    for chip in ("bottom", "top"):
        row = mode(lossy_report, f"{chip}_qubit")
        assert val(row["gamma_cap_per_s"]) > 0.0
        for key, column in (("q_total", f"q_total_{chip}"),
                            ("t1_upper_s", f"t1_upper_{chip}_s"),
                            ("gamma_cap_per_s", f"gamma_cap_{chip}_per_s")):
            assert val(row[key]) == round12(loss_rows.column(column)[0]), key
    thickness_rows = device.sweep(lossy, "interlayer_thickness",
                                  [lossy.interlayer_thickness])
    for key in ("cg_f", "r", "g_hz", "hybrid_lower_hz", "hybrid_upper_hz"):
        assert val(lossy_report.data["coupling"][key]) == round12(
            thickness_rows.column(key)[0]), key
