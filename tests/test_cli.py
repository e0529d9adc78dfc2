"""Command surface: flags, exit codes, output formats, determinism.

Every invocation goes through cli.main() in-process so the tests see
the same code path as the console script without paying for process
spawns.  Only the closed-stdout test needs a process of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldens
from flipkit import cli, device, fieldsolve

CPW_ARGS = ["cpw", "--w", "10um", "--s", "5.806um",
            "--eps-sub", "11.9", "--eps-sup", "1"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------- exit codes

def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "cpw", "--w", "10um", "--bogus", "1")
    assert code == 1
    assert err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_conflicting_cpw_flags(capsys):
    code, _, err = run(capsys, "cpw", "--w", "10um", "--s", "1um",
                       "--z0", "50", "--eps-sub", "11.9")
    assert code == 1


def test_bad_band_unit_keeps_its_message(capsys):
    code, _, err = run(capsys, "match", "--band", "4GHz:8parsec")
    assert code == 1
    assert "frequency has no unit 'parsec'" in err
    code, _, err = run(capsys, "match", "--band", "4GHz")
    assert code == 1
    assert "band must be lo:hi" in err
    code, _, err = run(capsys, "match", "--band", "8GHz:4GHz")
    assert code == 1
    assert "empty interval: [8000000000.0, 4000000000.0]" in err


def test_bad_length_unit_keeps_its_message(capsys):
    code, _, err = run(capsys, "cpw", "--w", "10parsec")
    assert code == 1
    assert "length has no unit 'parsec'" in err


# a library check names the flag that fed the field, not the field
@pytest.mark.parametrize("argv,message", [
    (["fieldsolve", "--w", "10um", "--s", "0um", "--eps-sub", "11.9"],
     "--s must be positive"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "0.5"],
     "--eps-sub must be >= 1"),
    (["cpw", "--w", "0um", "--s", "5um", "--eps-sub", "11.9"],
     "--w must be positive"),
    (["cpw", "--w", "10um", "--z0", "50", "--eps-sub", "11.9",
      "--eps-sup", "0.5"], "--eps-sup must be >= 1"),
    (["transmon", "--cj", "0fF", "--cs", "0fF", "--lj", "8nH"],
     "--cj + --cs must be positive"),
    (["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8nH",
      "--cutoff", "0"], "--cutoff must be >= 1"),
    (["match", "--line-z0", "49.53", "--band", "4GHz:8GHz", "--points", "1"],
     "--points must be >= 2"),
    # at 0 every port read as reflectionless, and below 0 sqrt failed
    (["match", "--line-z0", "49.53", "--band", "4GHz:8GHz", "--eps-eff", "0"],
     "--eps-eff must be >= 1"),
    (["match", "--line-z0", "49.53", "--band", "4GHz:8GHz",
      "--eps-eff", "-1"], "--eps-eff must be >= 1"),
    # a NaN line impedance printed NaN into the JSON and exited 0; the
    # quantity grammar now refuses it before the library sees it
    (["match", "--line-z0", "nan", "--band", "4GHz:8GHz"],
     "argument --line-z0: cannot parse scalar value 'nan'"),
    # a band reaching down to or below 0 Hz printed a negative band_lo_hz
    (["match", "--line-z0", "49.53", "--band", "-4GHz:8GHz", "--json"],
     "argument --band: band must lie above 0 Hz, got '-4GHz:8GHz'"),
    (["match", "--line-z0", "49.53", "--band", "0:8GHz", "--json"],
     "argument --band: band must lie above 0 Hz, got '0:8GHz'"),
    # a value that starts with "-" reaches its check, not argparse's
    # "expected one argument"
    (["transmon", "--cj", "-1fF", "--cs", "70fF", "--lj", "8nH"],
     "--cj must be >= 0"),
    (["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
      "--points", "1"], "--points must be >= 2"),
    # messages that once named neither a field nor a flag
    (["smatrix", "--fr", "-7GHz", "--ql", "1000", "--qc", "2000"],
     "--fr must be positive"),
    (["smatrix", "--fr", "7GHz", "--ql", "-1000", "--qc", "2000"],
     "--ql must be positive"),
    (["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "-2000"],
     "--qc must be positive"),
    (["smatrix", "--fr", "7GHz", "--ql", "2000", "--qc", "1000"],
     "--ql cannot exceed --qc"),
    # a negative span printed "empty interval: [7000500000.0, ...]"
    (["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
      "--span", "-1MHz"], "--span must be positive"),
    (["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
      "--span", "0"], "--span must be positive"),
    (["match", "--line-z0", "49.53", "--band", "4GHz:8GHz",
      "--line-length", "-3mm"], "--line-length must be positive"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "11.9",
      "--cell", "-1um"], "--cell must be positive"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "11.9",
      "--cell", "30um"], "--cell too coarse for this geometry"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "11.9",
      "--cell", "2um", "--interlayer", "-1um"],
     "--interlayer must be positive"),
    (["cpw", "--w", "10um", "--z0", "-50", "--eps-sub", "11.9"],
     "--z0 must be positive and finite"),
    # sizes from outside input, just past each bound: nothing is allocated
    (["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
      "--points", "100002"], "--points must be <= 100001"),
    (["match", "--line-z0", "49.53", "--band", "4GHz:8GHz",
      "--points", "100002"], "--points must be <= 100001"),
    (["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8nH",
      "--cutoff", "501"], "--cutoff must be <= 500"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "11.9",
      "--cell", "97.6nm"], "--cell 9.76e-08 m makes the box 2049.18 cells "
     "wide, above 2048: raise --cell or lower --box-factor"),
    (["fieldsolve", "--w", "10um", "--s", "5um", "--eps-sub", "11.9",
      "--cell", "1um", "--box-factor", "103"], "--cell 1e-06 m makes the "
     "box 2060 cells wide, above 2048: raise --cell or lower --box-factor"),
], ids=["fieldsolve-s", "fieldsolve-eps-sub", "cpw-w", "cpw-eps-sup",
        "transmon-c", "transmon-cutoff", "match-points", "match-eps-eff-0",
        "match-eps-eff-negative", "match-line-z0-nan",
        "match-band-negative",
        "match-band-0", "transmon-cj-negative", "smatrix-points",
        "smatrix-fr", "smatrix-ql", "smatrix-qc", "smatrix-ql-above-qc",
        "smatrix-span-negative", "smatrix-span-0", "match-line-length",
        "fieldsolve-cell", "fieldsolve-cell-coarse", "fieldsolve-interlayer",
        "cpw-z0", "smatrix-points-cap", "match-points-cap",
        "transmon-cutoff-cap", "fieldsolve-cell-cap",
        "fieldsolve-box-factor-cap"])
def test_library_error_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"flipkit: {message}\n")


# every real-valued flag, with arguments that are valid without it
SCALAR_FLAG_COMMANDS = {
    "cpw": ["cpw", "--w", "10um", "--s", "5um", "--eps-sub", "11.9"],
    "transmon": ["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8.75nH"],
    "smatrix": ["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000"],
    "match": ["match", "--line-z0", "49.53", "--band", "4GHz:8GHz"],
    "fieldsolve": ["fieldsolve", "--w", "10um", "--s", "5um",
                   "--eps-sub", "11.9"],
}
SUBCOMMANDS = next(action.choices for action in cli.build_parser()._actions
                   if action.dest == "command")
SCALAR_FLAGS = [(command, flag) for command, sub in SUBCOMMANDS.items()
                for action in sub._actions if action.type is cli._scalar
                for flag in action.option_strings]


def test_no_flag_parses_with_float():
    # every real number on the command line goes through the quantity
    # grammar of units.parse_quantity
    for sub in SUBCOMMANDS.values():
        assert all(action.type is not float for action in sub._actions)
    assert len(SCALAR_FLAGS) == 15


# value flag -> the library field it feeds, per subcommand
VALUE_FLAG_FIELDS = {
    "cpw": {"--w": "trace_width", "--s": "gap", "--z0": "z_target",
            "--eps-sub": "eps_substrate", "--eps-sup": "eps_superstrate"},
    "transmon": {"--cj": "c_junction", "--cs": "c_shunt",
                 "--lj": "l_junction", "--c-eff": "c_eff",
                 "--flux": "flux_bias", "--ng": "ng", "--cutoff": "cutoff"},
    "smatrix": {"--fr": "f_r", "--ql": "q_loaded", "--qc": "q_coupling",
                "--chi": "chi", "--state": "state", "--span": "span",
                "--points": "points"},
    "match": {"--line-z0": "line_z0", "--band": "band",
              "--line-length": "line_length", "--eps-eff": "eps_eff",
              "--zmin": "zmin", "--zmax": "zmax", "--zstep": "zstep",
              "--points": "points"},
    "fieldsolve": {"--w": "trace_width", "--s": "gap",
                   "--eps-sub": "eps_substrate",
                   "--eps-sup": "eps_superstrate", "--cell": "cell",
                   "--box-factor": "box_factor",
                   "--interlayer": "interlayer_thickness"},
    "analyze": {},
    "sweep": {},
}


def test_value_flags_store_under_their_field():
    # a library message names its field, and args.flags turns that name
    # back into the flag; a renamed dest must fail here, not in a message
    argvs = {**SCALAR_FLAG_COMMANDS, "analyze": ["analyze"],
             "sweep": ["sweep", "--param", "loss_tangent", "--grid", "0"]}
    assert set(SUBCOMMANDS) == set(argvs) == set(VALUE_FLAG_FIELDS)
    for command, sub in SUBCOMMANDS.items():
        fields = {action.option_strings[0]: action.dest
                  for action in sub._actions if action.type is not None}
        assert fields == VALUE_FLAG_FIELDS[command], command
        args = cli.build_parser().parse_args(argvs[command])
        assert args.flags == {field: flag for flag, field in fields.items()}


@pytest.mark.parametrize("value,message", [
    ("nan", "cannot parse scalar value 'nan'"),
    ("inf", "cannot parse scalar value 'inf'"),
    ("1e400", "scalar value '1e400' is not finite"),
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("command,flag", SCALAR_FLAGS,
                         ids=[f"{c}{f}" for c, f in SCALAR_FLAGS])
def test_scalar_flag_rejects_non_finite(capsys, command, flag, value,
                                        message):
    code, out, err = run(capsys, *SCALAR_FLAG_COMMANDS[command], flag, value)
    assert (code, out, err) == (1, "", f"flipkit: argument {flag}: {message}\n")


def test_negative_exponent_flag_reaches_the_calculator(capsys):
    # "-1e-3" is a value, not a flag; the flux dependence is even in the
    # bias, so it must give the bytes of +1e-3 and differ from zero bias
    outs = []
    for flux in ("-1e-3", "1e-3", "0"):
        code, out, err = run(capsys, *SCALAR_FLAG_COMMANDS["transmon"],
                             "--flux", flux, "--json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] != outs[2]


def test_numeric_failure_exit_2(capsys):
    # cutoff too small for this ratio -> CutoffError -> 2
    code, _, err = run(capsys, "transmon", "--cj", "8fF", "--cs", "81fF",
                       "--lj", "0.0001nH", "--cutoff", "10")
    assert code == 2
    assert "cutoff" in err.lower()


def test_shallow_dip_extracts_loaded_q(capsys):
    # a 0.18 dB dip: the half-power width of |1 - S21|^2 is f_r / Ql at
    # any depth
    code, out, err = run(capsys, "smatrix", "--fr", "7.1GHz", "--ql", "1000",
                         "--qc", "50000", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["extracted_q"] == pytest.approx(1000.0, rel=1e-9)


def test_coarse_grid_extraction_exit_2(capsys):
    # 1 GHz steps put one sample inside a 7 MHz half-power width
    code, out, err = run(capsys, "smatrix", "--fr", "7GHz", "--ql", "1000",
                         "--qc", "2000", "--span", "10GHz", "--points", "11")
    assert (code, out) == (2, "")
    assert err == ("flipkit: 1 of 11 samples lie inside the half-power "
                   "width, fewer than 10: sample the dip more finely (raise "
                   "--points or narrow --span)\n")


@pytest.mark.parametrize("extra", [["--span", "20GHz"], ["--ql", "5"]],
                         ids=["span", "default-span"])
def test_smatrix_grid_must_lie_above_zero(capsys, tmp_path, extra):
    csv_path = tmp_path / "trace.csv"
    argv = ["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000",
            "--points", "11", "--out", str(csv_path), *extra]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("flipkit: --span ") and "above 0 Hz" in err
    assert not csv_path.exists()


def test_missing_config_file_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "--config", "/nope/missing.cfg")
    assert code == 1


# ----------------------------------------------------------------- cpw

def test_cpw_reference_numbers(capsys):
    code, out, _ = run(capsys, *CPW_ARGS)
    assert code == 0
    assert "6.45" in out
    assert "49.53" in out


def test_cpw_json_round_trip(capsys):
    code, out, _ = run(capsys, *CPW_ARGS, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_eff"] == 6.45
    assert 49.2 <= doc["z0_ohm"] <= 49.9
    # re-serializing parsed output is idempotent
    assert json.loads(json.dumps(doc)) == doc


def test_cpw_gap_synthesis(capsys):
    code, out, _ = run(capsys, "cpw", "--w", "10um", "--z0", "50",
                       "--eps-sub", "11.9", "--eps-sup", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap_m"] == pytest.approx(5.806e-6, rel=0.04)


def test_cpw_unreachable_target_names_the_range(capsys):
    code, out, err = run(capsys, "cpw", "--w", "10um", "--z0", "1e4",
                         "--eps-sub", "11.9")
    assert code == 1
    assert out == ""
    assert err == ("flipkit: target impedance 10000 ohm is out of reach: "
                   "gaps from w/100 to 100 w give 19.4128 to 157.932 ohm "
                   "at eps_eff 6.45\n")


# ------------------------------------------------------------- transmon

def test_transmon_energy_report(capsys):
    code, out, _ = run(capsys, "transmon", "--cj", "8fF", "--cs", "81fF",
                       "--lj", "8.75nH", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ec_hz"] == pytest.approx(217.6e6, abs=0.5e6)
    assert doc["ej_hz"] == pytest.approx(18.68e9, abs=0.05e9)
    assert doc["frequency_hz"] == pytest.approx(5.486e9, abs=0.01e9)
    assert doc["frequency_cpb_hz"] == pytest.approx(doc["frequency_hz"],
                                                    rel=0.01)
    assert doc["anharmonicity_hz"] < 0.0


def test_transmon_c_eff_extra_row(capsys):
    code, out, _ = run(capsys, "transmon", "--cj", "8fF", "--cs", "81fF",
                       "--lj", "8.75nH", "--c-eff", "115fF", "--json")
    doc = json.loads(out)
    assert doc["frequency_c_eff_hz"] == pytest.approx(4.85e9, rel=0.01)


# -------------------------------------------------------------- smatrix

def test_smatrix_recovers_q(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "smatrix", "--fr", "7.11524GHz",
                       "--ql", "6618.16", "--qc", "6618.16",
                       "--out", str(csv_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["extracted_q"] == pytest.approx(6618.16, rel=5e-3)
    assert doc["bandwidth_hz"] == pytest.approx(7.11524e9 / 6618.16, rel=5e-3)
    header = csv_path.read_text().splitlines()[0]
    assert header == "freq_hz,s21_re,s21_im"


@pytest.mark.parametrize("state,dressed", [("0", 7.1e9), ("1", 6.9e9)])
def test_smatrix_default_grid_centres_on_the_dressed_dip(capsys, state,
                                                         dressed):
    # a 100 MHz pull is 14 linewidths: a grid centred on the bare 7 GHz
    # cut the dip off at its edge
    code, out, err = run(capsys, "smatrix", "--fr", "7GHz", "--ql", "1000",
                         "--qc", "2000", "--chi", "100MHz", "--state", state,
                         "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["dressed_f_hz"] == doc["extracted_f_hz"] == dressed
    assert doc["extracted_q"] == pytest.approx(1000.0, rel=5e-3)


def test_smatrix_plot_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(capsys, "smatrix", "--fr", "7.1GHz", "--ql", "5000",
                         "--qc", "5000", "--plot", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


# ---------------------------------------------------------------- match

def test_match_finds_line_impedance(capsys, tmp_path):
    code, out, _ = run(capsys, *CPW_ARGS, "--json")
    z0 = json.loads(out)["z0_ohm"]
    scan = tmp_path / "match_scan.csv"
    for flags, ports in (
            (["--zmin", "45", "--zmax", "55", "--zstep", "0.5",
              "--points", "501"], 21),
            # the README's port-match recipe, on the default 0.1 ohm grid
            (["--line-length", "3mm", "--eps-eff", "6.45",
              "--points", "2001"], 201)):
        code, out, _ = run(capsys, "match", "--line-z0", repr(z0),
                           "--band", "4GHz:8GHz", *flags, "--out", str(scan),
                           "--json")
        assert code == 0, flags
        doc = json.loads(out)
        assert doc["grid_points"] == ports
        assert abs(doc["best_z_port_ohm"] - z0) <= 0.5, flags
        rows = scan.read_bytes().split(b"\n")
        assert rows[0] == b"z_port_ohm,worst_s11_db" and rows[-1] == b""
        assert len(rows) == ports + 2, flags


def test_match_step_must_divide_the_range(capsys):
    code, out, err = run(capsys, "match", "--line-z0", "49.53",
                         "--band", "4GHz:8GHz", "--zmin", "40", "--zmax",
                         "60", "--zstep", "0.3")
    assert (code, out) == (1, "")
    assert err == ("flipkit: --zstep 0.3 does not divide the range "
                   "40 to 60 ohm\n")


@pytest.mark.parametrize("zmin,message", [
    ("-5", "--zmin must be positive"),
    ("0", "--zmin must be positive"),
    # NaN once claimed "more than 100001 port points"
    ("nan", "argument --zmin: cannot parse scalar value 'nan'"),
], ids=["negative", "zero", "nan"])
def test_match_zmin_must_be_positive(capsys, zmin, message):
    code, out, err = run(capsys, "match", "--line-z0", "49.53",
                         "--band", "4GHz:8GHz", "--zmin", zmin)
    assert (code, out, err) == (1, "", f"flipkit: {message}\n")


@pytest.mark.parametrize("zstep", ["1e-12", "1e-320"])
def test_match_caps_the_port_points(capsys, zstep):
    # 2e13 points, and a count too large for a float to hold: both are
    # refused before any grid is built
    code, out, err = run(capsys, "match", "--line-z0", "49.53",
                         "--band", "4GHz:8GHz", "--zstep", zstep)
    assert (code, out) == (1, "")
    assert err == (f"flipkit: --zstep {zstep} over the range 40 to 60 ohm "
                   "gives more than 100001 port points\n")


# ------------------------------------------------------------ fieldsolve

def test_fieldsolve_coarse_cpw(capsys):
    code, out, _ = run(capsys, "fieldsolve", "--w", "10um", "--s", "5.806um",
                       "--eps-sub", "11.9", "--eps-sup", "1",
                       "--cell", "2um", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_eff"] == pytest.approx(6.45, rel=1e-6)
    assert doc["participation"]["substrate"] > 0.9
    assert sum(doc["participation"].values()) == pytest.approx(1.0, abs=1e-9)


def test_fieldsolve_dump_potential(capsys, tmp_path):
    dump = tmp_path / "v.csv"
    code, _, _ = run(capsys, "fieldsolve", "--w", "10um", "--s", "5.806um",
                     "--eps-sub", "11.9", "--cell", "4um",
                     "--dump-potential", str(dump))
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "x_m,y_m,v"
    assert len(lines) > 100


FIELDSOLVE_ARGS = ["fieldsolve", "--w", "10um", "--s", "5.806um",
                   "--eps-sub", "11.9", "--cell", "2um"]


def test_fieldsolve_nonconvergence_exit_2(capsys, monkeypatch):
    # a face solve off by far more than rounding is a numerical failure:
    # exit 2, with a message that says the solver is wrong
    inverse = fieldsolve._cholesky_inverse
    monkeypatch.setattr(fieldsolve, "_cholesky_inverse",
                        lambda a: (1.0 + 1e-9) * inverse(a))
    code, out, err = run(capsys, *FIELDSOLVE_ARGS, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("flipkit: relative residual 2.0")
    assert err.endswith("the field solver is wrong\n")


def test_fieldsolve_map_fault_exit_2(capsys, monkeypatch, tmp_path):
    # a map off by far more than rounding fails only where it is built,
    # for --dump-potential
    direct_map = fieldsolve._direct_map
    monkeypatch.setattr(fieldsolve, "_direct_map",
                        lambda *a: (1.0 + 1e-9) * direct_map(*a))
    assert run(capsys, *FIELDSOLVE_ARGS, "--json")[0] == 0
    dump = tmp_path / "v.csv"
    code, _, err = run(capsys, *FIELDSOLVE_ARGS, "--dump-potential", str(dump))
    assert code == 2
    assert "of the potential map is above 1e-12" in err
    assert not dump.exists()


def test_tol_is_retired(capsys):
    # the residual bound is fixed: --tol is no flag any more
    code, out, err = run(capsys, *FIELDSOLVE_ARGS, "--tol", "1e-8")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --tol 1e-8" in err


@pytest.mark.parametrize("interlayer", ["0.5mm", "1um"],
                         ids=["above-box", "below-one-cell"])
def test_fieldsolve_facing_ground_outside_box_exit_1(capsys, interlayer):
    # cpw_cross_section leaves such a ground out; the CLI must not print
    # the open-box result as if it were there
    code, out, err = run(capsys, "fieldsolve", "--w", "10um", "--s",
                         "5.806um", "--eps-sub", "11.9", "--cell", "2um",
                         "--interlayer", interlayer)
    assert code == 1
    assert out == ""
    assert "half-height (0.00011 m)" in err and "(2e-06 m)" in err


def test_fieldsolve_facing_ground_inside_box(capsys):
    code, out, _ = run(capsys, "fieldsolve", "--w", "10um", "--s", "5.806um",
                       "--eps-sub", "11.9", "--cell", "2um",
                       "--interlayer", "40um", "--json")
    assert code == 0
    assert json.loads(out)["eps_eff"] < 6.45


# --------------------------------------------------------------- analyze

def test_analyze_packaged_preset(capsys):
    code, out, _ = run(capsys, "analyze", "--config", "paper-default",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    names = [m["name"] for m in doc["modes"]]
    assert names == ["bottom_qubit", "top_qubit", "bottom_resonator",
                     "top_resonator"]
    assert doc["coupling"]["g_hz"]["value"] == pytest.approx(54.93e6,
                                                             abs=0.05e6)


def test_analyze_byte_identical(capsys):
    _, first, _ = run(capsys, "analyze", "--config", "paper-default",
                      "--json")
    _, second, _ = run(capsys, "analyze", "--config", "paper-default",
                       "--json")
    assert first == second


def test_analyze_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run(capsys, "analyze", "--config", "paper-default",
                    "--json", "--out", str(path))
    assert path.read_text() == out


def test_analyze_names_the_bad_key(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(device.default_config_text().replace(
        "coupling.f_top = 5.75 GHz", "coupling.f_top = 0 GHz"))
    code, out, err = run(capsys, "analyze", "--config", str(config))
    assert (code, out) == (1, "")
    assert "coupling.f_top must be positive" in err


# ------------------------------------------------- half a flux quantum

HALF_FLUX_COMMANDS = {
    "transmon": ["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8.75nH",
                 "--flux", "0.5"],
    "analyze": ["analyze", "--json"],
    "loss-sweep": ["sweep", "--param", "loss_tangent", "--grid",
                   "0:1e-3:log5"],
    "thickness-sweep": ["sweep", "--param", "interlayer_thickness",
                        "--grid", "0.1mm:4mm:log5"],
}


@pytest.mark.parametrize("name", HALF_FLUX_COMMANDS)
def test_closed_form_frequency_below_ej_ec_bound_exit_1(capsys, tmp_path,
                                                        name):
    # at half a flux quantum Ej/Ec is ~5e-15, below the 1/8 where the
    # closed form (sqrt(8 Ec Ej) - Ec) / h turns negative: the commands
    # must say why and what to change, and print no numbers
    argv = HALF_FLUX_COMMANDS[name]
    if name != "transmon":
        config = tmp_path / "half-flux.cfg"
        config.write_text(device.default_config_text()
                          + "chip.top.transmon.flux_bias = 0.5\n")
        argv = [*argv, "--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Ej/Ec = " in err and "is not above 1/8" in err
    assert "flux bias" in err and "junction inductance" in err


# -------------------------------------------------------------- golden

@pytest.mark.parametrize("golden", goldens.GOLDENS,
                         ids=[golden.path.name for golden in goldens.GOLDENS])
def test_output_matches_golden(capsys, tmp_path, golden):
    def in_process(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out.encode(), out.err.encode()

    assert goldens.mismatches(golden, in_process, tmp_path) == []


def test_every_golden_has_one_table_entry():
    # a golden added without its command would be checked by nothing
    inputs = {Path(arg) for golden in goldens.GOLDENS for arg in golden.argv
              if arg.endswith(".cfg")}
    files = {path for folder in (goldens.TESTS, goldens.BENCH)
             for path in folder.iterdir()}
    assert sorted(golden.path for golden in goldens.GOLDENS) == \
        sorted(files - inputs)


# ----------------------------------------------------------------- sweep

def test_sweep_csv_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--config", "paper-default",
                       "--param", "interlayer_thickness",
                       "--grid", "0.1mm:4mm:8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("interlayer_thickness_m,")
    assert len(lines) == 9


def test_sweep_log_grid_with_zero_start(capsys):
    # the zero point, then a log grid that ends at the stop; at 2 points
    # the stop was lost and the row after 0 read 1e-06
    for count in (2, 3, 5):
        code, out, _ = run(capsys, "sweep", "--config", "paper-default",
                           "--param", "loss_tangent",
                           "--grid", f"0:1e-2:log{count}")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == count
        assert rows[0][0] == "0"
        assert float(rows[-1][0]) == pytest.approx(1e-2, rel=1e-9)
        q = [float(row[1]) for row in rows]
        assert all(b <= a for a, b in zip(q, q[1:]))


def test_sweep_plot_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    code, _, _ = run(capsys, "sweep", "--config", "paper-default",
                     "--param", "loss_tangent", "--grid", "1e-6:1e-2:log7",
                     "--out", str(csv_path), "--plot", str(svg_path),
                     "--y", "q_total_bottom", "--logx", "--logy")
    assert code == 0
    assert csv_path.read_text().splitlines()[0].startswith("tan_delta,")
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_plot_single_row_fails(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--config", "paper-default",
                       "--param", "loss_tangent", "--grid", "1e-4",
                       "--plot", str(tmp_path / "x.svg"),
                       "--y", "q_total_bottom")
    assert code == 1


def test_sweep_plot_unknown_column_fails(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", "--config", "paper-default",
                     "--param", "loss_tangent", "--grid", "1e-6:1e-2:log5",
                     "--plot", str(tmp_path / "x.svg"), "--y", "no_such")
    assert code == 1


@pytest.mark.parametrize("param,grid,message", [
    ("interlayer_thickness", "1fF,2fF", "length has no unit 'fF'"),
    ("interlayer_thickness", "0.1mm:nan:3", "cannot parse length value 'nan'"),
    # a NaN loss tangent once printed NaN rows and exited 0
    ("loss_tangent", "nan,1e-3", "cannot parse scalar value 'nan'"),
    ("loss_tangent", "0:1e400:log5", "scalar value '1e400' is not finite"),
    # just past the cap on sample counts: nothing is allocated
    ("loss_tangent", "0:1e-3:100002", "takes at most 100001 points"),
    ("loss_tangent", "0:1e-3:log100002", "takes at most 100001 points"),
], ids=["thickness-unit", "thickness-nan", "loss-nan", "loss-overflow",
        "count-cap", "log-count-cap"])
def test_sweep_grid_value_errors_name_the_flag(capsys, param, grid, message):
    code, out, err = run(capsys, "sweep", "--param", param, "--grid", grid)
    assert (code, out, err) == (1, "", f"flipkit: --grid: {message}\n")


def test_sweep_bad_grid_syntax(capsys):
    code, _, _ = run(capsys, "sweep", "--config", "paper-default",
                     "--param", "loss_tangent", "--grid", "zero:none")
    assert code == 1


def test_quantity_parsing_rejects_garbage(capsys):
    code, _, _ = run(capsys, "cpw", "--w", "10parsec", "--s", "5um",
                     "--eps-sub", "11.9")
    assert code == 1


def source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("argv", [CPW_ARGS + ["--json"],
                                  ["analyze", "--json"]],
                         ids=["emit", "analyze"])
def test_closed_stdout_exits_quietly(argv):
    # `flipkit ... --json | head -3`: the reader is gone before the write
    proc = subprocess.Popen([sys.executable, "-m", "flipkit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=source_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


# runs each argv through cli.main with its stdout discarded, then prints
# the top-level modules that flipkit and the runs added, less the
# standard library
_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
before = {name.partition(".")[0] for name in sys.modules}
from flipkit import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
added = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


_FFT_SCRIPT = """
import contextlib, io, json, sys
loaded = []
from flipkit import cli
for argv in json.loads(sys.argv[1]):
    loaded.append("numpy.fft" in sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded.append("numpy.fft" in sys.modules)
print(json.dumps(loaded))
"""


def test_report_path_never_loads_numpy_fft(tmp_path):
    # importing numpy.fft costs a cold start ~5 ms; only the potential
    # map uses it, so neither the import, the preset report nor a field
    # solve without --dump-potential may load it; the dump, last, does
    section = ["fieldsolve", "--w", "4um", "--s", "2um", "--eps-sub", "11.9",
               "--cell", "2um"]
    argv = [["analyze", "--json"], [*section, "--json"],
            [*section, "--dump-potential", str(tmp_path / "v.csv")]]
    proc = subprocess.run(
        [sys.executable, "-c", _FFT_SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, False, True]


def test_numpy_is_the_only_runtime_dependency(tmp_path):
    commands = [
        ["analyze", "--json"],
        ["sweep", "--param", "interlayer_thickness", "--grid",
         "0.1mm:4mm:log5"],
        ["sweep", "--param", "loss_tangent", "--grid", "1e-4:1e-2:log5",
         "--out", str(tmp_path / "sweep.csv"), "--plot",
         str(tmp_path / "sweep.svg"), "--y", "q_total_bottom"],
        ["fieldsolve", "--w", "4um", "--s", "2um", "--eps-sub", "11.9",
         "--cell", "2um", "--interlayer", "10um"],
        ["transmon", "--cj", "8fF", "--cs", "81fF", "--lj", "8.75nH"],
        ["smatrix", "--fr", "7GHz", "--ql", "1000", "--qc", "2000"],
        ["match", "--line-z0", "49.5", "--band", "4GHz:8GHz",
         "--line-length", "3mm", "--eps-eff", "6.45"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=source_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"flipkit", "numpy"}
