"""One quantity grammar: config values and CLI flags parse alike."""

import json

import pytest

from flipkit import cli, cpw, device, fieldsolve
from flipkit.device import ConfigError, parse_config
from flipkit.units import parse_quantity, round12

WIDTH_LINE = "chip.bottom.cpw.trace_width = 10 um"


def config_width(text):
    """Bottom trace width parsed from the preset with one value edited."""
    preset = device.default_config_text()
    assert WIDTH_LINE in preset
    spec = parse_config(preset.replace(
        WIDTH_LINE, f"chip.bottom.cpw.trace_width = {text}"))
    return spec.bottom.geometry.trace_width


def cli_width(text, capsys):
    code = cli.main(["cpw", "--w", text, "--s", "5um", "--eps-sub", "11.9",
                     "--json"])
    out = capsys.readouterr().out
    if code != 0:
        raise ValueError(f"exit {code}")
    return json.loads(out)["trace_width_m"]


@pytest.mark.parametrize("text,want", [
    ("5um", 5e-6), ("5 um", 5e-6), (".5e-2 mm", 5e-6), ("5µm", 5e-6),
    ("5 parsec", None), ("5um2", None), ("5 3", None), ("abc", None),
    ("1e400 um", None)])
def test_config_and_cli_share_the_grammar(text, want, capsys):
    if want is None:
        with pytest.raises(ConfigError):
            config_width(text)
        with pytest.raises(ValueError):
            cli_width(text, capsys)
    else:
        assert config_width(text) == pytest.approx(want, rel=1e-12)
        assert cli_width(text, capsys) == pytest.approx(want, rel=1e-12)


def test_bare_number_is_si_on_the_cli_but_rejected_in_config(capsys):
    # dimensioned config keys must say their unit; flags take SI numbers
    with pytest.raises(ConfigError, match="needs a unit of length"):
        config_width("5")
    assert cli_width("5", capsys) == 5.0
    assert parse_quantity("5", "length") == (5.0, False)


def test_parse_quantity_reports_unit_and_dimension():
    assert parse_quantity(" 8.75 nH ", "inductance") == (8.75e-9, True)
    assert parse_quantity("-2GHz", "frequency") == (-2e9, True)
    with pytest.raises(ValueError, match="inductance has no unit 'fF'"):
        parse_quantity("8fF", "inductance")
    with pytest.raises(ValueError, match="scalar has no unit 'um'"):
        parse_quantity("5um", "scalar")
    # a finite number can overflow once its unit scales it to SI
    with pytest.raises(ValueError, match="'1e300 GHz' is not finite"):
        parse_quantity("1e300 GHz", "frequency")
    # an exponent past 4000 digits is refused by the grammar, not by int()
    with pytest.raises(ValueError, match="^cannot parse length value"):
        parse_quantity("1e" + "0" * 4001 + "1 um", "length")


@pytest.mark.parametrize("text,dimension,decimal", [
    ("10um", "length", "10e-6"), ("5.806 um", "length", "5.806e-6"),
    (".5e-2 mm", "length", ".5e-5"), ("1e-3 m", "length", "1e-3"),
    ("81fF", "capacitance", "81e-15"), ("8fF", "capacitance", "8e-15"),
    ("7nH", "inductance", "7e-9"), ("8.75 nH", "inductance", "8.75e-9"),
    ("7.11524GHz", "frequency", "7.11524e9"),
    ("-3.3e-6 kHz", "frequency", "-3.3e-3"),
    ("0.1034481 mm2", "area", "0.1034481e-6"),
    ("1.5e3 um2", "area", "1.5e-9"), ("11.9", "scalar", "11.9")])
def test_quantity_is_the_decimal_it_spells(text, dimension, decimal):
    # one correctly rounded conversion of the decimal; a float product
    # rounds twice (10um gave 9.999999999999999e-06, 81fF
    # 8.100000000000001e-14)
    assert parse_quantity(text, dimension)[0] == float(decimal)


def test_cli_and_library_agree_on_a_snapping_tie(capsys):
    # at a 2 um cell the 10 um trace's half-width lies on a half cell,
    # where snapping is a tie: 9.999999999999999e-06 snapped to an 8 um
    # trace and printed 63.9443509596 ohm
    code = cli.main(["fieldsolve", "--w", "10um", "--s", "6um",
                     "--eps-sub", "11.9", "--cell", "2um", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    section = fieldsolve.cpw_cross_section(
        cpw.CpwGeometry(10e-6, 6e-6, 11.9), cell=2e-6)
    _, z0 = fieldsolve.extract_eps_eff_and_z0(section)
    assert json.loads(out)["z0_ohm"] == round12(z0) == 52.1084022119
