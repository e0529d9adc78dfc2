"""One quantity grammar: config values and CLI flags parse alike."""

import json

import pytest

from flipkit import cli, device
from flipkit.device import ConfigError, parse_config
from flipkit.units import parse_quantity

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
