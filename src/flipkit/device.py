"""Device assembly: configs, the analysis report, and parametric sweeps.

A device is two chips facing each other across a vacuum gap.  Each chip
carries a CPW feed, a quarter-wave readout resonator and a transmon;
the stack adds the interlayer and the facing coupling pads.  Configs
are flat text, one `section.key = value [unit]` per line; the packaged
paper-default preset carries a complete working device.

analyze() folds every module into one report with per-field provenance
(each numeric is {"value", "by"} naming the operation or config key it
came from).  Reports serialize to JSON with stable key order and
12-significant-digit floats, so identical specs give identical bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from . import coupling as coupling_mod
from . import cpw, fieldsolve, loss, network, transmon
from .numerics import RealInterval
from .tables import SweepTable
from .units import parse_quantity, round12

__all__ = [
    "ConfigError",
    "ChipSpec",
    "DeviceSpec",
    "DeviceReport",
    "parse_config",
    "load_config",
    "default_config_text",
    "paper_default",
    "analyze",
    "sweep",
]

SWEEP_PARAMETERS = ("interlayer_thickness", "loss_tangent")


class ConfigError(ValueError):
    """Invalid device configuration; carries every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ChipSpec:
    """Everything one chip contributes to the model."""

    name: str
    geometry: cpw.CpwGeometry
    resonator: cpw.ResonatorSpec
    transmon: transmon.TransmonParams
    coupling_q: float
    substrate_thickness: float | None = None
    flux_bias: float = 0.0
    baseline_q: float | None = None
    g_qr: float | None = None

    def __post_init__(self):
        errors = [f"chip.{self.name}.{key} must be positive"
                  for key, value in (
                      ("readout.coupling_q", self.coupling_q),
                      ("cpw.substrate_thickness", self.substrate_thickness),
                      ("transmon.baseline_q", self.baseline_q),
                      ("readout.g_qr", self.g_qr))
                  if value is not None and value <= 0.0]
        if errors:
            raise ConfigError(errors)


@dataclass(frozen=True)
class DeviceSpec:
    """Validated two-chip device."""

    bottom: ChipSpec
    top: ChipSpec
    interlayer_thickness: float
    interlayer_eps_r: float
    pad_overlap_area: float
    interlayer_tan_delta: float = 0.0
    coupling_f_bottom: float | None = None
    coupling_f_top: float | None = None
    participation: dict[str, float] | None = None
    fieldsolve_cell: float = 1e-6
    fieldsolve_box_factor: float = 10.0

    def __post_init__(self):
        errors = [f"{key} must be positive" for key, value in (
            ("stack.interlayer_thickness", self.interlayer_thickness),
            ("coupling.pad_overlap_area", self.pad_overlap_area),
            ("coupling.f_bottom", self.coupling_f_bottom),
            ("coupling.f_top", self.coupling_f_top),
            ("fieldsolve.cell", self.fieldsolve_cell))
            if value is not None and value <= 0.0]
        if self.interlayer_eps_r < 1.0:
            errors.append("stack.interlayer_eps_r must be >= 1")
        if self.interlayer_tan_delta < 0.0:
            errors.append("stack.interlayer_tan_delta must be >= 0")
        for name, p in (self.participation or {}).items():
            if not 0.0 <= p <= 1.0:
                errors.append(f"loss.participation.{name} must be in [0, 1]")
        if sum((self.participation or {}).values()) > 1.0 + 1e-9:
            errors.append("loss.participation values sum past 1")
        if self.fieldsolve_box_factor < 10.0:
            errors.append("fieldsolve.box_factor must be >= 10")
        if errors:
            raise ConfigError(errors)


# configuration schema: key -> (dimension in units.UNITS, required)


def _chip_schema(side: str) -> dict[str, tuple[str, bool]]:
    p = f"chip.{side}"
    return {
        f"{p}.cpw.trace_width": ("length", True),
        f"{p}.cpw.trace_gap": ("length", True),
        f"{p}.cpw.substrate_eps_r": ("scalar", True),
        f"{p}.cpw.substrate_thickness": ("length", False),
        f"{p}.resonator.length": ("length", True),
        f"{p}.resonator.pocket_extension": ("length", True),
        f"{p}.transmon.junction_capacitance": ("capacitance", True),
        f"{p}.transmon.shunt_capacitance": ("capacitance", True),
        f"{p}.transmon.junction_inductance": ("inductance", True),
        f"{p}.transmon.c_eff": ("capacitance", False),
        f"{p}.transmon.flux_bias": ("scalar", False),
        f"{p}.transmon.baseline_q": ("scalar", False),
        f"{p}.readout.coupling_q": ("scalar", True),
        f"{p}.readout.g_qr": ("frequency", False),
    }


# the key under chip.<side> that sets each CpwGeometry, ResonatorSpec and
# TransmonParams field; those records' messages name the field
_RECORD_KEYS = {
    "trace_width": "cpw.trace_width",
    "gap": "cpw.trace_gap",
    "eps_substrate": "cpw.substrate_eps_r",
    "physical_length": "resonator.length",
    "pocket_extension": "resonator.pocket_extension",
    "c_junction": "transmon.junction_capacitance",
    "c_shunt": "transmon.shunt_capacitance",
    "l_junction": "transmon.junction_inductance",
    "c_eff": "transmon.c_eff",
}

_SCHEMA: dict[str, tuple[str, bool]] = {
    **_chip_schema("bottom"),
    **_chip_schema("top"),
    "stack.interlayer_thickness": ("length", True),
    "stack.interlayer_eps_r": ("scalar", True),
    "stack.interlayer_tan_delta": ("scalar", False),
    "coupling.pad_overlap_area": ("area", True),
    "coupling.f_bottom": ("frequency", False),
    "coupling.f_top": ("frequency", False),
    "loss.participation.substrate": ("scalar", False),
    "loss.participation.interlayer": ("scalar", False),
    "fieldsolve.cell": ("length", False),
    "fieldsolve.box_factor": ("scalar", False),
}


def _parse_entries(text: str) -> tuple[dict[str, float], list[str]]:
    entries: dict[str, float] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, rhs = map(str.strip, line.split("=", 1))
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        dimension, _ = _SCHEMA[key]
        try:
            value, has_unit = parse_quantity(rhs, dimension)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
            continue
        if has_unit or dimension == "scalar":
            entries[key] = value
        else:
            errors.append(f"line {lineno}: {key}: needs a unit of {dimension}")
    return entries, errors


def parse_config(text: str) -> DeviceSpec:
    """Parse and validate a device config; every problem is reported.

    Records get only the keys the config sets.  A failed record goes on
    as None, so the record holding it is still checked; a record that
    lacks a required key is not built.
    """
    entries, errors = _parse_entries(text)
    errors += [f"missing required key {key!r}"
               for key, (_, required) in _SCHEMA.items()
               if required and key not in entries]

    def build(make, keys: dict[str, str]):
        """make(), or None once its problems are in errors."""
        try:
            return make()
        except ConfigError as exc:  # ChipSpec and DeviceSpec name their keys
            errors.extend(exc.errors)
        except ValueError as exc:  # the other records name fields: map them
            errors.append(re.sub(r"\w+", lambda m: keys.get(m[0], m[0]),
                                 str(exc)))
        except KeyError:  # a required key, already reported missing
            pass
        return None

    def given(**keys: str) -> dict[str, float]:
        """Field -> value of each optional key that the config sets."""
        return {field: entries[key] for field, key in keys.items()
                if key in entries}

    def borrowed_eps(key: str) -> float:  # below 1, its owner reports it
        return max(entries[key], 1.0)

    def build_chip(side: str) -> ChipSpec | None:
        p = f"chip.{side}"
        keys = {field: f"{p}.{key}" for field, key in _RECORD_KEYS.items()}
        value = {field: entries[key] for field, key in keys.items()
                 if key in entries}
        geometry = build(lambda: cpw.CpwGeometry(
            value["trace_width"], value["gap"], value["eps_substrate"],
            borrowed_eps("stack.interlayer_eps_r")), keys)
        resonator = build(lambda: cpw.ResonatorSpec(
            value["physical_length"], value["pocket_extension"],
            cpw.effective_permittivity(
                borrowed_eps(f"{p}.cpw.substrate_eps_r"),
                borrowed_eps("stack.interlayer_eps_r"))), keys)
        pars = build(lambda: transmon.TransmonParams(
            value["c_junction"], value["c_shunt"], value["l_junction"],
            value.get("c_eff")), keys)
        return build(lambda: ChipSpec(
            name=side, geometry=geometry, resonator=resonator, transmon=pars,
            coupling_q=entries[f"{p}.readout.coupling_q"],
            **given(substrate_thickness=f"{p}.cpw.substrate_thickness",
                    flux_bias=f"{p}.transmon.flux_bias",
                    baseline_q=f"{p}.transmon.baseline_q",
                    g_qr=f"{p}.readout.g_qr")), keys)

    participation = given(substrate="loss.participation.substrate",
                          interlayer="loss.participation.interlayer") or None
    if participation is not None and len(participation) == 1:
        errors.append("loss.participation needs both substrate and "
                      "interlayer, or neither")
    bottom, top = build_chip("bottom"), build_chip("top")
    spec = build(lambda: DeviceSpec(
        bottom=bottom, top=top,
        interlayer_thickness=entries["stack.interlayer_thickness"],
        interlayer_eps_r=entries["stack.interlayer_eps_r"],
        pad_overlap_area=entries["coupling.pad_overlap_area"],
        participation=participation,
        **given(interlayer_tan_delta="stack.interlayer_tan_delta",
                coupling_f_bottom="coupling.f_bottom",
                coupling_f_top="coupling.f_top",
                fieldsolve_cell="fieldsolve.cell",
                fieldsolve_box_factor="fieldsolve.box_factor")), {})
    if errors:
        raise ConfigError(errors)
    return spec


def load_config(path: str) -> DeviceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def default_config_text() -> str:
    """Text of the packaged paper-default preset."""
    return (resources.files("flipkit.presets") / "paper-default.cfg"
            ).read_text(encoding="utf-8")


def paper_default() -> DeviceSpec:
    return parse_config(default_config_text())


# report assembly


def _v(value, by: str) -> dict:
    if value is None:
        return {"value": None, "by": by}
    return {"value": round12(float(value)), "by": by}


@dataclass
class DeviceReport:
    """Analysis result: ordered nested dict of provenance-tagged values."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2) + "\n"


def resolve_participation(spec: DeviceSpec) -> tuple[dict[str, float], str]:
    """Energy participation per dielectric region and where it came from.

    Config values win; otherwise the bottom chip's cross-section is
    solved at the configured fieldsolve cell size.
    """
    if spec.participation is not None:
        return dict(spec.participation), "config:loss.participation"
    section = fieldsolve.cpw_cross_section(
        spec.bottom.geometry, cell=spec.fieldsolve_cell,
        box_factor=spec.fieldsolve_box_factor,
        interlayer_thickness=spec.interlayer_thickness)
    sol = fieldsolve.solve_potential(section)
    return (fieldsolve.energy_participation(sol),
            "fieldsolve.energy_participation")


def _loss_budget(tan_d: float, baseline_q: float, frequency: float,
                 participation: dict[str, float]) -> loss.LossBudget:
    """Budget of the interlayer alone; the other regions are lossless."""
    return loss.LossBudget(
        mode_frequency=frequency, baseline_q=baseline_q,
        regions={"interlayer": (participation["interlayer"], tan_d)})


def _qubit_frequency(chip: ChipSpec) -> float:
    """Closed-form qubit frequency, the value every derived quantity uses."""
    return transmon.transmon_frequency(
        *transmon.qubit_energies(chip.transmon, chip.flux_bias))


def _participation_field(participation: dict[str, float],
                         source: str) -> dict:
    return {name: _v(p, source) for name, p in participation.items()}


def _qubit_row(spec: DeviceSpec, chip: ChipSpec,
               participation: dict[str, float], part_src: str) -> dict:
    nums = transmon.qubit_numbers(chip.transmon, chip.flux_bias)
    f_q = nums["frequency"]
    row = {
        "name": f"{chip.name}_qubit",
        "kind": "qubit",
        "frequency_hz": _v(f_q, "transmon.transmon_frequency"),
        "frequency_c_eff_hz": _v(
            nums["frequency_c_eff"],
            "transmon.transmon_frequency with config:transmon.c_eff"
            if nums["frequency_c_eff"] is not None
            else "not computed: transmon.c_eff not configured"),
        "frequency_cpb_hz": _v(nums["frequency_cpb"],
                               "transmon.cpb_frequency"),
        "anharmonicity_hz": _v(nums["anharmonicity"],
                               "transmon.anharmonicity"),
        "anharmonicity_cpb_hz": _v(nums["anharmonicity_cpb"],
                                   "transmon.cpb_anharmonicity"),
        "ej_over_ec": _v(transmon.ej_ec_ratio(nums["ec"], nums["ej"]),
                         "transmon.ej_ec_ratio"),
    }
    res_mid = cpw.resonator_interval(chip.resonator).midpoint
    if chip.g_qr is not None:
        chi = coupling_mod.dispersive_shift(
            chip.g_qr, f_q - res_mid, nums["anharmonicity"])
        row["chi_hz"] = _v(chi, "coupling.dispersive_shift")
    else:
        row["chi_hz"] = _v(None, "not computed: readout.g_qr not configured")
    if chip.baseline_q is not None:
        figures = loss.loss_figures(_loss_budget(
            spec.interlayer_tan_delta, chip.baseline_q, f_q, participation))
        row["q_total"] = _v(figures["q_total"], "loss.q_with_dielectric")
        row["t1_upper_s"] = _v(figures["t1_upper_s"], "loss.t1_upper_bound")
        row["gamma_cap_per_s"] = _v(figures["gamma_cap_per_s"],
                                    "loss.dielectric_decay_rate")
    else:
        why = "not computed: transmon.baseline_q not configured"
        row["q_total"] = _v(None, why)
        row["t1_upper_s"] = _v(None, why)
        row["gamma_cap_per_s"] = _v(None, why)
    row["participation"] = _participation_field(participation, part_src)
    return row


def _resonator_row(spec: DeviceSpec, chip: ChipSpec,
                   participation: dict[str, float], part_src: str) -> dict:
    interval = cpw.resonator_interval(chip.resonator)
    mid = interval.midpoint
    figures = loss.loss_figures(_loss_budget(
        spec.interlayer_tan_delta, chip.coupling_q, mid, participation))
    return {
        "name": f"{chip.name}_resonator",
        "kind": "resonator",
        "eps_eff": _v(chip.resonator.eps_eff, "cpw.effective_permittivity"),
        "frequency_low_hz": _v(interval.lo,
                               "cpw.quarter_wave_frequency (full length)"),
        "frequency_high_hz": _v(
            interval.hi, "cpw.quarter_wave_frequency (extension removed)"),
        "q_total": _v(figures["q_total"],
                      "loss.q_with_dielectric from config:readout.coupling_q"),
        "bandwidth_hz": _v(mid / figures["q_total"],
                           "interval midpoint / q_total"),
        "t1_upper_s": _v(figures["t1_upper_s"],
                         "loss.t1_upper_bound at the interval midpoint"),
        "gamma_cap_per_s": _v(figures["gamma_cap_per_s"],
                              "loss.dielectric_decay_rate"),
        "participation": _participation_field(participation, part_src),
    }


def _coupling_frequencies(spec: DeviceSpec) -> tuple[float, str, float, str]:
    if spec.coupling_f_bottom is not None:
        f1, src1 = spec.coupling_f_bottom, "config:coupling.f_bottom"
    else:
        f1 = _qubit_frequency(spec.bottom)
        src1 = "transmon.transmon_frequency"
    if spec.coupling_f_top is not None:
        f2, src2 = spec.coupling_f_top, "config:coupling.f_top"
    else:
        f2 = _qubit_frequency(spec.top)
        src2 = "transmon.transmon_frequency"
    return f1, src1, f2, src2


def _coupling(spec: DeviceSpec, d: float, f1: float, f2: float) -> dict:
    """Pad coupling at interlayer thickness d between qubits at f1, f2."""
    cg = coupling_mod.parallel_plate_cg(spec.pad_overlap_area, d,
                                        spec.interlayer_eps_r)
    r = coupling_mod.capacitance_ratio(cg, spec.bottom.transmon.c_total,
                                       spec.top.transmon.c_total)
    g = coupling_mod.coupling_strength(r, f1, f2)
    lo, hi = coupling_mod.hybridized_modes(f1, f2, g)
    return {"cg_f": cg, "r": r, "g_hz": g, "hybrid_lower_hz": lo,
            "hybrid_upper_hz": hi}


def _coupling_block(spec: DeviceSpec) -> dict:
    f1, src1, f2, src2 = _coupling_frequencies(spec)
    c = _coupling(spec, spec.interlayer_thickness, f1, f2)
    return {
        "cg_f": _v(c["cg_f"], "coupling.parallel_plate_cg"),
        "r": _v(c["r"], "coupling.capacitance_ratio"),
        "f_bottom_hz": _v(f1, src1),
        "f_top_hz": _v(f2, src2),
        "g_hz": _v(c["g_hz"], "coupling.coupling_strength"),
        "hybrid_lower_hz": _v(c["hybrid_lower_hz"],
                              "coupling.hybridized_modes"),
        "hybrid_upper_hz": _v(c["hybrid_upper_hz"],
                              "coupling.hybridized_modes"),
    }


def analyze(spec: DeviceSpec) -> DeviceReport:
    """Full-device report: four mode rows plus the coupling block."""
    participation, part_src = resolve_participation(spec)
    data = {
        "schema": "flipkit.device.report/1",
        "stack": {
            "interlayer_thickness_m": _v(
                spec.interlayer_thickness,
                "config:stack.interlayer_thickness"),
            "interlayer_eps_r": _v(spec.interlayer_eps_r,
                                   "config:stack.interlayer_eps_r"),
            "interlayer_tan_delta": _v(spec.interlayer_tan_delta,
                                       "config:stack.interlayer_tan_delta"),
            "pad_overlap_area_m2": _v(spec.pad_overlap_area,
                                      "config:coupling.pad_overlap_area"),
        },
        "modes": [
            _qubit_row(spec, spec.bottom, participation, part_src),
            _qubit_row(spec, spec.top, participation, part_src),
            _resonator_row(spec, spec.bottom, participation, part_src),
            _resonator_row(spec, spec.top, participation, part_src),
        ],
        "coupling": _coupling_block(spec),
    }
    return DeviceReport(data=data)


# sweeps


def _notch_for(chip: ChipSpec) -> network.NotchResonator:
    mid = cpw.resonator_interval(chip.resonator).midpoint
    return network.NotchResonator(f_r=mid, q_loaded=chip.coupling_q,
                                  q_coupling=chip.coupling_q)


def _thickness_row(spec: DeviceSpec, d: float, f1: float, f2: float,
                   notches: tuple[network.NotchResonator,
                                  network.NotchResonator],
                   band: RealInterval, qubits: dict[str, float]) -> dict:
    row = _coupling(spec, d, f1, f2)
    row["crosstalk_db"] = network.crosstalk_dip(row["cg_f"], *notches, band)
    row["qubit_bottom_hz"] = qubits["bottom"]
    row["qubit_top_hz"] = qubits["top"]
    return row


def _loss_tangent_row(tan_d: float,
                      budgets: dict[str, loss.LossBudget]) -> dict:
    row: dict[str, float] = {}
    for name, budget in budgets.items():
        figures = loss.loss_figures(budget.with_tan_delta(tan_d))
        row[f"q_total_{name}"] = figures["q_total"]
        row[f"t1_upper_{name}_s"] = figures["t1_upper_s"]
        row[f"gamma_cap_{name}_per_s"] = figures["gamma_cap_per_s"]
        row[f"qubit_{name}_hz"] = budget.mode_frequency
    return row


def sweep(spec: DeviceSpec, parameter: str, values) -> SweepTable:
    """Parametric sweep over interlayer_thickness (m) or loss_tangent.

    What does not depend on the swept value is computed once: the
    closed-form qubit frequencies and, for thickness, the coupling
    frequencies, the two readout notches and the crosstalk band; for
    loss tangent, the two interlayer budgets.  Rows follow the grid order.
    """
    values = [float(x) for x in values]
    if not values:
        raise ValueError("empty sweep grid")
    chips = (spec.bottom, spec.top)
    qubits = {chip.name: _qubit_frequency(chip) for chip in chips}
    if parameter == "interlayer_thickness":
        if min(values) <= 0.0:
            raise ValueError("thickness values must be positive")
        f1, _, f2, _ = _coupling_frequencies(spec)
        near = _notch_for(spec.bottom)
        halfspan = 10.0 * near.f_r / near.q_loaded
        band = RealInterval(near.f_r - halfspan, near.f_r + halfspan)
        notches = (near, _notch_for(spec.top))
        table = SweepTable(param_name="interlayer_thickness_m")
        for d in values:
            table.add_row(d, **_thickness_row(spec, d, f1, f2, notches, band,
                                              qubits))
    elif parameter == "loss_tangent":
        if min(values) < 0.0:
            raise ValueError("loss tangents must be >= 0")
        missing = [f"chip.{c.name}.transmon.baseline_q is required for a "
                   "loss_tangent sweep" for c in chips if c.baseline_q is None]
        if missing:
            raise ConfigError(missing)
        participation, _ = resolve_participation(spec)
        budgets = {chip.name: _loss_budget(0.0, chip.baseline_q,
                                           qubits[chip.name], participation)
                   for chip in chips}
        table = SweepTable(param_name="tan_delta")
        for tan_d in values:
            table.add_row(tan_d, **_loss_tangent_row(tan_d, budgets))
    else:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            f"expected one of {SWEEP_PARAMETERS}")
    return table
