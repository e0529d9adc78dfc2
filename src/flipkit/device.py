"""Device assembly: configs, the analysis report, and parametric sweeps.

A device is two chips facing each other across an interlayer of
configured thickness, eps_r and tan delta.  Each chip carries a CPW
feed, a quarter-wave readout resonator and a transmon; the stack adds
the interlayer and the facing coupling pads.  Configs are flat text,
one `section.key = value [unit]` per line; the packaged paper-default
preset carries a complete working device.

analyze() folds every module into one report with per-field provenance
(each numeric is {"value", "by"} naming the operation or config key it
came from).  Reports serialize to JSON with stable key order and
12-significant-digit floats, so identical specs give identical bytes.
"""

from __future__ import annotations

import json
import re
from math import isfinite
from dataclasses import MISSING, dataclass, fields
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
        errors = [f"{name} must be positive" for name in (
            "coupling_q", "substrate_thickness", "baseline_q", "g_qr")
            if getattr(self, name) is not None and getattr(self, name) <= 0.0]
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
    fieldsolve_box_factor: float = fieldsolve.MIN_BOX_FACTOR

    def __post_init__(self):
        errors = [f"{name} must be positive" for name in (
            "interlayer_thickness", "pad_overlap_area", "coupling_f_bottom",
            "coupling_f_top", "fieldsolve_cell")
            if getattr(self, name) is not None and getattr(self, name) <= 0.0]
        if self.interlayer_eps_r < 1.0:
            errors.append("interlayer_eps_r must be >= 1")
        if self.interlayer_tan_delta < 0.0:
            errors.append("interlayer_tan_delta must be >= 0")
        shares = self.participation or {}
        errors += [f"participation.{name} must be in [0, 1]"
                   for name, p in shares.items() if not 0.0 <= p <= 1.0]
        if sum(shares.values()) > 1.0 + 1e-9:
            errors.append("participation values sum past 1")
        if self.fieldsolve_box_factor < fieldsolve.MIN_BOX_FACTOR:
            errors.append("fieldsolve_box_factor must be >= "
                          f"{fieldsolve.MIN_BOX_FACTOR:g}")
        if errors:
            raise ConfigError(errors)


# every config key -> (record field, dimension in units.UNITS); the chip
# keys sit under chip.<side>, and a dotted field is one entry of a dict
# field.  A key is required when its record field has no default.
_CHIP_KEYS = {
    "cpw.trace_width": ("trace_width", "length"),
    "cpw.trace_gap": ("gap", "length"),
    "cpw.substrate_eps_r": ("eps_substrate", "scalar"),
    "cpw.substrate_thickness": ("substrate_thickness", "length"),
    "resonator.length": ("physical_length", "length"),
    "resonator.pocket_extension": ("pocket_extension", "length"),
    "transmon.junction_capacitance": ("c_junction", "capacitance"),
    "transmon.shunt_capacitance": ("c_shunt", "capacitance"),
    "transmon.junction_inductance": ("l_junction", "inductance"),
    "transmon.c_eff": ("c_eff", "capacitance"),
    "transmon.flux_bias": ("flux_bias", "scalar"),
    "transmon.baseline_q": ("baseline_q", "scalar"),
    "readout.coupling_q": ("coupling_q", "scalar"),
    "readout.g_qr": ("g_qr", "frequency"),
}
_KEYS = {
    **{f"chip.{side}.{key}": entry for side in ("bottom", "top")
       for key, entry in _CHIP_KEYS.items()},
    "stack.interlayer_thickness": ("interlayer_thickness", "length"),
    "stack.interlayer_eps_r": ("interlayer_eps_r", "scalar"),
    "stack.interlayer_tan_delta": ("interlayer_tan_delta", "scalar"),
    "coupling.pad_overlap_area": ("pad_overlap_area", "area"),
    "coupling.f_bottom": ("coupling_f_bottom", "frequency"),
    "coupling.f_top": ("coupling_f_top", "frequency"),
    "loss.participation.substrate": ("participation.substrate", "scalar"),
    "loss.participation.interlayer": ("participation.interlayer", "scalar"),
    "fieldsolve.cell": ("fieldsolve_cell", "length"),
    "fieldsolve.box_factor": ("fieldsolve_box_factor", "scalar"),
}

# record -> {field: whether it has no default}
_FIELDS = {record: {f.name: f.default is MISSING for f in fields(record)}
           for record in (cpw.CpwGeometry, cpw.ResonatorSpec,
                          transmon.TransmonParams, ChipSpec, DeviceSpec)}
_REQUIRED = [key for key, (field, _) in _KEYS.items()
             if any(f.get(field.split(".")[0]) for f in _FIELDS.values())]
# scope (a chip side, or None for the stack) -> {record field: key}
_SCOPES = {scope: {field: key for key, (field, _) in _KEYS.items()
                   if key.startswith(f"chip.{scope}.")
                   or scope is None and not key.startswith("chip.")}
           for scope in ("bottom", "top", None)}


def _name_keys(message: str, scope: str | None) -> str:
    """message with each record field of scope replaced by its key, and
    a dict field (participation) by its keys' common head."""
    names = {field.split(".")[0]: key.rsplit(".", field.count("."))[0]
             for field, key in _SCOPES[scope].items()}
    return re.sub(r"\w+", lambda m: names.get(m[0], m[0]), message)


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
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in entries:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        _, dimension = _KEYS[key]
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
    lacks a required key is not built.  A permittivity that a record
    borrows counts as at least 1, missing or not: the key it comes from
    reports its own problem.
    """
    entries, errors = _parse_entries(text)
    errors += [f"missing required key {key!r}" for key in _REQUIRED
               if key not in entries]

    def given(scope: str | None) -> dict:
        """Field -> value of each key of scope that the config sets."""
        values: dict = {}
        for field, key in _SCOPES[scope].items():
            if key in entries:
                name, _, entry = field.partition(".")
                if entry:
                    values.setdefault(name, {})[entry] = entries[key]
                else:
                    values[name] = entries[key]
        return values

    def build(record, scope: str | None, values: dict):
        """record from values, or None once its problems are in errors."""
        try:
            return record(**{name: values[name] for name, needed
                             in _FIELDS[record].items()
                             if needed or name in values})
        except ValueError as exc:  # records name fields: name their keys
            errors.extend(_name_keys(str(exc), scope).split("\n"))
        except KeyError:  # a required key, already reported missing
            pass
        return None

    stack = given(None)
    if len(stack.get("participation", ())) == 1:
        errors.append(_name_keys("participation needs both substrate and "
                                 "interlayer, or neither", None))

    def build_chip(side: str) -> ChipSpec | None:
        chip = given(side)
        chip["eps_superstrate"] = max(stack.get("interlayer_eps_r", 1.0), 1.0)
        chip["eps_eff"] = cpw.effective_permittivity(
            max(chip.get("eps_substrate", 1.0), 1.0), chip["eps_superstrate"])
        return build(ChipSpec, side, {
            **chip, "name": side,
            "geometry": build(cpw.CpwGeometry, side, chip),
            "resonator": build(cpw.ResonatorSpec, side, chip),
            "transmon": build(transmon.TransmonParams, side, chip)})

    bottom, top = build_chip("bottom"), build_chip("top")
    spec = build(DeviceSpec, None, {**stack, "bottom": bottom, "top": top})
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
    solved at the configured fieldsolve cell size.  A facing chip that
    snaps below one cell is refused: the section would leave it out.
    """
    if spec.participation is not None:
        return dict(spec.participation), "config:loss.participation"
    try:
        section = fieldsolve.cpw_cross_section(
            spec.bottom.geometry, cell=spec.fieldsolve_cell,
            box_factor=spec.fieldsolve_box_factor,
            interlayer_thickness=spec.interlayer_thickness)
    except ValueError as exc:  # the solver names its parameters
        raise ConfigError([re.sub(r"\b(cell|box_factor)\b", r"fieldsolve.\1",
                                  str(exc))]) from None
    if spec.interlayer_thickness < spec.fieldsolve_cell and not any(
            c.name == "facing_ground" for c in section.conductors):
        raise ConfigError([
            f"stack.interlayer_thickness {spec.interlayer_thickness:.6g} m "
            "puts the facing ground below one fieldsolve.cell "
            f"({spec.fieldsolve_cell:.6g} m), where the field solve leaves "
            "it out: lower fieldsolve.cell or set loss.participation.*"])
    sol = fieldsolve.solve_potential(section)
    return (fieldsolve.energy_participation(sol),
            "fieldsolve.energy_participation")


def _loss_budget(tan_d: float, baseline_q: float, frequency: float,
                 participation: dict[str, float]) -> loss.LossBudget:
    """Budget of the interlayer alone; the other regions are lossless."""
    return loss.LossBudget(
        mode_frequency=frequency, baseline_q=baseline_q,
        regions={"interlayer": (participation["interlayer"], tan_d)})


def _qubit_row(spec: DeviceSpec, chip: ChipSpec, nums: dict,
               participation: dict[str, float], part_src: str) -> dict:
    """Mode row of chip's qubit from its transmon.qubit_numbers."""
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
    # each figure defaults to not computed, naming the key it needs
    for key in ("chi_hz", "q_total", "t1_upper_s", "gamma_cap_per_s"):
        needs = "readout.g_qr" if key == "chi_hz" else "transmon.baseline_q"
        row[key] = _v(None, f"not computed: {needs} not configured")
    if chip.g_qr is not None:
        res_mid = cpw.resonator_interval(chip.resonator).midpoint
        chi = coupling_mod.dispersive_shift(
            chip.g_qr, f_q - res_mid, nums["anharmonicity"])
        row["chi_hz"] = _v(chi, "coupling.dispersive_shift")
    if chip.baseline_q is not None:
        figures = loss.loss_figures(_loss_budget(
            spec.interlayer_tan_delta, chip.baseline_q, f_q, participation))
        row["q_total"] = _v(figures["q_total"], "loss.q_with_dielectric")
        row["t1_upper_s"] = _v(figures["t1_upper_s"], "loss.t1_upper_bound")
        row["gamma_cap_per_s"] = _v(figures["gamma_cap_per_s"],
                                    "loss.dielectric_decay_rate")
    row["participation"] = {name: _v(p, part_src)
                            for name, p in participation.items()}
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
        "participation": {name: _v(p, part_src)
                          for name, p in participation.items()},
    }


def _coupling_frequencies(spec: DeviceSpec, closed: dict[str, float]
                          ) -> list[tuple[float, str]]:
    """(frequency, source) of the bottom, then the top qubit: the config's
    coupling.f_<side> when set, else closed[side], the closed form."""
    given = {"bottom": spec.coupling_f_bottom, "top": spec.coupling_f_top}
    return [(closed[side], "transmon.transmon_frequency") if f is None
            else (f, f"config:coupling.f_{side}") for side, f in given.items()]


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


def _coupling_block(spec: DeviceSpec, closed: dict[str, float]) -> dict:
    (f1, src1), (f2, src2) = _coupling_frequencies(spec, closed)
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
    """Full-device report: four mode rows plus the coupling block, from
    one qubit_numbers per chip."""
    participation, part_src = resolve_participation(spec)
    chips = (spec.bottom, spec.top)
    nums = {chip.name: transmon.qubit_numbers(chip.transmon, chip.flux_bias)
            for chip in chips}
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
            *(_qubit_row(spec, chip, nums[chip.name], participation,
                         part_src) for chip in chips),
            *(_resonator_row(spec, chip, participation, part_src)
              for chip in chips),
        ],
        "coupling": _coupling_block(spec, {
            side: n["frequency"] for side, n in nums.items()}),
    }
    return DeviceReport(data=data)


# sweeps


def _notch_for(chip: ChipSpec) -> network.NotchResonator:
    mid = cpw.resonator_interval(chip.resonator).midpoint
    return network.NotchResonator(f_r=mid, q_loaded=chip.coupling_q,
                                  q_coupling=chip.coupling_q)


def _thickness_row(spec: DeviceSpec, d: float, f1: float, f2: float,
                   qubits: dict[str, float]) -> dict:
    # crosstalk_db holds its column's place; sweep fills it for all rows
    row = _coupling(spec, d, f1, f2)
    row["crosstalk_db"] = None
    row["qubit_bottom_hz"] = qubits["bottom"]
    row["qubit_top_hz"] = qubits["top"]
    return row


def _loss_tangent_row(tan_d: float,
                      budgets: dict[str, loss.LossBudget]) -> dict:
    row: dict[str, float] = {}
    for name, budget in budgets.items():
        figures = loss.loss_figures(budget, tan_d)
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
    loss tangent, the two interlayer budgets.  A thickness sweep's
    crosstalk column comes from one crosstalk_dip call with every row's
    bridge capacitance.  Rows follow the grid order.
    """
    values = [float(x) for x in values]
    if not values:
        raise ValueError("empty sweep grid")
    if not all(map(isfinite, values)):
        raise ValueError("sweep values must be finite")
    chips = (spec.bottom, spec.top)
    qubits = {chip.name: transmon.transmon_frequency(
        *transmon.qubit_energies(chip.transmon, chip.flux_bias))
        for chip in chips}
    if parameter == "interlayer_thickness":
        if min(values) <= 0.0:
            raise ValueError("thickness values must be positive")
        (f1, _), (f2, _) = _coupling_frequencies(spec, qubits)
        near = _notch_for(spec.bottom)
        halfspan = 10.0 * near.f_r / near.q_loaded
        band = RealInterval(near.f_r - halfspan, near.f_r + halfspan)
        rows = [_thickness_row(spec, d, f1, f2, qubits) for d in values]
        dips = network.crosstalk_dip([row["cg_f"] for row in rows], near,
                                     _notch_for(spec.top), band)
        table = SweepTable(param_name="interlayer_thickness_m")
        for d, row, dip in zip(values, rows, dips):
            row["crosstalk_db"] = dip
            table.add_row(d, **row)
    elif parameter == "loss_tangent":
        if min(values) < 0.0:
            raise ValueError("loss tangents must be >= 0")
        missing = [_name_keys("baseline_q is required for a loss_tangent "
                              "sweep", c.name)
                   for c in chips if c.baseline_q is None]
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
