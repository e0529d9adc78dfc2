"""The benchmark's three workloads: seeded inputs, timed requests, oracles.

Each workload is a closed loop with one client.  request(i) draws the
i-th input from the seeded generator (inputs are drawn in order, so a
seed always gives the same sequence), run(req) is the timed part and
check(req, out) runs the oracles afterwards, outside the timed region.
A request's kind is its cost class (coupling frequencies given or
recomputed, which study, facing ground or not).  Kinds follow the
request position, and each workload's `cycle` holds every kind, so
every run measures the same mix of kinds whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flipkit import cli, cpw, device, fieldsolve, network
from flipkit.constants import E_CHARGE, PHI_0, PLANCK_H
from flipkit.numerics import RealInterval
from flipkit.tables import SweepTable

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9

# the CLI grids 0.1mm:4mm:log25 and 0:1e-3:log25, computed as cli does
THICKNESS_GRID = [float(x) for x in np.geomspace(0.1 * 1e-3, 4.0 * 1e-3, 25)]
LOSS_GRID = [0.0] + [float(x) for x in np.geomspace(1e-4 * 1e-3, 1e-3, 24)]

# `flipkit match` defaults, with the README's 4-8 GHz band
MATCH_BAND = RealInterval(4.0 * 1e9, 8.0 * 1e9)
MATCH_Z = [float(z) for z in np.linspace(40.0, 60.0, 201)]
MATCH_STEP = 0.1
MATCH_LINE_LENGTH = 2e-3
MATCH_EPS_EFF = 6.45
MATCH_POINTS = 201

# cross-sections keep the preset's w + 2s aperture, so the grid stays at
# about 218^2 cells at 1 um and 434^2 at 0.5 um whatever the draw
XSEC_APERTURE = 21.612e-6
XSEC_CELLS = (("1um", 1e-6), ("0.5um", 0.5e-6))
XSEC_EPS = (9.8, 11.45, 11.9)
SUBSTRATE_EPS = 11.9

CPB_CUTOFF = 30


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def compare_numeric(got, want, path="") -> list[str]:
    """Differences between two JSON values, floats to REL_TOL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys differ"]
        return [d for k in want
                for d in compare_numeric(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare_numeric(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if rel_close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def cpb_oracle(ec: float, ej: float) -> tuple[float, float]:
    """(f01, anharmonicity) in Hz from numpy eigvalsh of the charge basis."""
    n = np.arange(-CPB_CUTOFF, CPB_CUTOFF + 1, dtype=float)
    ham = np.diag(4.0 * ec * n * n)
    off = np.full(n.size - 1, -0.5 * ej)
    ham += np.diag(off, 1) + np.diag(off, -1)
    w = np.linalg.eigvalsh(ham)
    return ((w[1] - w[0]) / PLANCK_H,
            ((w[2] - w[1]) - (w[1] - w[0])) / PLANCK_H)


def run_cli(args: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Wall time and stdout of one cold `python -m flipkit.cli` process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "flipkit.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"flipkit {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return elapsed, proc.stdout


# device designs


def _g(x: float) -> str:
    return f"{x:.12g}"


def draw_design(rng: random.Random, with_f: bool) -> dict:
    """Seeded two-chip device; numbers are kept as the text flipkit parses.

    Each chip's Ej/Ec is drawn uniformly from 30-120, which the cutoff-30
    charge basis covers.  The readout resonators are drawn detuned, as
    in the preset: 4.2-4.4 mm on the bottom chip and 3.95-4.1 mm on the
    top, far outside each other's 10-linewidth crosstalk band.  Inside
    that band network.crosstalk_dip misses its oracle (README, "Standing
    failure"), and the benchmark's workloads must run without failures.
    """
    chips = {}
    for side, length in (("bottom", (4.2, 4.4)), ("top", (3.95, 4.1))):
        ratio = rng.uniform(30.0, 120.0)
        cj_ff, cs_ff = 8.0, rng.uniform(60.0, 100.0)
        ec = E_CHARGE * E_CHARGE / (2.0 * (cj_ff + cs_ff) * 1e-15)
        flux = rng.uniform(0.0, 0.3)
        ej_max = ratio * ec / abs(math.cos(math.pi * flux))
        lj_nh = (PHI_0 / (2.0 * math.pi)) ** 2 / ej_max * 1e9
        chips[side] = {
            "w_um": _g(rng.uniform(6.0, 14.0)),
            "z0": rng.uniform(45.0, 55.0),
            "cj_ff": _g(cj_ff), "cs_ff": _g(cs_ff), "lj_nh": _g(lj_nh),
            "flux": _g(flux),
            "c_eff_ff": _g((cj_ff + cs_ff) * rng.uniform(1.1, 1.4)),
            "baseline_q": _g(rng.uniform(5e5, 2e6)),
            "coupling_q": _g(rng.uniform(4000.0, 8000.0)),
            "length_mm": _g(rng.uniform(*length)),
        }
    p_sub = float(_g(rng.uniform(0.85, 0.95)))
    design = {
        "chips": chips,
        "thickness_mm": _g(rng.uniform(0.2, 1.5)),
        "tan_delta": _g(rng.uniform(1e-7, 1e-5)),
        "area_mm2": _g(rng.uniform(0.05, 0.15)),
        "p_sub": _g(p_sub), "p_int": _g(1.0 - p_sub),
        "f_bottom_ghz": _g(rng.uniform(4.8, 5.4)),
        "f_top_ghz": _g(rng.uniform(5.5, 6.1)),
        "with_f": with_f,
    }
    return design


def synthesize_gaps(design: dict) -> dict[str, float]:
    eps_eff = cpw.effective_permittivity(SUBSTRATE_EPS, 1.0)
    return {side: cpw.solve_gap_for_impedance(float(c["w_um"]) * 1e-6,
                                              eps_eff, c["z0"])
            for side, c in design["chips"].items()}


def render(design: dict, gaps: dict[str, float]) -> str:
    lines = []
    for side, c in design["chips"].items():
        p = f"chip.{side}"
        lines += [
            f"{p}.cpw.trace_width = {c['w_um']} um",
            f"{p}.cpw.trace_gap = {gaps[side]!r} m",
            f"{p}.cpw.substrate_eps_r = {SUBSTRATE_EPS}",
            f"{p}.cpw.substrate_thickness = 0.75 mm",
            f"{p}.resonator.length = {c['length_mm']} mm",
            f"{p}.resonator.pocket_extension = 0.25 mm",
            f"{p}.transmon.junction_capacitance = {c['cj_ff']} fF",
            f"{p}.transmon.shunt_capacitance = {c['cs_ff']} fF",
            f"{p}.transmon.junction_inductance = {c['lj_nh']} nH",
            f"{p}.transmon.flux_bias = {c['flux']}",
            f"{p}.transmon.c_eff = {c['c_eff_ff']} fF",
            f"{p}.transmon.baseline_q = {c['baseline_q']}",
            f"{p}.readout.coupling_q = {c['coupling_q']}",
        ]
    lines += [
        f"stack.interlayer_thickness = {design['thickness_mm']} mm",
        "stack.interlayer_eps_r = 1.0",
        f"stack.interlayer_tan_delta = {design['tan_delta']}",
        f"coupling.pad_overlap_area = {design['area_mm2']} mm2",
        f"loss.participation.substrate = {design['p_sub']}",
        f"loss.participation.interlayer = {design['p_int']}",
    ]
    if design["with_f"]:
        lines += [f"coupling.f_bottom = {design['f_bottom_ghz']} GHz",
                  f"coupling.f_top = {design['f_top_ghz']} GHz"]
    return "\n".join(lines) + "\n"


def chip_energies(chip: dict) -> tuple[float, float]:
    """(Ec, Ej) in joules from the design text, computed here."""
    c_total = float(chip["cj_ff"]) * 1e-15 + float(chip["cs_ff"]) * 1e-15
    ec = E_CHARGE * E_CHARGE / (2.0 * c_total)
    phi = PHI_0 / (2.0 * math.pi)
    ej_max = phi * phi / (float(chip["lj_nh"]) * 1e-9)
    return ec, ej_max * abs(math.cos(math.pi * float(chip["flux"])))


def check_report(design: dict, text: str) -> list[str]:
    """CPB oracle per qubit row and g = r sqrt(f1 f2) on the report."""
    data = json.loads(text)
    fails = []
    rows = {row["name"]: row for row in data["modes"]}
    for side, chip in design["chips"].items():
        f01, anh = cpb_oracle(*chip_energies(chip))
        row = rows[f"{side}_qubit"]
        for key, want in (("frequency_cpb_hz", f01),
                          ("anharmonicity_cpb_hz", anh)):
            got = row[key]["value"]
            if not rel_close(got, want):
                fails.append(f"{side} {key} {got!r} vs eigvalsh {want!r}")
    cp = data["coupling"]
    want_g = cp["r"]["value"] * math.sqrt(cp["f_bottom_hz"]["value"]
                                          * cp["f_top_hz"]["value"])
    if not rel_close(cp["g_hz"]["value"], want_g):
        fails.append(f"g_hz {cp['g_hz']['value']!r} vs r sqrt(f1 f2) "
                     f"{want_g!r}")
    return fails


@dataclass
class Request:
    index: int
    data: dict
    kind: str
    via_cli: bool = False


@dataclass
class Outcome:
    text: str = ""
    output: str = ""
    report: object = None
    extra: dict = field(default_factory=dict)


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    name = ""
    # spans that must never open on this workload (layer bypass checks)
    bypassed: tuple[str, ...] = ()
    # requests per rotation of request kinds; the loop runs whole cycles
    cycle = 2

    def __init__(self, seed: int, workdir: Path, env: dict, root: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = env
        self.root = root
        self._requests: list[Request] = []

    def request(self, i: int) -> Request:
        while len(self._requests) <= i:
            self._requests.append(self._draw(len(self._requests)))
        return self._requests[i]

    def reference_checks(self) -> tuple[int, list[str]]:
        """(checks made, failures) against perfbench/reference."""
        return 0, []

    def cold_source(self, results, k, kinds):
        """The request that the k-th cold CLI start repeats: successful
        requests of the given kinds, the kinds taken in turn."""
        groups = {}
        for r in results:
            if r.error is None and r.request.kind in kinds:
                groups.setdefault(r.request.kind, []).append(r)
        if not groups:
            raise RuntimeError("no request to start from")
        group = list(groups.values())[k % len(groups)]
        return group[(k // len(groups)) % len(group)]


class DesignLoop(Workload):
    name = "design_loop"
    bypassed = ("fieldsolve.solve_potential",)

    def _draw(self, i):
        # coupling.f_* on every other design; without it the report
        # recomputes the qubit numbers.  Designs 14 and 15 of every 20
        # (10%, one of each kind) go through in-process cli.main.
        with_f = i % 2 == 0
        return Request(i, draw_design(self.rng, with_f),
                       "given_f" if with_f else "recompute",
                       via_cli=(i // 2) % 10 == 7)

    def run(self, req):
        text = render(req.data, synthesize_gaps(req.data))
        if req.via_cli:
            path = self.workdir / f"design-{req.index}.cfg"
            path.write_text(text, encoding="utf-8")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["analyze", "--config", str(path), "--json"])
            if code != 0:
                raise RuntimeError(f"flipkit analyze exited {code}")
            return Outcome(text=text, output=buf.getvalue())
        report = device.analyze(device.parse_config(text))
        return Outcome(text=text, output=report.to_json(), report=report)

    def check(self, req, out):
        fails = check_report(req.data, out.output)
        if out.report is not None:
            if out.report.to_json() != out.output:
                fails.append("two to_json calls differ")
        else:
            lib = device.analyze(device.parse_config(out.text)).to_json()
            if lib != out.output:
                fails.append("in-process CLI bytes differ from library "
                             "to_json")
        return fails

    def cold_start(self, results, k):
        """Cold `flipkit analyze --json` on the packaged preset, the
        command's default.  Its work is the same in every run, so the
        cold-start metric does not carry the spread of the seeded
        designs' costs."""
        elapsed, out = run_cli(["analyze", "--json"], self.env, self.root)
        if out != self.preset_json:
            return "preset", elapsed, ["subprocess CLI bytes differ from "
                                       "library to_json of the preset"]
        return "preset", elapsed, []

    def reference_checks(self):
        want = json.loads((REFERENCE / "preset_analyze.json").read_text())
        self.preset_json = device.analyze(device.paper_default()).to_json()
        got = json.loads(self.preset_json)
        return 1, [f"preset analyze{d}" for d in compare_numeric(got, want)]

    def named(self, lat, busy, results):
        n = len(lat)
        k = n - 10 if n > 10 else n
        return [
            ("design_p50_ms", _median(lat) * 1e3, "ms", f"{n} designs"),
            ("design_tail_ms", sorted(lat)[k - 1] * 1e3, "ms",
             f"p{100.0 * k / n:.0f} of {n} designs, {n - k} beyond"),
            ("designs_per_s", n / busy, "1/s", "designs / loop busy time"),
        ]


class StudySweeps(Workload):
    name = "study_sweeps"
    bypassed = ("fieldsolve.solve_potential",)
    # one study per request, and a request's kind is its study.  The match
    # studies take milliseconds and the sweeps seconds, so a rotation runs
    # six match studies to give their median more samples.  Every other
    # design sets coupling.f_*; the two thickness sweeps of a rotation fall
    # on one of each (without it every row recomputes the qubit numbers),
    # so the thickness median is the mean of the two, and so is the loss
    # median of its two sweeps.  Loss rows do not use coupling.f_*.
    ROTATION = ("match", "match", "thickness", "match", "loss",
                "match", "match", "thickness", "match", "loss")
    cycle = len(ROTATION)

    def _draw(self, i):
        with_f = i % 2 == 0
        study = self.ROTATION[i % len(self.ROTATION)]
        return Request(i, draw_design(self.rng, with_f), study)

    def run(self, req):
        gaps = synthesize_gaps(req.data)
        spec = device.parse_config(render(req.data, gaps))
        if req.kind == "thickness":
            table = device.sweep(spec, "interlayer_thickness", THICKNESS_GRID)
            table.to_csv()
            return Outcome(extra={"table": table})
        if req.kind == "loss":
            table = device.sweep(spec, "loss_tangent", LOSS_GRID)
            table.to_csv()
            return Outcome(extra={"table": table})
        z_line = cpw.characteristic_impedance(
            float(req.data["chips"]["bottom"]["w_um"]) * 1e-6,
            gaps["bottom"], cpw.effective_permittivity(SUBSTRATE_EPS, 1.0))
        table = SweepTable(param_name="z_port_ohm")
        for z in MATCH_Z:
            table.add_row(z, worst_s11_db=network.worst_case_reflection(
                z_line, z, MATCH_BAND, MATCH_LINE_LENGTH, MATCH_EPS_EFF,
                MATCH_POINTS))
        table.to_csv()
        best = int(np.argmin(table.columns["worst_s11_db"]))
        return Outcome(extra={"table": table, "z_line": z_line,
                              "best_z": table.param_values[best],
                              "best_db": table.columns["worst_s11_db"][best]})

    def check(self, req, out):
        fails = []
        table = out.extra["table"]
        if req.kind == "thickness":
            for col in ("qubit_bottom_hz", "qubit_top_hz"):
                if len(set(table.column(col))) != 1:
                    fails.append(f"{col} varies down the thickness sweep")
            xt = table.column("crosstalk_db")
            if min(xt) < 0.0 or any(b > a for a, b in zip(xt, xt[1:])):
                fails.append("crosstalk_db is negative or rises with "
                             "thickness")
        elif req.kind == "loss":
            p_int = float(req.data["p_int"])
            for side, chip in req.data["chips"].items():
                qb = float(chip["baseline_q"])
                for tan_d, q in zip(table.param_values,
                                    table.column(f"q_total_{side}")):
                    want = 1.0 / (1.0 / qb + p_int * tan_d)
                    if not rel_close(q, want, 1e-12):
                        fails.append(f"q_total_{side} at tan {tan_d!r}: "
                                     f"{q!r} vs {want!r}")
        elif abs(out.extra["best_z"] - out.extra["z_line"]) > MATCH_STEP * (
                1.0 + 1e-9):
            fails.append(f"match best {out.extra['best_z']!r} ohm is more "
                         f"than a step from {out.extra['z_line']!r}")
        return fails

    def cold_start(self, results, k):
        """Cold `flipkit match --json` for the line of a match study above."""
        extra = self.cold_source(results, k, ("match",)).outcome.extra
        elapsed, out = run_cli(["match", "--line-z0", repr(extra["z_line"]),
                                "--band", "4GHz:8GHz", "--json"],
                               self.env, self.root)
        got = json.loads(out)
        if not (rel_close(got["best_z_port_ohm"], extra["best_z"])
                and rel_close(got["best_worst_s11_db"], extra["best_db"])):
            return "match", elapsed, ["subprocess match differs from the "
                                      "study"]
        return "match", elapsed, []

    def reference_checks(self):
        """Preset sweep rows at three seeded grid points against the
        stored CLI-grid tables (rows are computed point by point, so a
        sub-grid gives the same rows)."""
        rows = sorted(self.rng.sample(range(25), 3))
        spec = device.paper_default()
        fails = []
        for param, grid, ref in (
                ("interlayer_thickness", THICKNESS_GRID,
                 "preset_thickness.csv"),
                ("loss_tangent", LOSS_GRID, "preset_loss.csv")):
            lines = (REFERENCE / ref).read_text().splitlines()
            got = device.sweep(spec, param, [grid[i] for i in rows])
            got_lines = got.to_csv().splitlines()
            if got_lines[0] != lines[0]:
                fails.append(f"{ref}: header differs")
                continue
            for k, i in enumerate(rows):
                want = [float(x) for x in lines[1 + i].split(",")]
                have = [float(x) for x in got_lines[1 + k].split(",")]
                if not all(rel_close(a, b) or a == b
                           for a, b in zip(have, want)):
                    fails.append(f"{ref}: row {i} differs")
        return 2, fails

    def named(self, lat, busy, results):
        ok = {study: [r for r in results if r.error is None
                      and r.request.kind == study]
              for study in ("match", "thickness", "loss")}
        sweeps = ok["thickness"] + ok["loss"]
        rows = sum(r.outcome.extra["table"].n_rows for r in sweeps)
        sweep_time = sum(r.seconds for r in sweeps)
        return [
            ("thickness_sweep_s", _median([r.seconds for r in
                                           ok["thickness"]]), "s",
             f"{len(ok['thickness'])} sweeps of 25 rows"),
            ("loss_sweep_s", _median([r.seconds for r in ok["loss"]]), "s",
             f"{len(ok['loss'])} sweeps of 25 rows"),
            ("match_study_ms",
             _median([r.seconds for r in ok["match"]]) * 1e3, "ms",
             f"{len(ok['match'])} studies of 201 port impedances x 201 "
             "frequencies"),
            ("sweep_rows_per_s", rows / sweep_time if sweep_time else 0.0,
             "1/s", "rows / time of the sweep requests"),
        ]


class CrossSection(Workload):
    name = "cross_section"
    bypassed = ("transmon.cpb_spectrum", "network.crosstalk_dip",
                "network.worst_case_reflection")

    def _draw(self, i):
        eps = self.rng.choice(XSEC_EPS)
        z0 = self.rng.uniform(45.0, 60.0)
        lid = self.rng.uniform(20e-6, 80e-6) if i % 2 == 1 else None
        eps_eff = cpw.effective_permittivity(eps, 1.0)
        gap_per_width = cpw.solve_gap_for_impedance(1.0, eps_eff, z0)
        width = XSEC_APERTURE / (1.0 + 2.0 * gap_per_width)
        return Request(i, {"eps": eps, "z0": z0, "lid": lid, "w": width},
                       "facing" if lid else "open")

    def run(self, req):
        d = req.data
        gap = cpw.solve_gap_for_impedance(
            d["w"], cpw.effective_permittivity(d["eps"], 1.0), d["z0"])
        geometry = cpw.CpwGeometry(d["w"], gap, d["eps"], 1.0)
        stages, cells = {}, {}
        for label, cell in XSEC_CELLS:
            t0 = time.perf_counter()
            section = fieldsolve.cpw_cross_section(
                geometry, cell=cell, interlayer_thickness=d["lid"])
            sol = fieldsolve.solve_potential(section)
            c = fieldsolve.capacitance_per_length(sol)
            part = fieldsolve.energy_participation(sol)
            eps_eff, z0 = fieldsolve.extract_eps_eff_and_z0(section,
                                                            solution=sol)
            stages[label] = time.perf_counter() - t0
            cells[label] = {"c": c, "eps_eff": eps_eff, "z0": z0,
                            "part": part, "iterations": sol.iterations,
                            "conductors": len(section.conductors)}
        return Outcome(extra={"gap": gap, "cells": cells, "stages": stages})

    def check(self, req, out):
        eps = req.data["eps"]
        fails = []
        for label, res in out.extra["cells"].items():
            part = res["part"]
            if req.data["lid"] is None:
                if not rel_close(res["eps_eff"], 0.5 * (eps + 1.0)):
                    fails.append(f"{label}: eps_eff {res['eps_eff']!r}")
                if not rel_close(part["substrate"], eps / (eps + 1.0)):
                    fails.append(f"{label}: p_sub {part['substrate']!r}")
            else:
                if res["conductors"] != 4:
                    fails.append(f"{label}: facing ground outside the box")
                if not part["interlayer"] > 1.0 / (eps + 1.0):
                    fails.append(f"{label}: p_int {part['interlayer']!r} "
                                 "not above the open-box value")
                if abs(sum(part.values()) - 1.0) > 1e-12:
                    fails.append(f"{label}: participations sum to "
                                 f"{sum(part.values())!r}")
        return fails

    def cold_start(self, results, k):
        """Cold `flipkit fieldsolve --cell 1um --json` on a section above,
        open and facing-ground sections in turn."""
        r = self.cold_source(results, k, ("open", "facing"))
        d, extra = r.request.data, r.outcome.extra
        args = ["fieldsolve", "--w", repr(d["w"]), "--s", repr(extra["gap"]),
                "--eps-sub", repr(d["eps"]), "--cell", "1um", "--json"]
        if d["lid"] is not None:
            args += ["--interlayer", repr(d["lid"])]
        elapsed, out = run_cli(args, self.env, self.root)
        got, want = json.loads(out), extra["cells"]["1um"]
        if not (got["iterations"] == want["iterations"]
                and rel_close(got["c_per_m"], want["c"])
                and rel_close(got["eps_eff"], want["eps_eff"])
                and rel_close(got["z0_ohm"], want["z0"])):
            return r.request.kind, elapsed, ["subprocess fieldsolve differs "
                                             "from the in-process 1 um solve"]
        return r.request.kind, elapsed, []

    def named(self, lat, busy, results):
        ok = [r for r in results if r.error is None]
        return [
            (f"xsec_{label}_s",
             _median([r.outcome.extra["stages"][label] for r in ok]), "s",
             f"{len(ok)} cross-sections")
            for label, _ in XSEC_CELLS
        ]


WORKLOADS = {w.name: w for w in (DesignLoop, StudySweeps, CrossSection)}
