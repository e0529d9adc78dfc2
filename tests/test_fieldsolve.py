"""Finite-difference Laplace solver: capacitance, eps_eff/Z0, participation.

Grids here are kept coarse so the whole file runs in seconds; the
acceptance suite re-runs the CPW extraction at production resolution.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flipkit import fieldsolve
from flipkit.constants import C_LIGHT, EPS_0
from flipkit.cpw import CpwGeometry, characteristic_impedance
from flipkit.fieldsolve import (Conductor, ConvergenceError, CrossSection,
                                DielectricRegion, Rect, capacitance_per_length,
                                cpw_cross_section, energy_participation,
                                extract_eps_eff_and_z0, solve_potential)

GEOM = CpwGeometry(trace_width=10e-6, gap=5.806e-6, eps_substrate=11.9,
                   eps_superstrate=1.0)


def test_parallel_plate_capacitance(plate_section):
    sec = plate_section()
    sol = solve_potential(sec)
    d = 16 * sec.hy
    want = EPS_0 * sec.width / d
    assert capacitance_per_length(sol) == pytest.approx(want, rel=0.01)


def test_parallel_plate_dielectric_scaling(plate_section):
    c_vac = capacitance_per_length(solve_potential(plate_section(1.0)))
    c_sub = capacitance_per_length(solve_potential(plate_section(6.45)))
    assert c_sub == pytest.approx(6.45 * c_vac, rel=1e-3)


def test_plate_potential_is_linear_ramp(plate_section):
    sec = plate_section(nx=16, ny=32)
    sol = solve_potential(sec)
    _, ys = sec.cell_centers()
    mid = sol.potential[8, :]
    inside = (ys > 8e-6) & (ys < 24e-6)
    ramp = (ys[inside] - 8e-6) / 16e-6
    assert np.allclose(mid[inside], ramp, atol=1e-6)


def test_equal_potentials_give_field_free_solution(plate_section):
    sec = plate_section()
    sec = CrossSection(width=sec.width, height=sec.height, nx=sec.nx,
                       ny=sec.ny, regions=sec.regions,
                       conductors=[Conductor("top", sec.conductors[0].rect,
                                             1.0),
                                   Conductor("bottom",
                                             sec.conductors[1].rect, 1.0)],
                       x_bc="neumann", y_bc="neumann")
    sol = solve_potential(sec)
    assert np.allclose(sol.potential, 1.0, atol=1e-7)


def test_no_source_gives_the_zero_map():
    # every electrode at 0 V: b = 0, so the map is exactly zero, with
    # residual 0 rather than 0 / 0
    sec = box_section([Conductor("lid", Rect(1e-6, 7e-6, 4e-6, 4e-6), 0.0)])
    sol = solve_potential(sec)
    assert np.all(sol.potential == 0.0)
    assert sol.residual == 0.0
    assert np.all(sol.energy == 0.0)


def test_capacitance_monotone_in_separation(plate_section):
    caps = [capacitance_per_length(solve_potential(plate_section(
        gap_cells=g))) for g in (8, 16, 24)]
    assert caps[0] > caps[1] > caps[2]


def test_grid_convergence_of_cpw_capacitance():
    # Richardson-style contraction: successive refinements move C by less
    # (the plate sections converge to roundoff instantly, so the CPW edge
    # singularity is the only geometry here with a real h-trend)
    caps = [capacitance_per_length(solve_potential(
        cpw_cross_section(GEOM, cell=c))) for c in (4e-6, 2e-6, 1e-6)]
    assert abs(caps[2] - caps[1]) < abs(caps[1] - caps[0])


def test_maximum_principle():
    sec = cpw_cross_section(GEOM, cell=2e-6)
    sol = solve_potential(sec)
    assert sol.potential.min() >= -1e-12
    assert sol.potential.max() <= 1.0 + 1e-12


def test_all_vacuum_eps_eff_is_exactly_one():
    vac = CpwGeometry(trace_width=10e-6, gap=5.806e-6, eps_substrate=1.0,
                      eps_superstrate=1.0)
    eps_eff, _ = extract_eps_eff_and_z0(cpw_cross_section(vac, cell=2e-6))
    assert eps_eff == 1.0


def test_homogeneous_fill_eps_eff():
    filled = CpwGeometry(trace_width=10e-6, gap=5.806e-6, eps_substrate=6.45,
                         eps_superstrate=6.45)
    eps_eff, _ = extract_eps_eff_and_z0(cpw_cross_section(filled, cell=2e-6))
    assert eps_eff == pytest.approx(6.45, rel=1e-3)


def test_cpw_section_eps_eff_and_z0_coarse():
    # even at 2 um cells the half/half symmetry pins eps_eff; Z0 carries
    # the discretization error and only has to be in the right ballpark
    eps_eff, z0 = extract_eps_eff_and_z0(cpw_cross_section(GEOM, cell=2e-6))
    assert eps_eff == pytest.approx(6.45, rel=1e-6)
    z_cm = characteristic_impedance(10e-6, 5.806e-6, 6.45)
    assert z0 == pytest.approx(z_cm, rel=0.10)
    assert eps_eff == pytest.approx(
        capacitance_ratio_route(GEOM), rel=1e-9)


def capacitance_ratio_route(geom):
    # independent assembly of the same ratio, C / C_vac
    sec = cpw_cross_section(geom, cell=2e-6)
    c = capacitance_per_length(solve_potential(sec))
    vac_geom = CpwGeometry(trace_width=geom.trace_width, gap=geom.gap,
                           eps_substrate=1.0, eps_superstrate=1.0)
    c_vac = capacitance_per_length(solve_potential(
        cpw_cross_section(vac_geom, cell=2e-6)))
    return c / c_vac


def test_participation_sums_to_one():
    sol = solve_potential(cpw_cross_section(GEOM, cell=2e-6))
    p = energy_participation(sol)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0.0 for v in p.values())
    # silicon below stores the lion's share
    assert p["substrate"] > p["interlayer"]


def test_participation_single_region(plate_section):
    sec = plate_section()
    p = energy_participation(solve_potential(sec))
    assert p == {"fill": pytest.approx(1.0, abs=1e-12)}


def test_interlayer_lid_draws_energy():
    with_lid = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=20e-6)
    p = energy_participation(solve_potential(with_lid))
    assert p["interlayer"] > 0.0


def perturb_inverse(monkeypatch, scale=1.0 + 1e-9):
    """Scale the face solve's Cholesky inverse, so that its solution is
    off by twice that, far above rounding."""
    inverse = fieldsolve._cholesky_inverse
    monkeypatch.setattr(fieldsolve, "_cholesky_inverse",
                        lambda a: scale * inverse(a))


def test_convergence_error_carries_state(monkeypatch):
    # a face solve off by 2e-9 raises, from the section's solve and from
    # its vacuum capacitance, with that residual and the bound in the
    # message; an exact one reads a residual at rounding
    sec = cpw_cross_section(GEOM, cell=2e-6)
    sol = solve_potential(sec)
    assert 0.0 < sol.residual <= 1e-14
    perturb_inverse(monkeypatch)
    message = (r"^relative residual 2\.0\d\de-09 of the face solve is above "
               "1e-12")
    with pytest.raises(ConvergenceError, match=message):
        solve_potential(sec)
    with pytest.raises(ConvergenceError, match=message):
        extract_eps_eff_and_z0(sec, solution=sol)
    with pytest.raises(ConvergenceError, match=message):
        fieldsolve._vacuum_capacitance(sol._problem)


def test_map_fault_raises_on_reading_the_potential(monkeypatch):
    # a map off by 1e-9 passes the face solve, whose energies stand, and
    # raises where the map is read, on every read, since none is kept
    sec = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=20e-6)
    direct_map = fieldsolve._direct_map
    monkeypatch.setattr(fieldsolve, "_direct_map",
                        lambda *a: (1.0 + 1e-9) * direct_map(*a))
    sol = solve_potential(sec)
    assert capacitance_per_length(sol) > 0.0
    for _ in range(2):
        with pytest.raises(ConvergenceError, match=r"^relative residual "
                           r"1\.\d{3}e-09 of the potential map is above "
                           "1e-12"):
            sol.potential
    monkeypatch.setattr(fieldsolve, "_direct_map", direct_map)
    assert sol.potential.shape == (sec.nx, sec.ny)


@pytest.mark.parametrize("eps_r", [0.0, -1.0, math.nan, math.inf])
def test_region_eps_r_must_be_positive_and_finite(eps_r):
    # a NaN region used to reach the solver and fail to converge
    with pytest.raises(ValueError, match="^eps_r of 'fill' must be "
                       "positive and finite$"):
        DielectricRegion("fill", Rect(0, 1e-6, 0, 1e-6), eps_r)


def test_solution_reuse_identity_guard():
    sec_a = cpw_cross_section(GEOM, cell=2e-6)
    sec_b = cpw_cross_section(GEOM, cell=2e-6)
    sol_a = solve_potential(sec_a)
    with pytest.raises(ValueError):
        extract_eps_eff_and_z0(sec_b, solution=sol_a)
    # reuse with the right section skips the first solve and agrees
    eps_direct, z_direct = extract_eps_eff_and_z0(sec_a, solution=sol_a)
    eps_again, z_again = extract_eps_eff_and_z0(sec_a)
    assert eps_direct == eps_again and z_direct == z_again


def test_section_validation():
    with pytest.raises(ValueError):
        CrossSection(width=1e-6, height=1e-6, nx=0, ny=4,
                     regions=[DielectricRegion(
                         "a", Rect(0, 1e-6, 0, 1e-6), 1.0)])
    with pytest.raises(ValueError):
        CrossSection(width=1e-6, height=1e-6, nx=4, ny=4, regions=[])
    for x_bc in ("open", "periodic"):
        with pytest.raises(ValueError, match=f"unknown x boundary '{x_bc}'"):
            CrossSection(width=1e-6, height=1e-6, nx=4, ny=4,
                         regions=[DielectricRegion(
                             "a", Rect(0, 1e-6, 0, 1e-6), 1.0)],
                         x_bc=x_bc)
    with pytest.raises(ValueError):
        DielectricRegion("flat", Rect(0, 1e-6, 0, 0), 1.0)
    with pytest.raises(ValueError):
        Rect(1e-6, 0, 0, 1e-6)
    # insulated walls and no strip: nothing fixes the potential
    bare = CrossSection(width=1e-6, height=1e-6, nx=4, ny=4,
                        regions=[DielectricRegion(
                            "a", Rect(0, 1e-6, 0, 1e-6), 1.0)],
                        x_bc="neumann", y_bc="neumann")
    with pytest.raises(ValueError, match="^no electrodes in the section$"):
        solve_potential(bare)
    # every row in exactly one region
    lid = [Conductor("lid", Rect(1e-6, 7e-6, 4e-6, 4e-6), 1.0)]
    for regions, message in (
            ([Rect(0, 8e-6, 0, 4e-6), Rect(0, 8e-6, 3e-6, 8e-6)],
             "^region 'r1' overlaps another$"),
            ([Rect(0, 8e-6, 0, 4e-6), Rect(0, 8e-6, 5e-6, 8e-6)],
             "^no dielectric region covers the row at y = 4.5e-06 m$")):
        sec = replace(box_section(lid), regions=[
            DielectricRegion(f"r{k}", rect, 1.0)
            for k, rect in enumerate(regions)])
        with pytest.raises(ValueError, match=message):
            solve_potential(sec)


def test_cpw_section_caps_the_grid():
    # a box just over MAX_CELLS_PER_SIDE is refused before any array is
    # built: 10 apertures of 21.612 um over 2049 cells
    cell = 10 * (10e-6 + 2 * 5.806e-6) / 2049
    with pytest.raises(ValueError, match="^cell 1.05476e-07 m makes the box "
                                         "2049 cells wide, above 2048: "
                                         "raise cell or lower box_factor$"):
        cpw_cross_section(GEOM, cell=cell)
    with pytest.raises(ValueError, match="nan cells wide"):
        cpw_cross_section(GEOM, cell=2e-6, box_factor=math.nan)
    assert cpw_cross_section(GEOM, cell=2e-6, box_factor=189.0).nx == 2044


def test_cpw_section_rejects_coarse_cell():
    with pytest.raises(ValueError):
        cpw_cross_section(GEOM, cell=30e-6)  # trace thinner than one cell
    with pytest.raises(ValueError):
        cpw_cross_section(GEOM, cell=2e-6, box_factor=5.0)


def test_facing_ground_snaps_to_one_cell_or_is_refused():
    # 0.49 cells snaps onto the metal plane and is refused; 0.51 snaps to
    # one cell and keeps its ground there; one beyond the box is left out
    cell = 2e-6
    with pytest.raises(ValueError, match=r"^interlayer_thickness 9\.8e-07 m "
                       r"snaps below one cell \(2e-06 m\), onto the metal "
                       "plane: raise interlayer_thickness or lower cell$"):
        cpw_cross_section(GEOM, cell=cell, interlayer_thickness=0.49 * cell)
    sec = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=0.51 * cell)
    lid = next(c for c in sec.conductors if c.name == "facing_ground")
    assert lid.rect.y0 == lid.rect.y1 == cell
    beyond = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=1e-3)
    assert "facing_ground" not in [c.name for c in beyond.conductors]


@pytest.mark.parametrize("thickness", [math.inf, math.nan])
def test_non_finite_interlayer_thickness_is_a_value_error(thickness):
    # inf raised OverflowError and NaN a ValueError from round()
    with pytest.raises(ValueError, match=r"^interlayer_thickness must be "
                       rf"finite, got {thickness!r}$"):
        cpw_cross_section(GEOM, cell=1e-6, interlayer_thickness=thickness)


def box_section(conductors, x_bc="grounded", y_bc="grounded"):
    """An 8 x 8 box of 1 um vacuum cells."""
    return CrossSection(
        width=8e-6, height=8e-6, nx=8, ny=8, x_bc=x_bc, y_bc=y_bc,
        regions=[DielectricRegion("fill", Rect(0, 8e-6, 0, 8e-6), 1.0)],
        conductors=conductors)


def test_rejects_conductor_with_height():
    # metal is a zero-thickness strip; a block of fixed cells is not a
    # conductor the solver models
    with pytest.raises(ValueError,
                       match="^conductor 'block' must be a strip: its rect "
                             "has height$"):
        Conductor("block", Rect(3e-6, 5e-6, 2e-6, 4e-6), 1.0)
    sec = box_section([Conductor("lid", Rect(1e-6, 7e-6, 4e-6, 4e-6), 1.0)])
    assert 0.0 < capacitance_per_length(solve_potential(sec)) < 1e-9


# ------------------------------------------------------- direct-solve oracles

def contains(rect, x, y):
    """Whether the points (x, y) lie in rect, edges included."""
    return (rect.x0 <= x) & (x <= rect.x1) & (rect.y0 <= y) & (y <= rect.y1)


def oracle_system(sec):
    """The flux-conserving system assembled face by face from the section.

    Independent of the solver's own assembly: a face between two cells
    carries the harmonic-mean permittivity; a cell next to a grounded
    wall or a strip is pinned across half a cell (2 eps).  Returns
    (region, links, pins): the region index of each cell, the links
    (a, b, t) between cells and the pins (a, potential, t) to fixed
    potentials, as arrays over flat cell indices, t in units of EPS_0.
    """
    xs, ys = sec.cell_centers()
    xg, yg = xs[:, None], ys[None, :]
    nx, ny, hx, hy = sec.nx, sec.ny, sec.hx, sec.hy
    region = np.full((nx, ny), -1)
    for k, reg in enumerate(sec.regions):
        region[contains(reg.rect, xg, yg)] = k
    eps = np.array([r.eps_r for r in sec.regions])[region]
    strip = np.full((nx, ny + 1), np.nan)  # strip potential on face line m
    for cond in sec.conductors:
        m = round((cond.rect.y0 - sec.origin[1]) / hy)
        strip[(cond.rect.x0 <= xs) & (xs <= cond.rect.x1), m] = cond.potential
    cell = np.arange(nx * ny).reshape(nx, ny)
    every = slice(None)
    below, above = (every, slice(None, -1)), (every, slice(1, None))
    cut = ~np.isnan(strip[:, 1:-1])  # the face above row j, below j + 1

    def harm(a, b):
        return 2.0 * eps[a] * eps[b] / (eps[a] + eps[b])

    x_faces = (slice(None, -1), slice(1, None))
    links = [(cell[x_faces[0]], cell[x_faces[1]], harm(*x_faces) * hy / hx),
             (cell[below][~cut], cell[above][~cut],
              harm(below, above)[~cut] * hx / hy)]
    pins = [(cell[side][cut], strip[:, 1:-1][cut],
             2.0 * eps[side][cut] * hx / hy) for side in (below, above)]
    for bc, ratio, axis in ((sec.x_bc, hy / hx, 0), (sec.y_bc, hx / hy, 1)):
        if bc == "grounded":
            for at in (0, -1):
                c, e = (np.take(a, [at], axis) for a in (cell, eps))
                pins.append((c, np.zeros(c.shape), 2.0 * e * ratio))
    def flat(items):
        return tuple(np.concatenate([np.ravel(q) for q in group])
                     for group in zip(*items))

    return region, flat(links), flat(pins)


def oracle_triplets(links, pins, n):
    """(rows, cols, vals, b) of the n-cell system of links and pins."""
    (a, c, t), (p, pot, tp) = links, pins
    rows = np.concatenate([a, c, a, c, p])
    cols = np.concatenate([a, c, c, a, p])
    vals = np.concatenate([t, t, -t, -t, tp])
    return rows, cols, vals, np.bincount(p, tp * pot, n)


def oracle_energies(sec, v, system):
    """Field energy per region of the map v, in J/m.

    A link's energy splits eps_b / (eps_a + eps_b) to side a and the
    rest to side b; a pin's energy is wholly its own cell's.
    """
    region, (a, c, t), (p, pot, tp) = system
    eps_r = np.array([r.eps_r for r in sec.regions])
    v, rid, n = v.ravel(), region.ravel(), len(sec.regions)
    e = 0.5 * t * (v[a] - v[c]) ** 2
    ea, ec = eps_r[rid[a]], eps_r[rid[c]]
    return EPS_0 * (np.bincount(rid[a], e * ec / (ea + ec), n) +
                    np.bincount(rid[c], e * ea / (ea + ec), n) +
                    np.bincount(rid[p], 0.5 * tp * (v[p] - pot) ** 2, n))


def oracle_capacitance(sec, v, system):
    _, (a, c, t), (p, pot, tp) = system
    v = v.ravel()
    energy = 0.5 * (np.sum(t * (v[a] - v[c]) ** 2) +
                    np.sum(tp * (v[p] - pot) ** 2))
    pots = [c.potential for c in sec.conductors]
    if "grounded" in (sec.x_bc, sec.y_bc):
        pots.append(0.0)
    span = max(pots) - min(pots)
    return 2.0 * EPS_0 * energy / span ** 2


def dense_oracle(sec):
    system = oracle_system(sec)
    n = sec.nx * sec.ny
    rows, cols, vals, b = oracle_triplets(*system[1:], n)
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals)
    return np.linalg.solve(a, b).reshape(sec.nx, sec.ny), system


def sparse_oracle(sec):
    """The section's potential by a sparse LU solve of oracle_system."""
    sparse = pytest.importorskip("scipy.sparse")
    splinalg = pytest.importorskip("scipy.sparse.linalg")
    system = oracle_system(sec)
    n = sec.nx * sec.ny
    rows, cols, vals, b = oracle_triplets(*system[1:], n)
    a = sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))
    v = splinalg.spsolve(a, b, permc_spec="MMD_AT_PLUS_A")
    return v.reshape(sec.nx, sec.ny), system


def oracle_participation(sec, v, system):
    """Energy share per region of the oracle's links and pins."""
    energy = oracle_energies(sec, v, system)
    return {r.name: e / energy.sum() for r, e in zip(sec.regions, energy)}


def layered_strip_section(nx, ny, x_bc, y_bc):
    """Two dielectric layers, a 1 V strip over a 0.4 V buried strip
    3 cells wide."""
    w, h = nx * 1e-6, ny * 1e-6
    y_face = (ny // 2) * 1e-6
    mid = (nx // 2) * 1e-6
    return CrossSection(
        width=w, height=h, nx=nx, ny=ny, x_bc=x_bc, y_bc=y_bc,
        regions=[DielectricRegion("low", Rect(0, w, 0, y_face), 11.9),
                 DielectricRegion("high", Rect(0, w, y_face, h), 3.9)],
        conductors=[
            Conductor("strip", Rect(mid - 2e-6, mid + 3e-6, y_face, y_face),
                      1.0),
            Conductor("buried", Rect(mid - 1e-6, mid + 2e-6, 2e-6, 2e-6),
                      0.4),
            Conductor("ground", Rect(0, 3e-6, y_face, y_face), 0.0)])


# the 40 x 40 CPW section of tests/reference/fieldsolve_potential.csv
SMALL_CPW = CpwGeometry(trace_width=4e-6, gap=2e-6, eps_substrate=11.9,
                        eps_superstrate=1.0)


def small_cpw_section(interlayer_thickness=10e-6):
    return cpw_cross_section(SMALL_CPW, cell=2e-6,
                             interlayer_thickness=interlayer_thickness)


def shifted_trace(sec, cells, up=0):
    """The section with its trace moved by whole cells: right by cells
    and up by up."""
    dx, dy = cells * sec.hx, up * sec.hy
    moved = [replace(c, rect=Rect(c.rect.x0 + dx, c.rect.x1 + dx,
                                  c.rect.y0 + dy, c.rect.y1 + dy))
             if c.name == "trace" else c for c in sec.conductors]
    return replace(sec, conductors=moved)


def odd_cpw_section():
    """A symmetric facing-ground CPW on 39 x 20 cells of 1 um: the trace
    covers the 5 middle columns, a 2-cell gap on each side."""
    w, h = 39e-6, 20e-6
    return CrossSection(
        width=w, height=h, nx=39, ny=20, origin=(-w / 2, -h / 2),
        regions=[DielectricRegion("substrate", Rect(-w / 2, w / 2, -h / 2, 0),
                                  11.9),
                 DielectricRegion("interlayer", Rect(-w / 2, w / 2, 0, h / 2),
                                  1.0)],
        conductors=[Conductor("trace", Rect(-2.5e-6, 2.5e-6, 0, 0), 1.0),
                    Conductor("left", Rect(-w / 2, -4.5e-6, 0, 0), 0.0),
                    Conductor("right", Rect(4.5e-6, w / 2, 0, 0), 0.0),
                    Conductor("lid", Rect(-w / 2, w / 2, 6e-6, 6e-6), 0.0)])


def open_small_cpw(eps_substrate):
    """The 40 x 40 section with no lid."""
    return cpw_cross_section(replace(SMALL_CPW, eps_substrate=eps_substrate),
                             cell=2e-6)


def split_section(ny=24, metal=12, boundary=12, patch_eps=None):
    """An open CPW on 24 x ny cells of 1 um: substrate (11.9) below the
    face line `boundary`, vacuum above, the trace and its grounds on the
    face line `metal`.  patch_eps puts a 2 x 2 cell patch of that eps in
    the substrate, mirrored above by plain vacuum."""
    w, h, um = 24e-6, ny * 1e-6, 1e-6
    y_b, y_m = boundary * um, metal * um
    regions = [DielectricRegion("interlayer", Rect(0, w, y_b, h), 1.0)]
    if patch_eps is None:
        regions.append(DielectricRegion("substrate", Rect(0, w, 0, y_b), 11.9))
    else:
        p0, p1, q0, q1 = 11 * um, 13 * um, y_b - 5 * um, y_b - 3 * um
        regions += [
            DielectricRegion("substrate", Rect(0, p0, 0, y_b), 11.9),
            DielectricRegion("under", Rect(p0, p1, 0, q0), 11.9),
            DielectricRegion("patch", Rect(p0, p1, q0, q1), patch_eps),
            DielectricRegion("over", Rect(p0, p1, q1, y_b), 11.9),
            DielectricRegion("right", Rect(p1, w, 0, y_b), 11.9)]
    return CrossSection(
        width=w, height=h, nx=24, ny=ny, regions=regions,
        conductors=[Conductor("trace", Rect(10 * um, 14 * um, y_m, y_m), 1.0),
                    Conductor("left", Rect(0, 7 * um, y_m, y_m), 0.0),
                    Conductor("right", Rect(17 * um, w, y_m, y_m), 0.0)])


def strip_pair_section(low):
    """A vacuum box of 24 x 24 cells of 1 um: a 1 V strip on face line 16
    over one at the potential low on its mirror line 8."""
    w, um = 24e-6, 1e-6
    return CrossSection(
        width=w, height=w, nx=24, ny=24,
        regions=[DielectricRegion("fill", Rect(0, w, 0, w), 1.0)],
        conductors=[Conductor("high", Rect(8 * um, 16 * um, 16 * um, 16 * um),
                              1.0),
                    Conductor("low", Rect(8 * um, 16 * um, 8 * um, 8 * um),
                              low)])


# small sections for the dense oracle, beside the layered strip ones
ORACLE_SECTIONS = {
    "cpw-facing": small_cpw_section,
    # one gap closes and the other doubles
    "cpw-trace-moved": lambda: shifted_trace(small_cpw_section(), 1),
    "cpw-odd-nx": odd_cpw_section,
    **{f"open-eps-{e}": lambda e=e: open_small_cpw(e)
       for e in (1.42, 2.2, 6.45, 9.8, 11.45)},
    "y-split": split_section,
    "y-odd-ny": lambda: split_section(ny=25),
    "y-strip-pair": lambda: strip_pair_section(1.0),
    "y-strip-pair-0V": lambda: strip_pair_section(0.0),
}


@pytest.fixture(params=[
    (33, 21, "grounded", "grounded"),
    (20, 17, "neumann", "grounded"),
    (13, 11, "grounded", "neumann"),
    "plates",
    *ORACLE_SECTIONS,
], ids=["grounded", "neumann-x", "neumann-y", "plates", *ORACLE_SECTIONS])
def oracle_section(request, plate_section):
    """Small sections for the dense oracle: every wall type, strips on
    several face lines, odd sizes and mirror images, and a dead band
    behind a full-width strip (plates, cpw-facing)."""
    if request.param == "plates":
        return plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13)
    if request.param in ORACLE_SECTIONS:
        return ORACLE_SECTIONS[request.param]()
    return layered_strip_section(*request.param)


def test_dense_direct_solve_oracle(oracle_section):
    sec = oracle_section
    # C' and the potential
    v_ref, system = dense_oracle(sec)
    c_ref = oracle_capacitance(sec, v_ref, system)
    sol = solve_potential(sec)
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-9)
    assert sol.residual <= fieldsolve.RESIDUAL_BOUND
    assert np.abs(sol.potential - v_ref).max() <= 1e-10


def test_dense_participation_oracle(oracle_section):
    # every region's share, against the shares
    # of the dense solution's link and pin energies
    v_ref, system = dense_oracle(oracle_section)
    want = oracle_participation(oracle_section, v_ref, system)
    got = energy_participation(solve_potential(oracle_section))
    assert got.keys() == want.keys()
    for name, share in want.items():
        assert abs(got[name] - share) <= 1e-9, name


def map_energies(sol):
    """Region energies of the solution's map, in J/m, summed cell by cell
    over the whole grid by this file's own assembly (oracle_system)."""
    return oracle_energies(sol.section, sol.potential,
                           oracle_system(sol.section))


def test_energy_pass_matches_face_sums(oracle_section):
    # C' and each participation, read from the energies of the face
    # solve's bands, against the same solution's map summed face by face
    sol = solve_potential(oracle_section)
    sums = map_energies(sol)
    pots = sol._problem.potentials
    c_ref = 2.0 * sums.sum() / (max(pots) - min(pots)) ** 2
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-13)
    got = energy_participation(sol)
    names = [r.name for r in oracle_section.regions]
    assert list(got) == names
    for name, u in zip(names, sums):
        assert got[name] == pytest.approx(u / sums.sum(), rel=1e-13,
                                          abs=1e-13), name


def calls(monkeypatch, name):
    """Record the arguments of every call to fieldsolve.<name>."""
    seen = []
    fn = getattr(fieldsolve, name)

    def spy(*args, **kwargs):
        seen.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(fieldsolve, name, spy)
    return seen


def test_one_energy_pass_per_solve(monkeypatch):
    # C', then participation, then eps_eff and Z0 of the same solution
    # read the energies of one face solve; the vacuum capacitance takes
    # one more, open or facing, and none of them builds the map
    face_solves = calls(monkeypatch, "_face_solve")
    maps = calls(monkeypatch, "_direct_map")
    for lid in (None, 20e-6):
        face_solves.clear()
        sec = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=lid)
        sol = solve_potential(sec)
        counts = [len(face_solves)]
        for read in (capacitance_per_length, energy_participation,
                     lambda s: extract_eps_eff_and_z0(sec, solution=s)):
            read(sol)
            counts.append(len(face_solves))
        assert counts == [1, 1, 1, 2]
        assert [prob.section for prob, _ in face_solves] == [sec, sec]
        assert np.all(face_solves[1][1] == 1.0)
    assert maps == []


def test_band_forms_are_built_once_per_request(monkeypatch):
    # the section and its vacuum copy share one setup: a request (solve,
    # C', p, eps_eff and Z0) builds each band's form once, open (two
    # bands) or facing (three)
    forms = calls(monkeypatch, "_band_form")
    for lid, bands in ((None, 2), (40e-6, 3)):
        forms.clear()
        sec = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=lid)
        sol = solve_potential(sec)
        capacitance_per_length(sol)
        energy_participation(sol)
        extract_eps_eff_and_z0(sec, solution=sol)
        assert len(forms) == bands, lid


@pytest.mark.parametrize("lid", [None, 40e-6])
def test_vacuum_face_solve_leaves_the_setup_unchanged(lid):
    # one _Problem solved at eps = 1 and then at its own eps gives bitwise
    # the energies and residual of a fresh one: no shared array changes
    sec = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=lid)
    shared = fieldsolve._Problem(sec)
    fieldsolve._face_solve(shared, np.ones(sec.ny))
    fresh = fieldsolve._Problem(sec)
    (got, _, got_rel), (want, _, want_rel) = (
        fieldsolve._face_solve(prob, prob.eps) for prob in (shared, fresh))
    assert [band[3] for band in got] == [band[3] for band in want]
    assert got_rel == want_rel


def test_potential_is_built_once_on_first_read(monkeypatch):
    maps = calls(monkeypatch, "_direct_map")
    sol = solve_potential(cpw_cross_section(GEOM, cell=2e-6))
    assert maps == []
    first = sol.potential
    assert sol.potential is first
    assert len(maps) == 1


def test_no_grid_array_unless_the_potential_is_read():
    # at 0.25 um one nx x ny float array is 6 MB; the solve, C', the
    # participations, eps_eff and Z0 peak below it, open or facing, and
    # reading the map then allocates at least one
    for lid in (None, 40e-6):
        sec = cpw_cross_section(GEOM, cell=0.25e-6, interlayer_thickness=lid)
        grid = sec.nx * sec.ny * 8
        tracemalloc.start()
        try:
            sol = solve_potential(sec)
            capacitance_per_length(sol)
            energy_participation(sol)
            extract_eps_eff_and_z0(sec, solution=sol)
            _, no_map = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sol.potential
            _, with_map = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert no_map < 0.5 * grid < grid <= with_map, lid


def striped(sec, eps_rs):
    """The section with its regions replaced by equal vertical stripes,
    one per eps_r, left to right."""
    x0, y0 = sec.origin
    w = sec.width / len(eps_rs)
    return replace(sec, regions=[
        DielectricRegion(f"stripe{k}", Rect(x0 + k * w, x0 + (k + 1) * w,
                                            y0, y0 + sec.height), e)
        for k, e in enumerate(eps_rs)])


# named for their mirror symmetries: an open CPW is a (scaled) mirror
# image in x and in y, a facing one in x only, and a trace off centre
# takes away the one in x
ENERGY_SECTIONS = {
    "open": lambda: cpw_cross_section(GEOM, cell=1e-6),
    "facing": lambda: cpw_cross_section(GEOM, cell=1e-6,
                                        interlayer_thickness=40e-6),
    "y-only": lambda: shifted_trace(cpw_cross_section(GEOM, cell=1e-6), 1),
    "unfoldable": lambda: shifted_trace(small_cpw_section(), 1),
}


@pytest.mark.parametrize("name", [*ENERGY_SECTIONS, "plates"])
def test_solved_cell_energies_match_full_grid(plate_section, name):
    # the bands' energies give every region the energy of the whole
    # grid's pass over the map
    if name == "plates":
        sec = plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13)
    else:
        sec = ENERGY_SECTIONS[name]()
    sol = solve_potential(sec)
    want = map_energies(sol)
    assert want.sum() > 0.0
    for got, ref in zip(sol.energy, want):
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13 * want.sum())


def vacuum_oracle(sec):
    """C' of the section's all-vacuum copy by a sparse LU solve."""
    vac = replace(sec, regions=[replace(r, eps_r=1.0) for r in sec.regions])
    return oracle_capacitance(vac, *sparse_oracle(vac))


@pytest.mark.parametrize("cell", [2e-6, 1e-6])
def test_open_section_solves_its_vacuum_section(monkeypatch, cell):
    # the vacuum section is solved directly, with no second solve, and
    # agrees with a sparse LU solve of it; it does not depend on eps, so
    # the centred trace and the one off centre in x have one each
    runs = calls(monkeypatch, "solve_potential")
    sections = [cpw_cross_section(replace(GEOM, eps_substrate=sub,
                                          eps_superstrate=sup), cell=cell)
                for sub in (2.2, 6.45, 9.8, 11.45, 11.9) for sup in (1.0, 2.2)]
    sections.append(shifted_trace(sections[-2], 1))
    c_vac = {sec.conductors[0].rect: vacuum_oracle(sec)
             for sec in (sections[0], sections[-1])}
    for sec in sections:
        sol = solve_potential(sec)
        c = capacitance_per_length(sol)
        want_vac = c_vac[sec.conductors[0].rect]
        want = c / want_vac, 1.0 / (C_LIGHT * math.sqrt(c * want_vac))
        got = extract_eps_eff_and_z0(sec, solution=sol)
        assert runs == []
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=2e-14, abs=0.0)


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
@pytest.mark.parametrize("lid", ["one-cell", 20e-6, 40e-6, 80e-6])
def test_facing_sections_run_no_vacuum_solve(monkeypatch, cell, lid):
    # a facing CPW section, too, takes its vacuum capacitance from the
    # face solve, the facing ground one cell up included
    sec = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=(
        cell if lid == "one-cell" else lid))
    assert len(sec.conductors) == 4
    sol = solve_potential(sec)
    runs = calls(monkeypatch, "solve_potential")
    extract_eps_eff_and_z0(sec, solution=sol)
    assert runs == []


def squashed(sec):
    """The section with its cells half as tall: hy = hx / 2."""
    return replace(sec, height=0.5 * sec.height,
                   origin=(sec.origin[0], 0.5 * sec.origin[1]))


# sections whose all-vacuum copy the direct solve must get exactly, at
# 2 um cells unless named
VACUUM_SECTIONS = {
    "open": lambda: cpw_cross_section(GEOM, cell=2e-6),
    **{f"facing-{name}": lambda lid=lid: cpw_cross_section(
        GEOM, cell=2e-6, interlayer_thickness=lid)
       for name, lid in (("one-cell", 2e-6), ("20um", 20e-6),
                         ("40um", 40e-6), ("80um", 80e-6))},
    "trace-off-centre": lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=2e-6), 1),
    # 188k cells, each eps of the open sections above at 0.5 um
    "open-0.5um": lambda: cpw_cross_section(GEOM, cell=0.5e-6),
    "trace-off-centre-0.5um": lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=0.5e-6), 1),
    # two metal lines, each with free faces
    "trace-raised": lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=2e-6), 0, up=1),
    "insulated-x": lambda: replace(cpw_cross_section(GEOM, cell=2e-6),
                                   x_bc="neumann"),
    "insulated-y": lambda: replace(cpw_cross_section(
        GEOM, cell=2e-6, interlayer_thickness=40e-6), y_bc="neumann"),
    "insulated-both": lambda: replace(cpw_cross_section(GEOM, cell=2e-6),
                                      x_bc="neumann", y_bc="neumann"),
    "hx-twice-hy": lambda: squashed(cpw_cross_section(
        GEOM, cell=2e-6, interlayer_thickness=20e-6)),
    # strips at 1 V and 0.4 V on two lines, odd sizes, 1 um cells
    **{f"layered-{x_bc}-{y_bc}": lambda x_bc=x_bc, y_bc=y_bc:
       layered_strip_section(33, 21, x_bc, y_bc)
       for x_bc, y_bc in (("grounded", "grounded"), ("neumann", "grounded"),
                          ("grounded", "neumann"))},
}


@pytest.mark.parametrize("name", VACUUM_SECTIONS)
def test_vacuum_capacitance_matches_sparse_lu(name):
    # the direct solve against a sparse LU solve of this file's own
    # cell-by-cell assembly of the all-vacuum section
    sec = VACUUM_SECTIONS[name]()
    vac = replace(sec, regions=[replace(r, eps_r=1.0) for r in sec.regions])
    want = oracle_capacitance(vac, *sparse_oracle(vac))
    got = fieldsolve._vacuum_capacitance(fieldsolve._Problem(sec))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# ----------------------------------------------------- the direct solve

@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6, 0.25e-6])
@pytest.mark.parametrize("eps", [9.8, 11.45, 11.9])
@pytest.mark.parametrize("lid", [None, 40e-6], ids=["open", "facing"])
def test_cpw_sections_take_the_direct_start(cell, eps, lid):
    # a CPW section is layered in y, so the direct solve takes it, with
    # the residual at rounding
    sec = cpw_cross_section(replace(GEOM, eps_substrate=eps), cell=cell,
                            interlayer_thickness=lid)
    sol = solve_potential(sec)
    assert sol.iterations == 0
    assert sol.residual <= 1e-14


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
@pytest.mark.parametrize("lid", [None, 40e-6], ids=["open", "facing"])
def test_map_residual_is_at_rounding(cell, lid):
    # the map's residual over the whole grid, from the system assembled
    # per row, is rounding too, not only under the bound of its read
    sol = solve_potential(cpw_cross_section(GEOM, cell=cell,
                                            interlayer_thickness=lid))
    assert fieldsolve._map_residual(sol._problem, sol.potential) <= 1e-14


def mirror_split_section():
    """Insulated plates 30 cells apart in a 32 x 32 box of 1 um cells, the
    left and right halves two regions of the same eps_r."""
    w = h = 32e-6
    return CrossSection(
        width=w, height=h, nx=32, ny=32,
        regions=[DielectricRegion("left", Rect(0, w / 2, 0, h), 3.0),
                 DielectricRegion("right", Rect(w / 2, w, 0, h), 3.0)],
        conductors=[Conductor("top", Rect(0, w, h - h / 32, h - h / 32), 1.0),
                    Conductor("bottom", Rect(0, w, h / 32, h / 32), 0.0)],
        x_bc="neumann", y_bc="neumann")


def stacked_fill(sec):
    """The vacuum section with its fill split at mid height into two
    regions, meeting where no metal is."""
    w, h = sec.width, sec.height
    return replace(sec, regions=[
        DielectricRegion("lower", Rect(0, w, 0, h / 2), 1.0),
        DielectricRegion("upper", Rect(0, w, h / 2, h), 1.0)])


# sections the direct solve refuses, each with the reason it gives
UNLAYERED_SECTIONS = {
    "eps-varies-in-x": (lambda: split_section(patch_eps=5.0),
                        "region 'substrate' does not span the box's width"),
    "stripes": (lambda: striped(small_cpw_section(None),
                                [2.2, 3.9, 11.9, 3.9, 2.2]),
                "region 'stripe0' does not span the box's width"),
    "eps-changes-in-band": (lambda: split_section(boundary=13),
                            "regions 'substrate' and 'interlayer' meet at "
                            "y = 1.3e-05 m, on a face line with no metal"),
    "free-faces-over-bound": (lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=0.5e-6), 0, up=1),
        "the metal lines leave 458 faces free, above the 256"),
    "y-strip-off-mid": (lambda: split_section(metal=13),
                        "regions 'substrate' and 'interlayer' meet at "
                        "y = 1.2e-05 m, on a face line with no metal"),
    "y-boundary-off-mid": (lambda: split_section(boundary=13),
                           "regions 'substrate' and 'interlayer' meet at "
                           "y = 1.3e-05 m, on a face line with no metal"),
    "y-patch-one-side": (lambda: split_section(patch_eps=5.0),
                         "region 'substrate' does not span the box's width"),
    # same eps_r on both sides: a band must still lie in one region
    "x-split-same-eps": (mirror_split_section,
                         "region 'left' does not span the box's width"),
    "regions-meet-off-metal": (lambda: stacked_fill(box_section([
        Conductor("lid", Rect(1e-6, 7e-6, 6e-6, 6e-6), 1.0)])),
        "regions 'lower' and 'upper' meet at y = 4e-06 m, on a face line "
        "with no metal"),
}


@pytest.mark.parametrize("name", UNLAYERED_SECTIONS)
def test_direct_start_declines_unlayered_sections(name):
    # a region narrower than the box, regions meeting between two metal
    # lines, or more free faces than MAX_FREE_FACES: a ValueError that
    # says which
    build, reason = UNLAYERED_SECTIONS[name]
    sec = build()
    for solve in (solve_potential, extract_eps_eff_and_z0):
        with pytest.raises(ValueError, match=f"^{reason}"):
            solve(sec)


def test_cpw_sections_stay_under_the_free_face_cap():
    # a CPW section's free faces are its two gaps on the metal plane (the
    # facing ground is full width), at most the box's aperture in cells
    # plus the snapping; the widest gaps come with the narrowest trace
    # the grid takes at the largest box.  Counted from the conductors'
    # rectangles: a solve of 2048^2 cells would peak at ~0.45 GB
    assert (fieldsolve.MAX_CELLS_PER_SIDE / fieldsolve.MIN_BOX_FACTOR + 2
            <= fieldsolve.MAX_FREE_FACES)
    cell = 1e-6
    w = 1.01 * cell  # half of it snaps to one cell
    gap = 0.5 * (fieldsolve.MAX_CELLS_PER_SIDE / fieldsolve.MIN_BOX_FACTOR
                 * cell - w) * (1.0 - 1e-12)
    geom = replace(GEOM, trace_width=w, gap=gap)
    sec = cpw_cross_section(geom, cell=cell, interlayer_thickness=40e-6)
    assert sec.nx == fieldsolve.MAX_CELLS_PER_SIDE
    xs, _ = sec.cell_centers()
    lines = {}
    for c in sec.conductors:
        covered = lines.setdefault(c.rect.y0, np.zeros(sec.nx, dtype=bool))
        covered |= (c.rect.x0 <= xs) & (xs <= c.rect.x1)
    free = sum(int((~covered).sum()) for covered in lines.values())
    assert 0 < free <= fieldsolve.MAX_FREE_FACES
    with pytest.raises(ValueError, match="cell too coarse"):
        cpw_cross_section(replace(geom, trace_width=0.99 * cell), cell=cell)


@pytest.mark.parametrize("nx", [16, 32])
def test_narrow_plates_take_the_direct_start(plate_section, nx):
    # with insulated side walls, plates are layered: C' of the direct
    # solve against the dense solve of this file's own assembly
    sec = plate_section(eps_r=6.45, nx=nx, ny=32)
    sol = solve_potential(sec)
    assert sol.iterations == 0
    v_ref, system = dense_oracle(sec)
    assert capacitance_per_length(sol) == pytest.approx(
        oracle_capacitance(sec, v_ref, system), rel=1e-13)


# sections at 0.5 um cells, 188k, for the sparse LU oracle
HALF_MICRON_SECTIONS = {
    "open": lambda: cpw_cross_section(GEOM, cell=0.5e-6),
    **{f"facing-{d}um": lambda d=d: cpw_cross_section(
        GEOM, cell=0.5e-6, interlayer_thickness=d * 1e-6)
       for d in (20, 40, 80)},
    "trace-off-centre": lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=0.5e-6), 1),
    "insulated-x": lambda: replace(cpw_cross_section(GEOM, cell=0.5e-6),
                                   x_bc="neumann"),
    "insulated-y": lambda: replace(cpw_cross_section(
        GEOM, cell=0.5e-6, interlayer_thickness=40e-6), y_bc="neumann"),
}


PLATE_SIZES = {"plates": {"nx": 17, "ny": 23, "gap_cells": 13},
               "narrow-plates": {"nx": 16, "ny": 32}}


@pytest.mark.parametrize("name", [*HALF_MICRON_SECTIONS, *PLATE_SIZES])
def test_direct_start_matches_sparse_lu(plate_section, name):
    # the direct map and the region energies of the solve, against a
    # sparse LU solve of this file's own assembly
    if name in PLATE_SIZES:
        sec = plate_section(eps_r=6.45, **PLATE_SIZES[name])
    else:
        sec = HALF_MICRON_SECTIONS[name]()
    v_ref, system = sparse_oracle(sec)
    sol = solve_potential(sec)
    assert np.abs(sol.potential - v_ref).max() <= 1e-12
    assert sol.iterations == 0
    want = oracle_energies(sec, v_ref, system)
    assert np.all(np.abs(sol.energy - want) <= 1e-12 * want.sum())


def chain_form(n, lam, ry, insulated):
    """(own, across) of _band_form by a plain recurrence down the chain.

    y_j is the conductance from cell j to the lower face (held at zero)
    through the cells below it, plus its own shunt lam: no differences
    are taken, so nothing cancels.  own is the upper face's pin 2 ry in
    series with y_(n-1); across is minus the current into the lower face
    for a unit upper face, the voltage divided down the chain.
    """
    def series(a, b):
        return a * b / (a + b)

    y = [lam + (0.0 if insulated else 2.0 * ry)]
    for _ in range(n - 1):
        y.append(lam + series(ry, y[-1]))
    v = 2.0 * ry / (2.0 * ry + y[-1])  # cell n - 1
    for j in range(n - 2, -1, -1):
        v = v * ry / (ry + y[j])  # cell j
    return series(2.0 * ry, y[-1]), -2.0 * ry * v


@pytest.mark.parametrize("n", [1, 2, 7, 2048])
@pytest.mark.parametrize("insulated", [False, True],
                         ids=["pinned", "insulated"])
def test_band_form_matches_tridiagonal_recurrence(n, insulated):
    # the closed form in e^(-n theta), from lam = 0 (insulated x walls)
    # through the smallest grounded-wall mode of a 2048-cell box to
    # modes whose coupling across the band underflows
    ry = 0.5
    lam = np.array([0.0, 4.0 * 2.0 * math.sin(math.pi / 4096) ** 2, 1e-9,
                    1e-3, 0.3, 2.0, 8.0, 1e3])
    own, across = fieldsolve._band_form(n, lam, ry, insulated)
    want_own, want_across = chain_form(n, lam, ry, insulated)
    assert np.all(np.abs(own - want_own) <= 1e-13 * want_own)
    if insulated:
        assert own[0] == 0.0  # no pin below, no x flux: no field
    else:
        assert np.all(np.abs(across - want_across) <=
                      1e-13 * np.abs(want_across))
        assert own[0] == pytest.approx(ry / n, rel=1e-15)


def test_sparse_direct_solve_oracle_at_1um():
    geom = CpwGeometry(trace_width=10e-6, gap=5.806e-6, eps_substrate=11.9,
                       eps_superstrate=1.0)
    sec = cpw_cross_section(geom, cell=1e-6, interlayer_thickness=30e-6)
    c_ref = oracle_capacitance(sec, *sparse_oracle(sec))
    sol = solve_potential(sec)
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-9)


# ---------------------------------------------------------- dead bands

def lid_row(sec):
    """The first row above the facing ground."""
    lid = next(c for c in sec.conductors if c.name == "facing_ground")
    return round((lid.rect.y0 - sec.origin[1]) / sec.hy)


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
def test_facing_potential_is_exactly_zero_above_the_lid(cell):
    # nothing drives the band above a full-width facing ground
    sec = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=40e-6)
    v = solve_potential(sec).potential
    assert v.shape == (sec.nx, sec.ny)
    top = lid_row(sec)
    assert np.all(v[:, top:] == 0.0)
    assert np.all(v[:, :top] != 0.0)


def test_dead_band_is_dropped_exactly(plate_section):
    # below a full-width plate at 0 V nothing drives the field; above
    # one at 1 V the cells are pinned to 1 V, a source, so they stay
    sec = plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13)
    v = solve_potential(sec).potential
    assert np.all(v[:, :5] == 0.0)
    assert np.abs(v[:, 18:] - 1.0).max() <= 1e-7


@pytest.mark.parametrize("name", ["open", "facing", "open-eps-2.2", "plates"])
def test_direct_solve_matches_full_grid_assembly(plate_section, name):
    # the solve against the dense solve of this file's cell-by-cell
    # assembly of the whole grid
    sec = {"open": lambda: small_cpw_section(None),
           "facing": small_cpw_section,
           "open-eps-2.2": lambda: open_small_cpw(2.2),
           "plates": lambda: plate_section(eps_r=6.45, nx=17, ny=23,
                                           gap_cells=13)}[name]()
    sol = solve_potential(sec)
    v_ref, system = dense_oracle(sec)
    c_ref = oracle_capacitance(sec, v_ref, system)
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-12)
    want = oracle_participation(sec, v_ref, system)
    got = energy_participation(sol)
    for region, share in want.items():
        assert got[region] == pytest.approx(share, rel=1e-12), region


def test_convergence_error_says_what_to_change(monkeypatch):
    # no setting moves the bound: a residual above it is a fault of the
    # solver, and the message says so
    sec = cpw_cross_section(GEOM, cell=2e-6)
    perturb_inverse(monkeypatch)
    with pytest.raises(ConvergenceError, match="where rounding leaves "
                       "~1e-15: the field solver is wrong$"):
        solve_potential(sec)


# --------------------------------------------------- the face solve's inverse

def spd_matrices():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12))
    lap = (4.0 * np.eye(49) - np.eye(49, k=1) - np.eye(49, k=-1)
           - np.eye(49, k=7) - np.eye(49, k=-7))  # 7 off the diagonal
    return {"1x1": np.array([[2.5]]), "diagonal": np.diag([1.0, 3.0, 7.0]),
            "dense": m @ m.T + 12.0 * np.eye(12), "banded": lap}


@pytest.mark.parametrize("name", ["1x1", "diagonal", "dense", "banded"])
def test_cholesky_inverse_matches_lapack(name):
    # X is the inverse of the lower Cholesky factor, so X^T X = A^-1
    a = spd_matrices()[name]
    want = np.linalg.inv(a)
    x = fieldsolve._cholesky_inverse(a)
    assert np.array_equal(x, np.tril(x))
    assert np.abs(x.T @ x - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("a, k, pivot", [
    ([[0.0]], 0, "0"), ([[-2.0]], 0, "-2"), ([[math.nan]], 0, "nan"),
    ([[1.0, 2.0], [2.0, 1.0]], 1, "-3"),  # indefinite: 1 - 2^2
], ids=["zero", "negative", "nan", "indefinite"])
def test_cholesky_inverse_refuses_non_positive_pivot(a, k, pivot):
    # a pivot that is not positive raises, where the square root of it
    # would carry NaN into the face solve
    with pytest.raises(ValueError, match=f"^matrix is not positive "
                       f"definite: pivot {k} is {pivot}$"):
        fieldsolve._cholesky_inverse(np.array(a))
