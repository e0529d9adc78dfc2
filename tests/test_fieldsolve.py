"""Finite-difference Laplace solver: capacitance, eps_eff/Z0, participation.

Grids here are kept coarse so the whole file runs in seconds; the
acceptance suite re-runs the CPW extraction at production resolution.
"""

import math
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


def test_participation_mirror_symmetric_split():
    w, h = 32e-6, 32e-6
    sec = CrossSection(
        width=w, height=h, nx=32, ny=32,
        regions=[DielectricRegion("left", Rect(0, w / 2, 0, h), 3.0),
                 DielectricRegion("right", Rect(w / 2, w, 0, h), 3.0)],
        conductors=[Conductor("top", Rect(0, w, h - h / 32, h - h / 32), 1.0),
                    Conductor("bottom", Rect(0, w, h / 32, h / 32), 0.0)],
        x_bc="neumann", y_bc="neumann")
    p = energy_participation(solve_potential(sec))
    assert p["left"] == pytest.approx(0.5, abs=1e-6)
    assert p["right"] == pytest.approx(0.5, abs=1e-6)


def test_interlayer_lid_draws_energy():
    with_lid = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=20e-6)
    p = energy_participation(solve_potential(with_lid))
    assert p["interlayer"] > 0.0


def cg_solve(sec, tol=fieldsolve.DEFAULT_TOL,
             max_sweeps=fieldsolve.DEFAULT_MAX_SWEEPS):
    """Conjugate gradients on the section from a zero start, as
    solve_potential runs them on a section with no direct start."""
    return fieldsolve._solve(fieldsolve._Problem(sec), None, tol, max_sweeps)


def test_convergence_error_carries_state():
    sec = cpw_cross_section(GEOM, cell=2e-6)
    with pytest.raises(ConvergenceError):
        cg_solve(sec, tol=1e-14, max_sweeps=5)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_bad_tol_rejected(tol):
    # tol <= 0 ran max_sweeps iterations and then failed to converge;
    # tol = inf returned the unsolved start (0 iterations, residual 1)
    sec = cpw_cross_section(GEOM, cell=4e-6)
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        solve_potential(sec, tol=tol)
    sol = solve_potential(sec)
    for solution in (None, sol):
        with pytest.raises(ValueError, match="^tol must be positive"):
            extract_eps_eff_and_z0(sec, tol=tol, solution=solution)


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_bad_max_sweeps_rejected(max_sweeps):
    # no iteration allowed is bad input, not a convergence failure
    sec = cpw_cross_section(GEOM, cell=4e-6)
    with pytest.raises(ValueError, match="^max_sweeps must be >= 1$"):
        solve_potential(sec, max_sweeps=max_sweeps)
    sol = solve_potential(sec)
    for solution in (None, sol):
        with pytest.raises(ValueError, match="^max_sweeps must be >= 1$"):
            extract_eps_eff_and_z0(sec, max_sweeps=max_sweeps,
                                   solution=solution)


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


# the 40 x 40 CPW section of tests/reference/fieldsolve_potential.csv:
# mirror-symmetric about x = 0, so it is solved on half the cells
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
    """The 40 x 40 section with no lid: a scaled mirror image in y."""
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


FOLD_SECTIONS = {
    "cpw-facing": small_cpw_section,  # folds
    # one gap closes and the other doubles
    "cpw-trace-moved": lambda: shifted_trace(small_cpw_section(), 1),
    "cpw-odd-nx": odd_cpw_section,
}

# sections and the fine grid each must solve on: folded in y at the
# middle face line, or not at all in y
Y_FOLD_SECTIONS = {
    **{f"open-eps-{e}": (lambda e=e: open_small_cpw(e), (20, 20))
       for e in (1.42, 2.2, 6.45, 9.8, 11.45)},
    "y-split": (split_section, (12, 12)),
    "y-odd-ny": (lambda: split_section(ny=25), (12, 25)),
    "y-strip-off-mid": (lambda: split_section(metal=13), (12, 24)),
    "y-boundary-off-mid": (lambda: split_section(boundary=13), (12, 24)),
    "y-patch-one-side": (lambda: split_section(patch_eps=5.0), (12, 24)),
    "y-strip-pair": (lambda: strip_pair_section(1.0), (12, 12)),
    # the same couplings and pins, but a mirror image in b only at 1 V
    "y-strip-pair-0V": (lambda: strip_pair_section(0.0), (12, 24)),
}


@pytest.fixture(params=[
    (33, 21, "grounded", "grounded"),
    (20, 17, "neumann", "grounded"),
    (13, 11, "grounded", "neumann"),
    "plates",
    *FOLD_SECTIONS,
    *Y_FOLD_SECTIONS,
], ids=["grounded", "neumann-x", "neumann-y", "plates", *FOLD_SECTIONS,
        *Y_FOLD_SECTIONS])
def oracle_section(request, plate_section):
    """Small sections for the dense oracle: every wall type, strips on
    several face lines, odd sizes, and sections on and off each fold and
    with a dead band behind a full-width strip (plates, cpw-facing)."""
    if request.param == "plates":
        return plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13)
    if request.param in FOLD_SECTIONS:
        return FOLD_SECTIONS[request.param]()
    if request.param in Y_FOLD_SECTIONS:
        return Y_FOLD_SECTIONS[request.param][0]()
    return layered_strip_section(*request.param)


def test_dense_direct_solve_oracle(oracle_section):
    sec = oracle_section
    # C' at the default tolerance; the potential itself once the residual
    # is driven near rounding
    v_ref, system = dense_oracle(sec)
    c_ref = oracle_capacitance(sec, v_ref, system)
    sol = solve_potential(sec)
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-9)
    assert sol.residual <= fieldsolve.DEFAULT_TOL
    tight = solve_potential(sec, tol=1e-12)
    assert np.abs(tight.potential - v_ref).max() <= 1e-10


def test_dense_participation_oracle(oracle_section):
    # every region's share at the default tolerance, against the shares
    # of the dense solution's link and pin energies
    v_ref, system = dense_oracle(oracle_section)
    want = oracle_participation(oracle_section, v_ref, system)
    got = energy_participation(solve_potential(oracle_section))
    assert got.keys() == want.keys()
    for name, share in want.items():
        assert abs(got[name] - share) <= 1e-9, name


def face_energies(sol):
    """Yield (energy, region_a, region_b, frac_a) per face group of the
    solver's own system, in units of EPS_0.

    One group per coupling array, between the cells a and b on its two
    sides, and one for the pins, whose energy is wholly their own
    cell's.  frac_a is the share of the face energy stored on side a;
    for two dielectrics in series across a face the drop splits
    inversely to eps, putting eps_b / (eps_a + eps_b) of it on side a.
    """
    prob = sol._problem
    v, eps, rid = sol.potential, prob.eps, prob.region_id
    for t, a, b in prob.links:
        dv = v[a] - v[b]
        yield 0.5 * t * dv * dv, rid[a], rid[b], eps[b] / (eps[a] + eps[b])
    dv = v.ravel()[prob.pin_cell] - prob.pin_val
    rp = rid.ravel()[prob.pin_cell]
    yield 0.5 * prob.pin_coef * dv * dv, rp, rp, 1.0


def test_energy_pass_matches_face_sums(oracle_section):
    # C' and each participation, read from the energies the solve
    # stored, against the same solution's energies summed face by face
    sol = solve_potential(oracle_section)
    regions, shares = [], []
    for e, ra, rb, fa in face_energies(sol):
        regions += [ra.ravel(), rb.ravel()]
        shares += [(e * fa).ravel(), (e * (1.0 - fa)).ravel()]
    names = sol._problem.region_names
    sums = np.bincount(np.concatenate(regions),
                       weights=np.concatenate(shares), minlength=len(names))
    pots = sol._problem.potentials
    c_ref = 2.0 * EPS_0 * sums.sum() / (max(pots) - min(pots)) ** 2
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-13)
    got = energy_participation(sol)
    assert list(got) == names
    for name, u in zip(names, sums):
        assert got[name] == pytest.approx(u / sums.sum(), rel=1e-13), name


def test_one_energy_pass_per_solve(monkeypatch):
    # C', then participation, then eps_eff and Z0 of the same solution
    # read stored energies: one pass for the section's solve, and none
    # for its vacuum capacitance, open or facing, which is a direct solve
    passes = []
    energies = fieldsolve._region_energies

    def spy(prob, *rest):
        passes.append(prob.section)
        return energies(prob, *rest)

    monkeypatch.setattr(fieldsolve, "_region_energies", spy)
    for lid in (None, 20e-6):
        passes.clear()
        sec = cpw_cross_section(GEOM, cell=2e-6, interlayer_thickness=lid)
        sol = solve_potential(sec)
        counts = [len(passes)]
        for read in (capacitance_per_length, energy_participation,
                     lambda s: extract_eps_eff_and_z0(sec, solution=s)):
            read(sol)
            counts.append(len(passes))
        assert counts == [1, 1, 1, 1]
        assert passes == [sec]


def full_grid_energies(sol):
    """Region energies of the solution, in J/m, summed cell by cell over
    the whole grid: the solver's own pass before it summed over the
    solved cells only."""
    prob, v = sol._problem, sol.potential
    eps, cell = prob.eps, np.zeros(v.shape)
    for t, a, b in prob.links:
        e = t * np.square(v[a] - v[b])  # twice the face energy
        share = eps[a] + eps[b]
        np.divide(eps[b], share, out=share)
        share *= e
        cell[a] += share
        e -= share
        cell[b] += e
    dv = v.ravel()[prob.pin_cell] - prob.pin_val
    np.add.at(cell.reshape(-1), prob.pin_cell, prob.pin_coef * dv * dv)
    return 0.5 * EPS_0 * np.bincount(prob.region_id.ravel(), cell.ravel(),
                                     len(prob.region_names))


def striped(sec, eps_rs):
    """The section with its regions replaced by equal vertical stripes,
    one per eps_r, left to right."""
    x0, y0 = sec.origin
    w = sec.width / len(eps_rs)
    return replace(sec, regions=[
        DielectricRegion(f"stripe{k}", Rect(x0 + k * w, x0 + (k + 1) * w,
                                            y0, y0 + sec.height), e)
        for k, e in enumerate(eps_rs)])


# sections and the axes each folds on
ENERGY_SECTIONS = {
    "open": (lambda: cpw_cross_section(GEOM, cell=1e-6), [0, 1]),
    "facing": (lambda: cpw_cross_section(GEOM, cell=1e-6,
                                         interlayer_thickness=40e-6), [0]),
    "x-only": (lambda: split_section(metal=13), [0]),
    "y-only": (lambda: shifted_trace(cpw_cross_section(GEOM, cell=1e-6), 1),
               [1]),
    "unfoldable": (lambda: shifted_trace(small_cpw_section(), 1), []),
    # 5^4 tuples of the four copies' regions, more than its 20 x 20
    # solved cells: one bincount per copy
    "many-regions": (lambda: striped(small_cpw_section(None),
                                     [2.2, 3.9, 11.9, 3.9, 2.2]), [0, 1]),
}


@pytest.mark.parametrize("name", [*ENERGY_SECTIONS, "plates"])
def test_solved_cell_energies_match_full_grid(plate_section, name):
    # each mirrored copy weighted by its fold scale and the dead band
    # left out give every region the energy of the whole grid's pass
    if name == "plates":
        sec, axes = plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13), []
    else:
        build, axes = ENERGY_SECTIONS[name]
        sec = build()
    sol = solve_potential(sec)
    assert [axis for axis, _ in sol._cells[1]] == axes
    want = full_grid_energies(sol)
    assert want.sum() > 0.0
    for got, ref in zip(sol.energy, want):
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13 * want.sum())


def solve_spy(monkeypatch):
    """Record every solve the module runs from here on."""
    runs = []
    solve = fieldsolve._solve

    def spy(*args):
        runs.append(solve(*args))
        return runs[-1]

    monkeypatch.setattr(fieldsolve, "_solve", spy)
    return runs


def vacuum_solve(sec, sol, tol=fieldsolve.DEFAULT_TOL):
    """(eps_eff, Z0) of the section from a forced all-vacuum solve started
    at the section's solution sol."""
    vac = replace(sec, regions=[replace(r, eps_r=1.0) for r in sec.regions])
    sol_vac = fieldsolve._solve(fieldsolve._Problem(vac), sol.potential, tol,
                                fieldsolve.DEFAULT_MAX_SWEEPS)
    c, c_vac = capacitance_per_length(sol), capacitance_per_length(sol_vac)
    return c / c_vac, 1.0 / (C_LIGHT * math.sqrt(c * c_vac))


@pytest.mark.parametrize("cell", [2e-6, 1e-6])
def test_open_section_solves_its_vacuum_section(monkeypatch, cell):
    # the vacuum section is solved directly, with no second CG solve,
    # and agrees with one; a trace off centre in x leaves the y-fold.
    # At 0.5 um a CG solve at tol 1e-8 is no oracle for the direct one:
    # test_vacuum_capacitance_matches_sparse_lu checks it there
    runs = solve_spy(monkeypatch)
    sections = [cpw_cross_section(replace(GEOM, eps_substrate=sub,
                                          eps_superstrate=sup), cell=cell)
                for sub in (2.2, 6.45, 9.8, 11.45, 11.9) for sup in (1.0, 2.2)]
    sections.append(shifted_trace(sections[-2], 1))
    for sec in sections:
        sol = solve_potential(sec)
        want = vacuum_solve(sec, sol)
        n = len(runs)
        got = extract_eps_eff_and_z0(sec, solution=sol)
        assert len(runs) == n
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=2e-14, abs=0.0)


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
@pytest.mark.parametrize("lid", ["one-cell", 20e-6, 40e-6, 80e-6])
def test_facing_sections_run_no_vacuum_solve(monkeypatch, cell, lid):
    # a facing CPW section, too, takes its vacuum capacitance from the
    # direct solve, the facing ground one cell up included
    sec = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=(
        cell if lid == "one-cell" else lid))
    assert len(sec.conductors) == 4
    sol = solve_potential(sec)
    runs = solve_spy(monkeypatch)
    extract_eps_eff_and_z0(sec, solution=sol)
    assert runs == []


def test_vacuum_solve_runs_past_the_free_face_bound(monkeypatch):
    # the trace a cell above its grounds at 0.5 um leaves more free faces
    # than COARSEST_CELLS on its two metal lines: the vacuum section is
    # then solved by CG, with the same bits as one run directly
    sec = shifted_trace(cpw_cross_section(GEOM, cell=0.5e-6), 0, up=1)
    sol = solve_potential(sec)
    free = sec.nx * 2 - sum(cols.sum() for cols, _, _ in
                            sol._problem.strips)
    assert free > fieldsolve._Multigrid.COARSEST_CELLS
    assert fieldsolve._vacuum_capacitance(sol._problem) is None
    runs = solve_spy(monkeypatch)
    got = extract_eps_eff_and_z0(sec, solution=sol)
    assert len(runs) == 1
    assert got == vacuum_solve(sec, sol)


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


# ----------------------------------------------------- the direct start

def start_spy(monkeypatch):
    """Record every direct start the module computes from here on."""
    starts = []
    direct = fieldsolve._direct_start

    def spy(prob):
        starts.append(direct(prob))
        return starts[-1]

    monkeypatch.setattr(fieldsolve, "_direct_start", spy)
    return starts


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
@pytest.mark.parametrize("eps", [9.8, 11.45, 11.9])
@pytest.mark.parametrize("lid", [None, 40e-6], ids=["open", "facing"])
def test_cpw_sections_take_the_direct_start(monkeypatch, cell, eps, lid):
    # a CPW section is layered in y, so CG starts from its exact potential
    # and stops at once, with the residual at rounding
    starts = start_spy(monkeypatch)
    sec = cpw_cross_section(replace(GEOM, eps_substrate=eps), cell=cell,
                            interlayer_thickness=lid)
    sol = solve_potential(sec)
    assert len(starts) == 1 and starts[0] is not None
    assert sol.iterations == 0
    assert sol.residual <= 1e-14


# sections the direct start declines, and CG solves from zero
UNLAYERED_SECTIONS = {
    "eps-varies-in-x": lambda: split_section(patch_eps=5.0),
    "stripes": lambda: striped(small_cpw_section(None),
                               [2.2, 3.9, 11.9, 3.9, 2.2]),
    "eps-changes-in-band": lambda: split_section(boundary=13),
    "free-faces-over-bound": lambda: shifted_trace(
        cpw_cross_section(GEOM, cell=0.5e-6), 0, up=1),
}


@pytest.mark.parametrize("name", UNLAYERED_SECTIONS)
def test_direct_start_declines_unlayered_sections(monkeypatch, name):
    # eps varying in x, eps changing between two metal lines, or more
    # free faces than COARSEST_CELLS: CG runs from zero, with the bits of
    # a solve given no start
    sec = UNLAYERED_SECTIONS[name]()
    starts = start_spy(monkeypatch)
    sol = solve_potential(sec)
    assert starts == [None]
    want = cg_solve(sec)
    assert sol.iterations == want.iterations > 0
    assert sol.residual == want.residual
    assert np.array_equal(sol.potential, want.potential)
    assert np.array_equal(sol.energy, want.energy)


@pytest.mark.parametrize("nx", [16, 32])
def test_narrow_plates_take_the_direct_start(plate_section, nx):
    # with insulated side walls CG takes 14 iterations at 32 cells wide
    # (1 at 16, whose folded grid is its own coarsest); plates are
    # layered, so they take none
    sec = plate_section(eps_r=6.45, nx=nx, ny=32)
    sol = solve_potential(sec)
    assert sol.iterations == 0
    want = cg_solve(sec, tol=1e-12)
    assert want.iterations > 0
    assert capacitance_per_length(sol) == pytest.approx(
        capacitance_per_length(want), rel=1e-13)


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
    # the direct map and the region energies of the solve that starts
    # from it, against a sparse LU solve of this file's own assembly
    if name in PLATE_SIZES:
        sec = plate_section(eps_r=6.45, **PLATE_SIZES[name])
    else:
        sec = HALF_MICRON_SECTIONS[name]()
    v_ref, system = sparse_oracle(sec)
    v = fieldsolve._direct_start(fieldsolve._Problem(sec))
    assert np.abs(v - v_ref).max() <= 1e-12
    sol = solve_potential(sec)
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


# ------------------------------- folding at symmetry planes, dead bands

def fine_shapes(monkeypatch):
    """Record the shape of every grid the solver builds, the fine one
    first: the cells left once the system is folded and cut down."""
    shapes = []
    level = fieldsolve._Level

    def spy(diag, fx, fy):
        shapes.append(diag.shape)
        return level(diag, fx, fy)

    monkeypatch.setattr(fieldsolve, "_Level", spy)
    return shapes


def lid_row(sec):
    """The first row above the facing ground."""
    lid = next(c for c in sec.conductors if c.name == "facing_ground")
    return round((lid.rect.y0 - sec.origin[1]) / sec.hy)


@pytest.mark.parametrize("cell", [2e-6, 1e-6, 0.5e-6])
@pytest.mark.parametrize("lid", [None, 40e-6], ids=["open", "facing"])
def test_cpw_potential_is_exactly_mirror_symmetric(monkeypatch, cell, lid):
    # open: even about the metal plane too, on a quarter of the cells;
    # facing: exactly zero above the lid, which the solve stops below
    sec = cpw_cross_section(GEOM, cell=cell, interlayer_thickness=lid)
    shapes = fine_shapes(monkeypatch)
    v = solve_potential(sec).potential
    assert v.shape == (sec.nx, sec.ny)
    assert np.array_equal(v, v[::-1])
    if lid is None:
        assert shapes[0] == (sec.nx // 2, sec.ny // 2)
        assert np.array_equal(v, v[:, ::-1])
    else:
        top = lid_row(sec)
        assert shapes[0] == (sec.nx // 2, top)
        assert np.all(v[:, top:] == 0.0)
        assert np.all(v[:, :top] != 0.0)


@pytest.mark.parametrize("name", FOLD_SECTIONS)
def test_fold_only_exact_mirror_images(monkeypatch, name):
    # an off-centre trace or an odd nx runs the full width; the dense
    # oracle tests check all three solutions
    sec = FOLD_SECTIONS[name]()
    shapes = fine_shapes(monkeypatch)
    solve_potential(sec)
    assert shapes[0][0] == (sec.nx // 2 if name == "cpw-facing" else sec.nx)


@pytest.mark.parametrize("name", Y_FOLD_SECTIONS)
def test_fold_in_y_only_exact_scaled_mirror_images(monkeypatch, name):
    # the substrate half is eps_sub times the vacuum half's mirror image;
    # an odd ny, a strip or a region boundary one cell off the mid-line,
    # a patch with another scale on one side, or mirrored strips at
    # different potentials keep every row
    build, want = Y_FOLD_SECTIONS[name]
    shapes = fine_shapes(monkeypatch)
    v = solve_potential(build()).potential
    assert shapes[0] == want
    if want[1] < v.shape[1]:
        assert np.array_equal(v, v[:, ::-1])


def test_dead_band_is_dropped_exactly(monkeypatch, plate_section):
    # below a full-width plate at 0 V nothing drives the field; above
    # one at 1 V the cells are pinned to 1 V, a source, so they stay
    sec = plate_section(eps_r=6.45, nx=17, ny=23, gap_cells=13)
    shapes = fine_shapes(monkeypatch)
    v = solve_potential(sec).potential
    assert shapes[0] == (17, 18)
    assert np.all(v[:, :5] == 0.0)
    assert np.abs(v[:, 18:] - 1.0).max() <= 1e-7


@pytest.mark.parametrize("name", ["open", "facing", "open-eps-2.2", "plates"])
def test_folded_solve_matches_full_grid_assembly(monkeypatch, plate_section,
                                                name):
    # the folded or cut-down solve driven to 1e-13, against the dense
    # solve of this file's cell-by-cell assembly of the whole grid
    sec = {"open": lambda: small_cpw_section(None),
           "facing": small_cpw_section,
           "open-eps-2.2": lambda: open_small_cpw(2.2),
           "plates": lambda: plate_section(eps_r=6.45, nx=17, ny=23,
                                           gap_cells=13)}[name]()
    shapes = fine_shapes(monkeypatch)
    sol = solve_potential(sec, tol=1e-13)
    assert shapes[0] == {"open": (20, 20), "facing": (20, 25),
                         "open-eps-2.2": (20, 20), "plates": (17, 18)}[name]
    v_ref, system = dense_oracle(sec)
    c_ref = oracle_capacitance(sec, v_ref, system)
    assert capacitance_per_length(sol) == pytest.approx(c_ref, rel=1e-12)
    want = oracle_participation(sec, v_ref, system)
    got = energy_participation(sol)
    for region, share in want.items():
        assert got[region] == pytest.approx(share, rel=1e-12), region


def test_vacuum_start_comes_back_unchanged():
    # an all-vacuum section folds the same way for both solves of the
    # eps_eff extraction, so the converged start is returned as it is
    vac = CpwGeometry(trace_width=10e-6, gap=5.806e-6, eps_substrate=1.0,
                      eps_superstrate=1.0)
    for lid in (None, 40e-6):
        sec = cpw_cross_section(vac, cell=2e-6, interlayer_thickness=lid)
        sol = solve_potential(sec)
        again = fieldsolve._solve(sol._problem, sol.potential,
                                  fieldsolve.DEFAULT_TOL,
                                  fieldsolve.DEFAULT_MAX_SWEEPS)
        assert again.iterations == 0
        assert np.array_equal(again.potential, sol.potential)


def test_iteration_count_flat_in_grid_size():
    # a V-cycle or plain relaxation needs more iterations on finer grids;
    # the preconditioned solve should not
    counts = [cg_solve(cpw_cross_section(GEOM, cell=c)).iterations
              for c in (2e-6, 1e-6, 0.5e-6)]
    assert counts[0] > 0
    assert all(abs(n - counts[0]) <= 3 for n in counts), counts


def test_convergence_error_says_what_to_change():
    sec = cpw_cross_section(GEOM, cell=2e-6)
    with pytest.raises(ConvergenceError) as info:
        cg_solve(sec, max_sweeps=2)
    for knob in ("--max-sweeps", "--tol", "--cell"):
        assert knob in str(info.value)


# ------------------------------------------------------ multigrid internals

CYCLE_SECTIONS = {
    "open": lambda: cpw_cross_section(GEOM, cell=2e-6),
    "facing": lambda: cpw_cross_section(GEOM, cell=2e-6,
                                        interlayer_thickness=20e-6),
    "odd": lambda: layered_strip_section(33, 21, "grounded", "grounded"),
}


def multigrid(sec):
    """The solver's preconditioner for a section, as v -> M v on its
    nx x ny grid, with the hierarchy."""
    prob = fieldsolve._Problem(sec)
    fine = fieldsolve._Level(prob.diag, prob.fx, prob.fy)
    mg = fieldsolve._Multigrid(fine)

    def precondition(v):
        fine.r[...] = fine.split(v)
        return fine.join(mg())

    return precondition, mg


@pytest.mark.parametrize("name", CYCLE_SECTIONS)
def test_preconditioner_is_symmetric_positive_definite(name):
    # conjugate gradients needs M symmetric and positive definite on the
    # cells; one cycle applied to random a and b must show both
    sec = CYCLE_SECTIONS[name]()
    precondition, _ = multigrid(sec)
    rng = np.random.default_rng(11)
    a, b = (rng.standard_normal((sec.nx, sec.ny)) for _ in range(2))
    ma, mb = precondition(a), precondition(b)
    gap = abs(np.sum(ma * b) - np.sum(a * mb))
    assert gap <= 1e-12 * np.linalg.norm(ma) * np.linalg.norm(b)
    assert np.sum(ma * a) > 0.0 and np.sum(mb * b) > 0.0


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
    # would carry NaN into every coarse correction
    with pytest.raises(ValueError, match=f"^coarsest operator is not "
                       f"positive definite: pivot {k} is {pivot}$"):
        fieldsolve._cholesky_inverse(np.array(a))


@pytest.mark.parametrize("name", ["open", "facing", "odd"])
def test_coarsest_inverse_matches_lapack(name):
    # the coarsest operator, column by column from the level's own
    # stencil, over its active cells in row-major order; the coarsest
    # visit, applied to each unit vector, must give A^-1 column by column
    _, mg = multigrid(CYCLE_SECTIONS[name]())
    last, k_last = mg.levels[-1], len(mg.levels) - 1
    cells = np.flatnonzero(last.diag[:last.nx, :last.ny] > 0.0)
    u, au = np.zeros_like(last.x), np.zeros_like(last.r)
    columns, solved = [], []
    for k in cells:
        v = np.zeros(last.nx * last.ny)
        v[k] = 1.0
        u[:, :, 1:-1, 1:-1] = last.split(v.reshape(last.nx, last.ny))
        last.apply(last.bind(u), au)
        u[:, :, 1:-1, 1:-1] = au
        columns.append(last.join(u).ravel()[cells])
        last.r[...] = last.split(v.reshape(last.nx, last.ny))
        solved.append(last.join(mg(k_last)).ravel()[cells])
    want = np.linalg.inv(np.array(columns).T)
    assert len(want) <= mg.COARSEST_CELLS
    got = np.array(solved).T
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
