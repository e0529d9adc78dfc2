"""2-D electrostatic cross-section solver.

Solves div(eps grad V) = 0 on a rectangular box of nx x ny cells with
piecewise-constant permittivity, directly, on the flux-conserving
five-point stencil.  Unknowns sit at cell centers.  Conductors are
zero-thickness horizontal strips on a face line, as thin-film metal is.
The discrete system has two parts: couplings between neighbouring
cells, each carrying the harmonic mean of the two permittivities (the
exact series composition for interfaces aligned with the grid), and
pins, one per face where a cell meets a fixed potential (a grounded
wall, or either side of a strip), which tie the cell to that potential
across half a cell.  The solver and the energy extraction both read
this one model.

The solver takes a section whose permittivity depends on y alone and
changes only on face lines that carry metal, as a CPW's and its
all-vacuum copy's do, and refuses any other.  A sine transform across x
and a closed form along y leave those lines' free faces as the only
unknowns, one small dense solve (the capacitance-matrix method), and
give the exact discrete potential.  Its residual, recomputed from the
system above, confirms it.  Rows behind a face line cut by metal across
the whole width, with no source beyond it (the band behind a full-width
facing ground), hold exactly zero and are left out.

Each solve sums the discrete field energy of every dielectric region
once, over the rows that carry field.  From it the module takes the
per-unit-length capacitance (C = 2U/V^2), each region's share of the
energy, and, with the all-vacuum capacitance from the same face solve,
the effective permittivity and characteristic impedance of a
transmission-line section.

The box walls are grounded by default.  Tests and idealized parallel
plate sections may instead ask for insulated (zero normal flux) walls,
which kill fringing where a closed form is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, EPS_0
from .cpw import CpwGeometry

__all__ = [
    "Rect",
    "DielectricRegion",
    "Conductor",
    "CrossSection",
    "FieldSolution",
    "ConvergenceError",
    "solve_potential",
    "capacitance_per_length",
    "extract_eps_eff_and_z0",
    "energy_participation",
    "cpw_cross_section",
]

DEFAULT_TOL = 1e-8
MAX_CELLS_PER_SIDE = 2048  # a CPW section peaks at ~110 B per cell
MIN_BOX_FACTOR = 10.0  # CPW box width in apertures; also the default
# unknowns of the face solve's dense system; a CPW section's metal plane
# leaves at most MAX_CELLS_PER_SIDE / MIN_BOX_FACTOR + 2 of them
MAX_FREE_FACES = 256


class ConvergenceError(RuntimeError):
    """The solver failed to reach the residual tolerance."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle.  Zero height marks a horizontal strip."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("rectangle edges out of order")

    @property
    def is_strip(self) -> bool:
        return self.y1 == self.y0


@dataclass(frozen=True)
class DielectricRegion:
    name: str
    rect: Rect
    eps_r: float

    def __post_init__(self):
        if not 0.0 < self.eps_r < math.inf:
            raise ValueError(
                f"eps_r of {self.name!r} must be positive and finite")
        if self.rect.is_strip or self.rect.x1 == self.rect.x0:
            raise ValueError(f"region {self.name!r} must have area")


@dataclass(frozen=True)
class Conductor:
    """A zero-thickness strip at a fixed potential: rect has no height."""

    name: str
    rect: Rect
    potential: float

    def __post_init__(self):
        if not self.rect.is_strip:
            raise ValueError(f"conductor {self.name!r} must be a strip: "
                             "its rect has height")


@dataclass
class CrossSection:
    """Rectangular solve domain: geometry, materials, electrodes, walls.

    width and height are in meters, split into nx x ny equal cells.
    origin is the physical coordinate of the lower-left corner.  Every
    cell center must fall in exactly one dielectric region.  x_bc and
    y_bc are each grounded or neumann.
    """

    width: float
    height: float
    nx: int
    ny: int
    regions: list[DielectricRegion] = field(default_factory=list)
    conductors: list[Conductor] = field(default_factory=list)
    origin: tuple[float, float] = (0.0, 0.0)
    x_bc: str = "grounded"
    y_bc: str = "grounded"

    def __post_init__(self):
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("domain must have positive size")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("need at least one cell per direction")
        if self.x_bc not in ("grounded", "neumann"):
            raise ValueError(f"unknown x boundary {self.x_bc!r}")
        if self.y_bc not in ("grounded", "neumann"):
            raise ValueError(f"unknown y boundary {self.y_bc!r}")
        if not self.regions:
            raise ValueError("at least one dielectric region is required")

    @property
    def hx(self) -> float:
        return self.width / self.nx

    @property
    def hy(self) -> float:
        return self.height / self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.origin
        xs = ox + (np.arange(self.nx) + 0.5) * self.hx
        ys = oy + (np.arange(self.ny) + 0.5) * self.hy
        return xs, ys


@dataclass
class FieldSolution:
    """Solved potential with the assembled problem kept for reuse.

    residual is |b - A v| / |b| of the potential, recomputed from the
    assembled system.  iterations is always 0, since the solve is
    direct; it stays because the CLI's JSON output and its goldens carry
    it, and benchmark tooling reads it.  energy is the field energy of
    each region of section.regions over the whole section, in J/m,
    summed once by the solve (see _residual_and_energies).
    """

    section: CrossSection
    potential: np.ndarray
    iterations: int
    residual: float
    energy: np.ndarray
    _problem: "_Problem"


class _Problem:
    """The section's discrete system: cell couplings plus pins.

    fx and fy couple neighbouring cells across interior x and y faces,
    zero across a strip; links lists each with the index of its cells on
    either side.  pin_cell (flat cell index), pin_coef and pin_val list
    every face of a cell that touches a grounded wall or a strip; pins
    sums pin_coef per cell, and b is the right-hand side.  strips lists
    each conductor as (columns it covers, face line, potential), and
    grounded says per axis, x then y, whether its walls are grounded.
    Couplings and pins are in units of EPS_0 and include the cell aspect
    ratio.  This is the only place that reads the wall types.
    """

    def __init__(self, section: CrossSection):
        self.section = section
        nx, ny = section.nx, section.ny
        hx, hy = section.hx, section.hy
        xs, ys = section.cell_centers()

        # paint dielectric regions; every cell must be claimed once
        region_id = np.full((nx, ny), -1, dtype=int)
        eps = np.zeros((nx, ny))
        self.region_names = [r.name for r in section.regions]
        if len(set(self.region_names)) != len(self.region_names):
            raise ValueError("region names must be unique")
        xg = xs[:, None]
        yg = ys[None, :]
        for ridx, reg in enumerate(section.regions):
            inside = ((xg >= reg.rect.x0) & (xg <= reg.rect.x1) &
                      (yg >= reg.rect.y0) & (yg <= reg.rect.y1))
            clash = inside & (region_id >= 0)
            if clash.any():
                raise ValueError(f"region {reg.name!r} overlaps another")
            region_id[inside] = ridx
            eps[inside] = reg.eps_r
        if (region_id < 0).any():
            raise ValueError("dielectric regions do not cover the domain")
        self.region_id = region_id
        self.eps = eps

        # electrodes: a strip cuts its face line, so no coupling crosses
        # it, and pins the cell on either side
        self.potentials = [cond.potential for cond in section.conductors]
        self.grounded = [bc == "grounded" for bc in (section.x_bc,
                                                     section.y_bc)]
        if any(self.grounded):
            self.potentials.append(0.0)
        if not self.potentials:
            raise ValueError("no electrodes in the section")
        strips: list[tuple[np.ndarray, int, float]] = []
        cut = np.zeros((nx, ny - 1), dtype=bool)  # face below row m at m - 1
        for cond in section.conductors:
            r = cond.rect
            fy = (r.y0 - section.origin[1]) / hy
            m = round(fy)
            if abs(fy - m) > 1e-6:
                raise ValueError(
                    f"strip {cond.name!r} does not sit on a face line")
            if not 1 <= m <= ny - 1:
                raise ValueError(
                    f"strip {cond.name!r} lies on or outside the walls")
            cols = (xs >= r.x0) & (xs <= r.x1)
            if not cols.any():
                raise ValueError(f"strip {cond.name!r} covers no cells")
            if cut[cols, m - 1].any():
                raise ValueError("strips overlap on a shared face")
            cut[cols, m - 1] = True
            strips.append((cols, int(m), cond.potential))

        self.strips = strips
        cells = np.arange(nx * ny).reshape(nx, ny)
        pins = []

        def pin(at, ratio, value):
            """Pin the cells at index `at` to value across half a cell."""
            coef = ratio * (2.0 * eps[at])
            pins.append((cells[at], coef, np.full_like(coef, value)))

        def couple(a, b, ratio):
            """Harmonic-mean couplings between the cells a and b, eps
            itself where equal: 2 e e / (e + e) misses 6.45 by an ulp."""
            ea, eb = eps[a], eps[b]
            t, mixed = ratio * ea, ea != eb
            ea, eb = ea[mixed], eb[mixed]
            t[mixed] = ratio * (2.0 * ea * eb / (ea + eb))
            return t

        every = slice(None)
        x_faces = ((slice(None, -1), every), (slice(1, None), every))
        y_faces = ((every, slice(None, -1)), (every, slice(1, None)))
        self.fx = couple(*x_faces, hy / hx)
        self.fy = np.where(cut, 0.0, couple(*y_faces, hx / hy))
        self.links = [(self.fx, *x_faces), (self.fy, *y_faces)]
        if self.grounded[0]:
            for i in (0, -1):
                pin((i, every), hy / hx, 0.0)
        if self.grounded[1]:
            for j in (0, -1):
                pin((every, j), hx / hy, 0.0)
        for cols, m, pot in strips:
            for j in (m - 1, m):
                pin((cols, j), hx / hy, pot)
        self.pin_cell, self.pin_coef, self.pin_val = (
            np.concatenate(group) for group in zip(*pins))

        self.pins = np.bincount(self.pin_cell, weights=self.pin_coef,
                                minlength=nx * ny).reshape(nx, ny)
        self.b = np.bincount(self.pin_cell, self.pin_coef * self.pin_val,
                             nx * ny).reshape(nx, ny)


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """X = L^-1 for the Cholesky factor A = L L^T of an SPD matrix, so
    A^-1 = X^T X.  With nonzeros at most `band` off the diagonal, L has
    that band too: step k factors the block of rows and columns k to
    k + band, and takes column k of L out of the rows of X below it
    (forward substitution on I).  A pivot not positive is a ValueError.
    Formed in numpy: LAPACK's at these sizes now and then stalls, and
    with no BLAS call the bits do not depend on the BLAS thread count."""
    a = np.array(a, dtype=float)
    rows, cols = np.nonzero(a)
    band = int(np.abs(rows - cols).max(initial=0))
    x = np.eye(len(a))
    for k in range(len(a)):
        blk = a[k:k + band + 1, k:k + band + 1]
        if not blk[0, 0] > 0.0:  # also NaN
            raise ValueError(f"matrix is not positive definite: "
                             f"pivot {k} is {blk[0, 0]:.6g}")
        pivot = math.sqrt(blk[0, 0])
        col = blk[1:, :1] / pivot  # column k of L, below the diagonal
        blk[1:, 1:] -= col * col.T
        x[k, :k + 1] /= pivot
        x[k + 1:k + band + 1, :k + 1] -= col * x[k, :k + 1]
    return x


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # a numpy reduction, not np.vdot: pairwise summation gives the same
    # bits at any BLAS thread count, and no BLAS worker is left spinning
    return float((a * b).sum())


def solve_potential(section: CrossSection,
                    tol: float = DEFAULT_TOL) -> FieldSolution:
    """Solve the section to a potential map, directly.

    The section's permittivity must depend on y alone and change only on
    face lines that carry metal, and those lines may leave at most
    MAX_FREE_FACES faces free of metal, as every section that
    cpw_cross_section builds does; any other section is a ValueError
    that says which of these fails.  The map (_direct_map) is exact up
    to rounding: its relative residual |b - A v| / |b|, recomputed from
    the assembled system, is ~1e-15, and a ConvergenceError is raised
    when it is above tol.  Rows behind a full-width strip with no source
    beyond it hold exactly zero and are left out of the residual and
    energy passes.
    """
    _check_tol(tol)
    prob = _Problem(section)
    v, rows = _direct_map(prob)
    rel, energy = _residual_and_energies(prob, v, rows)
    if not rel <= tol:
        raise ConvergenceError(
            f"relative residual {rel:.3e} of the direct solve is above tol "
            f"{tol:.3e}; rounding alone leaves ~1e-15, so loosen tol (--tol)")
    return FieldSolution(section=section, potential=v, iterations=0,
                         residual=rel, energy=energy, _problem=prob)


def _residual_and_energies(prob: _Problem, v: np.ndarray,
                           rows: slice) -> tuple[float, np.ndarray]:
    """(|b - A v| / |b|, field energy of each region in J/m) of the map
    v, face by face over rows, outside which v and b are zero and no
    face couples to them (see _direct_map).

    A coupling t carries the flux q = t dv across its face from the cell
    a on one side to the cell c on the other, which A v sums per cell
    with the pins' flux, and stores q dv / 2; for two dielectrics in
    series the drop splits inversely to eps, putting eps_c / (eps_a +
    eps_c) of that in the cell a.  As _direct_map requires, eps depends
    on y alone, so that split is one half across x faces and one number
    per row across y faces.  A pin's energy is wholly its cell's; the
    few pins are summed from v itself.  |b| = 0 counts as 1, so that the
    zero map of a section with no source has residual 0.
    """
    u, eps, b = v[:, rows], prob.eps[0, rows], prob.b[:, rows]
    r = b - prob.pins[:, rows] * u
    cell = np.zeros(u.shape)
    faces = zip((prob.fx[:, rows], prob.fy[:, rows.start:rows.stop - 1]),
                prob.links, (0.5, eps[1:] / (eps[:-1] + eps[1:])))
    for t, (_, a, c), split in faces:
        d = u[a] - u[c]
        q = t * d
        r[a] -= q
        r[c] += q
        q *= d  # twice the face energy
        d = np.multiply(q, split, out=d)
        cell[a] += d
        q -= d
        cell[c] += q
    rel = math.sqrt(_dot(r, r)) / (math.sqrt(_dot(b, b)) or 1.0)
    n = len(prob.region_names)
    energy = np.bincount(prob.region_id[:, rows].ravel(), cell.ravel(), n)
    dv = v.ravel()[prob.pin_cell] - prob.pin_val
    energy += np.bincount(prob.region_id.ravel()[prob.pin_cell],
                          prob.pin_coef * dv * dv, n)
    return rel, 0.5 * EPS_0 * energy


def capacitance_per_length(sol: FieldSolution) -> float:
    """C' = 2 U / V^2 in F/m from the discrete field energy."""
    pots = sol._problem.potentials
    span = max(pots) - min(pots)
    if span <= 0.0:
        raise ValueError("electrodes span no potential difference")
    return 2.0 * float(sol.energy.sum()) / (span * span)


def energy_participation(sol: FieldSolution) -> dict[str, float]:
    """Fraction of the stored energy per dielectric region.

    Sums to one exactly up to rounding.  Raises on a zero-energy
    solution, where fractions are undefined.
    """
    total = float(sol.energy.sum())
    if total <= 0.0:
        raise ValueError("zero field energy: participation undefined")
    return {name: float(u) / total
            for name, u in zip(sol._problem.region_names, sol.energy)}


def extract_eps_eff_and_z0(section: CrossSection, tol: float = DEFAULT_TOL,
                           solution: FieldSolution | None = None
                           ) -> tuple[float, float]:
    """(eps_eff, Z0) of a line cross-section: eps_eff = C / C_vac and Z0
    = 1 / (c sqrt(C C_vac)), C_vac with every region at eps_r = 1.

    C_vac is the exact discrete capacitance of the all-vacuum section,
    by the face solve that gives the section its potential
    (_vacuum_capacitance).  For an already-all-vacuum section C_vac is C
    itself, so eps_eff is exactly one.  Pass a solution already computed
    for this section to skip the solve.
    """
    if solution is not None and solution.section is not section:
        raise ValueError("solution belongs to a different section")
    _check_tol(tol)
    sol = solution if solution is not None else solve_potential(section, tol)
    c_actual = capacitance_per_length(sol)
    c_vac = (c_actual if all(r.eps_r == 1.0 for r in section.regions)
             else _vacuum_capacitance(sol._problem))
    eps_eff = c_actual / c_vac
    z0 = 1.0 / (C_LIGHT * math.sqrt(c_actual * c_vac))
    return eps_eff, z0


def _vacuum_capacitance(prob: _Problem) -> float:
    """C' in F/m of prob's section with every region at eps_r = 1, by
    _face_solve."""
    two_u = _face_solve(prob, np.ones(prob.section.ny))[-1]
    span = max(prob.potentials) - min(prob.potentials)
    return EPS_0 * two_u / (span * span)


def _face_solve(prob: _Problem, eps: np.ndarray):
    """(lam, bands, modes, 2U / EPS_0) of prob's system with eps[j] in row
    j: bands as (lo, hi, pinned ends), modes each metal line's faces in
    the x basis.  A ValueError refuses more than MAX_FREE_FACES free
    faces, or eps changing on a face line with no metal.

    In a band between two face lines that carry metal, or a line and a
    y wall, the sine basis (cosine between insulated walls) diagonalizes
    the x operator, mode k with eigenvalue eps lam, lam = 4 rx sin^2(pi
    k / 2 nx).  A metal line's free face, 2 eps ry from each side in
    series, is split exactly through a face node, so each face pins its
    two cells to a strip or to the node.  Each mode of a band is then a
    chain, eps times _band_form's energy in its ends, and the nodes
    minimize the sum: a dense solve on the free faces, the capacitance-
    matrix method (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
    722, 1971).
    """
    sec = prob.section
    nx, rx, ry = sec.nx, sec.hy / sec.hx, sec.hx / sec.hy
    faces: dict[int, np.ndarray] = {}  # face line -> potentials, NaN free
    for cols, m, pot in prob.strips:
        faces.setdefault(m, np.full(nx, np.nan))[cols] = pot
    free_faces = sum(np.isnan(g).sum() for g in faces.values())
    if free_faces > MAX_FREE_FACES:
        raise ValueError(f"the metal lines leave {free_faces} faces free, "
                         f"above the {MAX_FREE_FACES} the field solver takes")
    k, wave, lone = ((np.arange(1, nx + 1), np.sin, nx) if prob.grounded[0]
                     else (np.arange(nx), np.cos, 0))
    lam = 4.0 * rx * np.square(np.sin(0.5 * np.pi / nx * k))
    norm = np.where(k == lone, math.sqrt(1.0 / nx), math.sqrt(2.0 / nx))

    lines = sorted(faces)
    diag, cross, bands = [np.zeros(nx) for _ in lines], [], []
    ends = [0, *lines, sec.ny]
    for lo, hi in zip(ends, ends[1:]):
        change = np.flatnonzero(eps[lo:hi] != eps[lo])
        if change.size:
            y = sec.origin[1] + (lo + change[0]) * sec.hy
            raise ValueError(f"eps_r changes at y = {y:.6g} m, on a face line "
                             "with no metal: the field solver needs every "
                             "change of eps_r on a metal line")
        pinned = [m in faces or prob.grounded[1] for m in (lo, hi)]
        if not any(pinned):
            continue
        bands.append((lo, hi, pinned))
        own, across = (eps[lo] * f for f in _band_form(
            hi - lo, lam, ry, insulated=not all(pinned)))
        for m in (lo, hi):
            if m in faces:
                diag[lines.index(m)] += own
        if lo in faces and hi in faces:
            cross.append(across)

    # per line, the modes of its known potentials and the basis at its
    # free faces (columns at zero need neither); then the Hessian h and
    # gradient r of the energy in the free faces' potentials
    known, free = [], []
    for m in lines:
        cols = np.flatnonzero(faces[m] != 0.0)
        g = faces[m][cols]
        basis = norm * wave(np.outer(2 * cols + 1, k) % (4 * nx)
                            * (0.5 * np.pi / nx))
        fixed = ~np.isnan(g)
        known.append(np.einsum("ik,i->k", basis[fixed], g[fixed]))
        free.append(basis[~fixed])
    at = np.cumsum([0] + [len(q) for q in free])
    h, r = np.zeros((at[-1], at[-1])), np.zeros(at[-1])
    for j, q in enumerate(free):
        rows = slice(at[j], at[j + 1])
        h[rows, rows] = np.einsum("ik,k,jk->ij", q, diag[j], q)
        drive = diag[j] * known[j]
        if j:
            drive += cross[j - 1] * known[j - 1]
        if j + 1 < len(lines):
            drive += cross[j] * known[j + 1]
            above = slice(at[j + 1], at[j + 2])
            h[rows, above] = np.einsum("ik,k,jk->ij", q, cross[j], free[j + 1])
            h[above, rows] = h[rows, above].T
        r[rows] = np.einsum("ik,k->i", q, drive)
    x = _cholesky_inverse(h)
    f = -np.einsum("ji,j->i", x, np.einsum("ij,j->i", x, r))
    modes = [g + np.einsum("ik,i->k", q, f[at[j]:at[j + 1]])
             for j, (g, q) in enumerate(zip(known, free))]
    two_u = (sum(_dot(d, g * g) for d, g in zip(diag, modes)) +
             2.0 * sum(_dot(c, a * b)
                       for c, a, b in zip(cross, modes, modes[1:])))
    return lam, bands, dict(zip(lines, modes)), two_u


def _direct_map(prob: _Problem) -> tuple[np.ndarray, slice]:
    """The exact potential of a section whose eps depends on y alone, from
    _face_solve, and the rows outside which it is exactly zero; a
    ValueError where eps varies across x.

    In a band of n rows, mode k at y = j + 1/2 above the lower face is
    (G_lo sinh((n - y) theta) + G_hi sinh(y theta)) / sinh(n theta), G =
    g / cosh(theta / 2) for the faces' modes g: the chain pinned across
    half a cell at each end.  A cosh replaces the sinh next to an
    insulated wall; at lam = 0 it is linear.  Bands with no drive
    (behind a facing ground) stay zero, and the rows returned span the
    others, all rows when none is driven.  They end at a y wall or a
    full-width strip at 0 V, since a line with a free face next to a
    driven band has nonzero modes and drives the band beyond it.  A real
    FFT (pocketfft, no BLAS) brings each row back across x.
    """
    sec, eps = prob.section, prob.eps
    varies = np.flatnonzero((eps != eps[:1]).any(axis=0))
    if varies.size:
        y = sec.origin[1] + (varies[0] + 0.5) * sec.hy
        raise ValueError(f"eps_r varies across x in the row at y = {y:.6g} m: "
                         "the field solver needs eps_r to depend on y alone")
    lam, bands, modes, _ = _face_solve(prob, eps[0])
    nx, ny = eps.shape
    s = np.sqrt(lam / (4.0 * sec.hx / sec.hy))
    theta = 2.0 * np.arcsinh(s)  # s = sinh(theta / 2)
    c = np.zeros((ny, nx))  # per row, the potential's modes
    live = []
    for lo, hi, pinned in bands:
        if not any(modes[m].any() for m in (lo, hi) if m in modes):
            continue
        live += [lo, hi]
        n, y = hi - lo, np.arange(hi - lo) + 0.5
        # e^(-y theta) (1 -+ e^(-2 (n - y) theta)) / (1 -+ e^(-2 n theta)),
        # + next to an insulated wall
        shift = 0.0 if all(pinned) else 2.0
        p = np.expm1(2.0 * np.multiply.outer(y - n, theta))
        p += shift
        d = np.expm1(-2.0 * n * theta) + shift
        p *= np.divide(1.0 / np.sqrt(1.0 + s * s), d, out=np.zeros(nx),
                       where=d != 0.0)  # and 1 / cosh(theta / 2)
        p *= np.exp(-np.multiply.outer(y, theta))
        p[:, d == 0.0] = 1.0 - y[:, None] / n
        for m, prof in ((lo, p), (hi, p[::-1])):
            if m in modes:  # not a wall
                c[lo:hi] += modes[m] * prof
    # nx irfft of 2 nx points sums c_k norm_k e^(i pi k (2 i + 1) / 2 nx)
    # over k; the sine's part is the real part times -i
    k = np.arange(nx) + prob.grounded[0]
    w = math.sqrt(2.0 / nx) * np.exp(0.5j * np.pi / nx * k) * (
        -1j if prob.grounded[0] else 1.0)
    w[k % nx == 0] *= math.sqrt(2.0)  # norm 1 / sqrt(nx), counted once
    lo, hi = min(live, default=0), max(live, default=ny)
    spec = np.zeros((hi - lo, nx + 1), dtype=complex)
    np.multiply(c[lo:hi], w, out=spec[:, k[0]:k[0] + nx])
    v = np.zeros((nx, ny))
    v[:, lo:hi] = nx * np.fft.irfft(spec, 2 * nx)[:, :nx].T
    return v, slice(lo, hi)


def _band_form(n: int, lam: np.ndarray, ry: float,
               insulated: bool) -> tuple[np.ndarray, np.ndarray]:
    """Energy form of a band of n rows per x mode of eigenvalue lam.

    Each mode of the band is a chain of n cells coupled by ry, alpha =
    2 + lam / ry = 2 cosh(theta) on the diagonal, pinned across half a
    cell (2 ry) to a face potential at either end.  Its least energy is
    U = (own (g_lo^2 + g_hi^2) + 2 across g_lo g_hi) / 2, with own =
    2 ry tanh(theta / 2) coth(n theta) and across = -2 ry tanh(theta /
    2) / sinh(n theta): at lam = 0, ry / n and -ry / n, n couplings ry
    in series.  With an insulated wall at one end, own is 2 ry
    tanh(theta / 2) tanh(n theta) at the other one.  Written in
    e^(-n theta), nothing overflows however long the chain.
    """
    s = np.sqrt(lam / (4.0 * ry))  # sinh(theta / 2)
    t = s / np.sqrt(1.0 + s * s)  # tanh(theta / 2)
    n_theta = 2.0 * n * np.arcsinh(s)
    e, d = np.exp(-n_theta), -np.expm1(-2.0 * n_theta)
    if insulated:
        return 2.0 * ry * t * d / (1.0 + e * e), np.zeros_like(lam)
    q = np.divide(t, d, out=np.full_like(t, 0.25 / n), where=d > 0.0)
    return 2.0 * ry * q * (1.0 + e * e), -4.0 * ry * q * e


def cpw_cross_section(geometry: CpwGeometry, cell: float,
                      box_factor: float = MIN_BOX_FACTOR,
                      interlayer_thickness: float | None = None
                      ) -> CrossSection:
    """Grounded-box cross-section of a CPW between two half-spaces.

    The metal plane sits at y = 0 as zero-thickness strips: the center
    trace at 1 V, the side grounds running to the walls at 0 V.  The
    region below it is named "substrate" and the one above "interlayer",
    the names the device loss budget looks up.  The box is box_factor
    times the (w + 2s) aperture on a side; rectangle edges snap to the
    cell grid.  When interlayer_thickness puts the facing chip's ground
    inside the box, a grounded strip is added at that height.  A box
    more than MAX_CELLS_PER_SIDE cells wide is refused.
    """
    if cell <= 0.0:
        raise ValueError("cell must be positive")
    if box_factor < MIN_BOX_FACTOR:
        raise ValueError(
            f"box must be at least {MIN_BOX_FACTOR:g} apertures wide")
    w, s = geometry.trace_width, geometry.gap
    reach = 0.5 * box_factor * (w + 2.0 * s) / cell  # half-width in cells
    if not reach <= MAX_CELLS_PER_SIDE // 2:  # also NaN
        raise ValueError(f"cell {cell:.6g} m makes the box {2.0 * reach:.6g} "
                         f"cells wide, above {MAX_CELLS_PER_SIDE}: raise "
                         "cell or lower box_factor")
    half_cells = math.ceil(reach)
    nx = ny = 2 * half_cells
    half = half_cells * cell

    def snap(x: float) -> float:
        return round(x / cell) * cell

    trace_half = snap(0.5 * w)
    ground_from = snap(0.5 * w + s)
    if not 0.0 < trace_half < ground_from < half:
        raise ValueError("cell too coarse for this geometry")

    regions = [
        DielectricRegion("substrate", Rect(-half, half, -half, 0.0),
                         geometry.eps_substrate),
        DielectricRegion("interlayer", Rect(-half, half, 0.0, half),
                         geometry.eps_superstrate),
    ]
    conductors = [
        Conductor("trace", Rect(-trace_half, trace_half, 0.0, 0.0), 1.0),
        Conductor("ground_left", Rect(-half, -ground_from, 0.0, 0.0), 0.0),
        Conductor("ground_right", Rect(ground_from, half, 0.0, 0.0), 0.0),
    ]
    if interlayer_thickness is not None:
        if interlayer_thickness <= 0.0:
            raise ValueError("interlayer_thickness must be positive")
        lid = snap(interlayer_thickness)
        if cell <= lid < half:
            conductors.append(
                Conductor("facing_ground", Rect(-half, half, lid, lid), 0.0))

    return CrossSection(width=2.0 * half, height=2.0 * half, nx=nx, ny=ny,
                        regions=regions, conductors=conductors,
                        origin=(-half, -half))
