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
across half a cell.

The solver takes a section whose dielectric regions each span the box's
width and meet only on face lines that carry metal, as a CPW's and its
all-vacuum copy's do, and refuses any other.  A sine transform across x
and a closed form along y leave those lines' free faces as the only
unknowns, one small dense solve (the capacitance-matrix method) whose
residual is checked.  The same face solve gives the field energy of
each band between two such lines, and so of each region, exactly.  From
those energies the module takes the per-unit-length capacitance (C =
2U/V^2) and each region's share of the energy; with a face solve of the
all-vacuum copy, it also takes the effective permittivity and
characteristic impedance of a transmission-line section.  None of this
builds an nx x ny array.  The potential map is expanded from the face
solution only when it is read, and its residual, recomputed from the
cell system above over the whole grid, is checked then.

The box walls are grounded by default.  Tests and idealized parallel
plate sections may instead ask for insulated (zero normal flux) walls,
which kill fringing where a closed form is the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, EPS_0
from .cpw import CpwGeometry
from .numerics import _require_finite

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

# a read of the potential map peaks at ~60 B per cell (250 MB at 2042^2
# cells, traced by tracemalloc); a solve without it at ~7 MB there
MAX_CELLS_PER_SIDE = 2048
MIN_BOX_FACTOR = 10.0  # CPW box width in apertures; also the default
DEFAULT_CELL = 0.5e-6  # m, of the device's field solve and the CLI's
# unknowns of the face solve's dense system; a CPW section's metal plane
# leaves at most MAX_CELLS_PER_SIDE / MIN_BOX_FACTOR + 2 of them
MAX_FREE_FACES = 256
# bound on the relative residuals of the face solve and of the map, which
# rounding puts at ~1e-15
RESIDUAL_BOUND = 1e-12


class ConvergenceError(RuntimeError):
    """A residual of the direct solve is above RESIDUAL_BOUND: the solver
    is wrong."""


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
    """A solved section: region energies now, the potential map on read.

    residual is the face system's |h f + r| / |r| (see _face_solve).
    iterations is always 0, since the solve is direct; the CLI's JSON, its
    goldens and benchmark tooling read it.  energy is the field energy of
    each region of section.regions, in J/m, summed over the face solve's
    bands.  potential, the nx x ny map, is built from the stored face
    solution on its first read, when its residual |b - A v| / |b| over the
    whole grid is checked too; until then it holds no nx x ny array.
    """

    section: CrossSection
    iterations: int
    residual: float
    energy: np.ndarray
    _problem: "_Problem"
    _faces: tuple  # bands and modes of _face_solve

    @functools.cached_property
    def potential(self) -> np.ndarray:
        v = _direct_map(self._problem, *self._faces)
        _check(_map_residual(self._problem, v), "potential map")
        return v


class _Problem:
    """What the face solve reads of a section, checked.

    region and eps give each row's region index and eps_r; faces maps
    each face line that carries metal to the potential of its nx faces,
    NaN where a face is free; grounded says per axis, x then y, whether
    its walls are grounded.  Every region must span the box's width, and
    regions may meet only on a face line that carries metal, with at most
    MAX_FREE_FACES free faces on all lines: a ValueError says which fails.
    The parts of _face_solve that eps does not change are built here, once
    for the section and its vacuum copy: lam, each metal line's known modes
    and free basis (lines, known, free) and each band's _band_form (forms).
    """

    def __init__(self, section: CrossSection):
        self.section = section
        nx, ny, hy, oy = section.nx, section.ny, section.hy, section.origin[1]
        xs, ys = section.cell_centers()

        self.region_names = [r.name for r in section.regions]
        if len(set(self.region_names)) != len(self.region_names):
            raise ValueError("region names must be unique")
        region = np.full(ny, -1)
        for ridx, reg in enumerate(section.regions):
            r = reg.rect
            rows = (ys >= r.y0) & (ys <= r.y1)
            cols = (xs >= r.x0) & (xs <= r.x1)
            if not (rows.any() and cols.any()):
                continue
            if not cols.all():
                raise ValueError(f"region {reg.name!r} does not span the "
                                 "box's width, as the field solver needs")
            if (region[rows] >= 0).any():
                raise ValueError(f"region {reg.name!r} overlaps another")
            region[rows] = ridx
        if (region < 0).any():
            y = oy + (np.flatnonzero(region < 0)[0] + 0.5) * hy
            raise ValueError(f"no dielectric region covers the row at "
                             f"y = {y:.6g} m")
        self.region = region
        self.eps = np.array([r.eps_r for r in section.regions])[region]

        self.potentials = [cond.potential for cond in section.conductors]
        self.grounded = [bc == "grounded" for bc in (section.x_bc,
                                                     section.y_bc)]
        if any(self.grounded):
            self.potentials.append(0.0)
        if not self.potentials:
            raise ValueError("no electrodes in the section")
        self.faces: dict[int, np.ndarray] = {}
        for cond in section.conductors:
            r = cond.rect
            fy = (r.y0 - oy) / hy
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
            line = self.faces.setdefault(int(m), np.full(nx, np.nan))
            if not np.isnan(line[cols]).all():
                raise ValueError("strips overlap on a shared face")
            line[cols] = cond.potential

        for m in np.flatnonzero(region[1:] != region[:-1]) + 1:
            if m not in self.faces:
                lo, hi = (self.region_names[i] for i in region[m - 1:m + 1])
                raise ValueError(
                    f"regions {lo!r} and {hi!r} meet at y = {oy + m * hy:.6g}"
                    " m, on a face line with no metal: the field solver "
                    "needs regions to meet on a metal line")
        free = sum(int(np.isnan(g).sum()) for g in self.faces.values())
        if free > MAX_FREE_FACES:
            raise ValueError(f"the metal lines leave {free} faces free, "
                             f"above the {MAX_FREE_FACES} the field solver takes")

        rx, ry = hy / section.hx, section.hx / hy
        k, wave, lone = ((np.arange(1, nx + 1), np.sin, nx)
                         if self.grounded[0] else (np.arange(nx), np.cos, 0))
        self.lam = 4.0 * rx * np.square(np.sin(0.5 * np.pi / nx * k))
        norm = np.where(k == lone, math.sqrt(1.0 / nx), math.sqrt(2.0 / nx))
        self.lines = sorted(self.faces)
        self.known, self.free = [], []
        for m in self.lines:
            cols = np.flatnonzero(self.faces[m] != 0.0)  # zeros need none
            g = self.faces[m][cols]
            basis = norm * wave(np.outer(2 * cols + 1, k) % (4 * nx)
                                * (0.5 * np.pi / nx))
            fixed = ~np.isnan(g)
            self.known.append(np.einsum("ik,i->k", basis[fixed], g[fixed]))
            self.free.append(basis[~fixed])
        self.forms = []
        ends = [0, *self.lines, ny]
        for lo, hi in zip(ends, ends[1:]):
            pinned = [m in self.faces or self.grounded[1] for m in (lo, hi)]
            if any(pinned):
                self.forms.append((lo, hi, pinned, *_band_form(
                    hi - lo, self.lam, ry, not all(pinned))))


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # a numpy reduction, not np.vdot: pairwise summation gives the same
    # bits at any BLAS thread count, and no BLAS worker is left spinning
    return float((a * b).sum())


def _check(rel: float, what: str) -> None:
    if not rel <= RESIDUAL_BOUND:  # also NaN
        raise ConvergenceError(
            f"relative residual {rel:.3e} of the {what} is above "
            f"{RESIDUAL_BOUND:.0e}, where rounding leaves ~1e-15: the field "
            "solver is wrong")


def solve_potential(section: CrossSection) -> FieldSolution:
    """Solve the section directly, to its region energies.

    Every region must span the box's width and regions may meet only on
    face lines that carry metal, which may leave at most MAX_FREE_FACES
    faces free, as every section that cpw_cross_section builds does; any
    other section is a ValueError that says which of these fails.  The
    face solve (_face_solve) gives each band's energy, exact up to
    rounding; its residual is ~1e-15, and one above RESIDUAL_BOUND is a
    ConvergenceError.  No nx x ny array is built until the solution's
    potential is read.
    """
    prob = _Problem(section)
    bands, modes, rel = _face_solve(prob, prob.eps)
    energy = np.zeros(len(prob.region_names))
    for lo, _, _, two_u in bands:
        energy[prob.region[lo]] += two_u
    return FieldSolution(section=section, iterations=0, residual=rel,
                         energy=0.5 * EPS_0 * energy, _problem=prob,
                         _faces=(bands, modes))


def capacitance_per_length(sol: FieldSolution) -> float:
    """C' = 2 U / V^2 in F/m from the discrete field energy."""
    return _capacitance(sol._problem, sol._faces[0])


def _capacitance(prob: _Problem, bands: list) -> float:
    """C' = 2 U / V^2 in F/m of prob's section from the bands of one of
    its face solves."""
    pots = prob.potentials
    span = max(pots) - min(pots)
    if span <= 0.0:
        raise ValueError("electrodes span no potential difference")
    return EPS_0 * sum(two_u for *_, two_u in bands) / (span * span)


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


def extract_eps_eff_and_z0(section: CrossSection,
                           solution: FieldSolution | None = None
                           ) -> tuple[float, float]:
    """(eps_eff, Z0) of a line cross-section: eps_eff = C / C_vac and Z0
    = 1 / (c sqrt(C C_vac)), C_vac with every region at eps_r = 1.

    C_vac is the exact discrete capacitance of the all-vacuum section,
    by a face solve of the same problem at eps = 1.  For an
    already-all-vacuum section that solve is bitwise the section's own,
    so eps_eff is exactly one.  Pass a solution already computed for
    this section to skip its solve.
    """
    if solution is not None and solution.section is not section:
        raise ValueError("solution belongs to a different section")
    sol = solution if solution is not None else solve_potential(section)
    prob = sol._problem
    c_actual = capacitance_per_length(sol)
    c_vac = _capacitance(prob, _face_solve(prob, np.ones(section.ny))[0])
    eps_eff = c_actual / c_vac
    z0 = 1.0 / (C_LIGHT * math.sqrt(c_actual * c_vac))
    return eps_eff, z0


def _face_solve(prob: _Problem, eps: np.ndarray):
    """(bands, modes, residual) of prob's system with eps[j] in row
    j: bands as (lo, hi, pinned ends, 2U / EPS_0 of the band), modes each
    metal line's faces in the x basis, and residual the dense system's
    |h f + r| / |r|, a ConvergenceError above RESIDUAL_BOUND.

    In a band between two face lines that carry metal, or a line and a
    y wall, the sine basis (cosine between insulated walls) diagonalizes
    the x operator, mode k with eigenvalue eps lam, lam = 4 rx sin^2(pi
    k / 2 nx).  A metal line's free face, 2 eps ry from each side in
    series, is split exactly through a face node, so each face pins its
    two cells to a strip or to the node.  Each mode of a band is then a
    chain, eps times _band_form's energy in its ends, and the nodes
    minimize the sum: a dense solve on the free faces, the capacitance-
    matrix method (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
    722, 1971).  The node's split puts each half of a free face's energy
    in its own band, so a band's energy is that of its cells, all in one
    region.  Of all this, only the scaling by eps and what follows run here.
    """
    faces, lines, known, free = prob.faces, prob.lines, prob.known, prob.free
    diag, cross, scaled = [np.zeros(prob.section.nx) for _ in lines], [], []
    for lo, hi, pinned, own, across in prob.forms:
        own, across = eps[lo] * own, eps[lo] * across
        scaled.append((lo, hi, pinned, own, across))
        for m in faces.keys() & (lo, hi):
            diag[lines.index(m)] += own
        if lo in faces and hi in faces:
            cross.append(across)

    # Hessian h and gradient r of the energy in the free faces' values
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
    res = np.einsum("ij,j->i", h, f) + r
    rel = math.sqrt(_dot(res, res)) / (math.sqrt(_dot(r, r)) or 1.0)
    _check(rel, "face solve")
    modes = {m: g + np.einsum("ik,i->k", q, f[at[j]:at[j + 1]])
             for j, (m, g, q) in enumerate(zip(lines, known, free))}
    bands = []
    for lo, hi, pinned, own, across in scaled:
        g = [modes[m] for m in (lo, hi) if m in modes]
        two_u = sum(_dot(own, q * q) for q in g)
        if len(g) == 2:
            two_u += 2.0 * _dot(across, g[0] * g[1])
        bands.append((lo, hi, pinned, two_u))
    return bands, modes, rel


def _direct_map(prob: _Problem, bands: list, modes: dict) -> np.ndarray:
    """The exact potential of prob's section from its face solution.

    In a band of n rows, mode k at y = j + 1/2 above the lower face is
    (G_lo sinh((n - y) theta) + G_hi sinh(y theta)) / sinh(n theta), G =
    g / cosh(theta / 2) for the faces' modes g: the chain pinned across
    half a cell at each end.  A cosh replaces the sinh next to an
    insulated wall; at lam = 0 it is linear.  Bands with no drive
    (behind a facing ground) stay zero, and only the rows between the
    driven ones are transformed.  A real FFT (pocketfft, no BLAS) brings
    each row back across x.
    """
    sec = prob.section
    nx, ny = sec.nx, sec.ny
    s = np.sqrt(prob.lam / (4.0 * sec.hx / sec.hy))
    theta = 2.0 * np.arcsinh(s)  # s = sinh(theta / 2)
    c = np.zeros((ny, nx))  # per row, the potential's modes
    live = []
    for lo, hi, pinned, _ in bands:
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
    return v


def _map_residual(prob: _Problem, v: np.ndarray) -> float:
    """|b - A v| / |b| of the map v over the whole grid, |b| = 0 counting
    as 1 (the zero map of a section with no source has residual 0).

    A and b are assembled per row, since eps depends on y alone: a
    coupling t carries the flux t dv across its face, eps rx across x
    faces and ry times the harmonic mean of the two rows' eps (eps itself
    where equal: 2 e e / (e + e) misses 6.45 by an ulp) across y faces,
    none across a strip; a pin ties a cell to a grounded wall or a strip
    by 2 eps rx or 2 eps ry.
    """
    sec, eps = prob.section, prob.eps
    rx, ry = sec.hy / sec.hx, sec.hx / sec.hy
    below, above = eps[:-1], eps[1:]
    qx = rx * eps * np.diff(v, axis=0)
    qy = ry * np.where(below == above, below,
                       2.0 * below * above / (below + above)) * np.diff(v)
    b, r = np.zeros(v.shape), np.zeros(v.shape)
    for m, g in prob.faces.items():
        on = ~np.isnan(g)
        qy[on, m - 1] = 0.0
        for j in (m - 1, m):
            b[on, j] += 2.0 * ry * eps[j] * g[on]
            r[on, j] -= 2.0 * ry * eps[j] * v[on, j]
    for i in (0, -1):
        if prob.grounded[0]:
            r[i] -= 2.0 * rx * eps * v[i]
        if prob.grounded[1]:
            r[:, i] -= 2.0 * ry * eps[i] * v[:, i]
    r[:-1] += qx
    r[1:] -= qx
    r[:, :-1] += qy
    r[:, 1:] -= qy
    r += b
    return math.sqrt(_dot(r, r)) / (math.sqrt(_dot(b, b)) or 1.0)


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
    inside the box, a grounded strip is added at that height; one beyond
    it is left out, and one that snaps below one cell refused, as is a
    box more than MAX_CELLS_PER_SIDE cells wide.
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
        _require_finite(interlayer_thickness=interlayer_thickness)
        if interlayer_thickness <= 0.0:
            raise ValueError("interlayer_thickness must be positive")
        lid = snap(interlayer_thickness)
        if lid < cell:
            raise ValueError(f"interlayer_thickness {interlayer_thickness:.6g}"
                             f" m snaps below one cell ({cell:.6g} m), onto "
                             "the metal plane: raise interlayer_thickness "
                             "or lower cell")
        if lid < half:
            conductors.append(
                Conductor("facing_ground", Rect(-half, half, lid, lid), 0.0))

    return CrossSection(width=2.0 * half, height=2.0 * half, nx=nx, ny=ny,
                        regions=regions, conductors=conductors,
                        origin=(-half, -half))
