"""2-D electrostatic cross-section solver.

Solves div(eps grad V) = 0 on a rectangular box of nx x ny cells with
piecewise-constant permittivity, by conjugate gradients on the
flux-conserving five-point stencil, preconditioned by one geometric
multigrid W-cycle per iteration.  Unknowns sit at cell centers.
Conductors are either blocks of fixed cells or zero-thickness
horizontal strips on a face line.  The discrete system has two parts:
couplings between neighbouring free cells, each carrying the harmonic
mean of the two permittivities (the exact series composition for
interfaces aligned with the grid), and pins, one per face where a free
cell meets a fixed potential (a fixed cell, a grounded wall, or either
side of a strip), which tie the cell to that potential across half a
cell.  The solver and the energy extraction both read this one model.

From a converged solution the module extracts per-unit-length
capacitance via the discrete field energy (C = 2U/V^2), the effective
permittivity and characteristic impedance of a transmission-line
section via a paired all-vacuum solve, and the fraction of the energy
stored in each dielectric region.

The box walls are grounded by default.  Tests and idealized parallel
plate sections may instead ask for insulated (zero normal flux) walls
or a periodic x-direction; both exist to kill fringing where a closed
form is the reference.
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
DEFAULT_MAX_SWEEPS = 100


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

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass(frozen=True)
class DielectricRegion:
    name: str
    rect: Rect
    eps_r: float

    def __post_init__(self):
        if self.eps_r <= 0.0:
            raise ValueError(f"eps_r of {self.name!r} must be positive")
        if self.rect.is_strip or self.rect.x1 == self.rect.x0:
            raise ValueError(f"region {self.name!r} must have area")


@dataclass(frozen=True)
class Conductor:
    name: str
    rect: Rect
    potential: float


@dataclass
class CrossSection:
    """Rectangular solve domain: geometry, materials, electrodes, walls.

    width and height are in meters, split into nx x ny equal cells.
    origin is the physical coordinate of the lower-left corner.  Every
    cell center must fall in exactly one dielectric region.  x_bc is
    one of grounded / periodic / neumann, y_bc grounded / neumann.
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
        if self.x_bc not in ("grounded", "periodic", "neumann"):
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
    """Converged potential with the assembled problem kept for reuse.

    iterations counts conjugate-gradient steps; residual is the final
    |b - A v| / |b| over the free cells.
    """

    section: CrossSection
    potential: np.ndarray
    iterations: int
    residual: float
    _problem: "_Problem"


class _Problem:
    """The section's discrete system: free-cell couplings plus pins.

    fx, fy and fw couple neighbouring free cells across interior x
    faces, interior y faces and the periodic wrap (fw is None unless x
    is periodic); links lists each with the index of its cells on either
    side.  pin_cell (flat cell index), pin_coef and pin_val list every
    face of a free cell that touches a fixed potential.  diag and b are
    the operator diagonal and right-hand side, zero on fixed cells.
    Couplings and pins are in units of EPS_0 and include the cell
    aspect ratio.  This is the only place that reads the wall types.
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

        # electrodes: volume conductors pin cells, strips pin face lines
        fixed = np.zeros((nx, ny), dtype=bool)
        fixv = np.zeros((nx, ny))
        owner = np.zeros((nx, ny), dtype=int)  # conductor index per cell
        strips: list[tuple[str, np.ndarray, int, float]] = []
        on_wall = np.zeros((nx, ny), dtype=bool)
        if section.x_bc == "grounded":
            on_wall[[0, -1], :] = True
        if section.y_bc == "grounded":
            on_wall[:, [0, -1]] = True
        self.potentials: list[float] = []
        for idx, cond in enumerate(section.conductors):
            r = cond.rect
            if r.is_strip:
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
                strips.append((cond.name, cols, int(m), cond.potential))
            else:
                inside = ((xg >= r.x0) & (xg <= r.x1) &
                          (yg >= r.y0) & (yg <= r.y1))
                if not inside.any():
                    raise ValueError(
                        f"conductor {cond.name!r} contains no cells")
                clash = fixed & inside & (fixv != cond.potential)
                if clash.any():
                    raise ValueError(
                        f"conductor {cond.name!r} overlaps another at a "
                        "different potential")
                if cond.potential != 0.0 and (inside & on_wall).any():
                    raise ValueError(
                        f"conductor {cond.name!r} at {cond.potential} V "
                        "touches a grounded wall: the section is shorted")
                fixed |= inside
                fixv[inside] = cond.potential
                owner[inside] = idx
            self.potentials.append(cond.potential)
        if section.x_bc == "grounded" or section.y_bc == "grounded":
            self.potentials.append(0.0)
        # a strip cuts its face line: no coupling across, a pin either side
        cut = np.zeros((nx, ny - 1), dtype=bool)  # face below row m at m - 1
        for name, cols, m, pot in strips:
            sides = fixed[cols, m - 1:m + 1] & (fixv[cols, m - 1:m + 1] != pot)
            if sides.any():
                other = section.conductors[owner[cols, m - 1:m + 1][sides][0]]
                raise ValueError(
                    f"conductor {other.name!r} shares a face with strip "
                    f"{name!r} at a different potential: the section is "
                    "shorted")
            if cut[cols, m - 1].any():
                raise ValueError("strips overlap on a shared face")
            cut[cols, m - 1] = True
        self.fixed = fixed
        self.fixv = fixv

        free = ~fixed
        cells = np.arange(nx * ny).reshape(nx, ny)
        pins = []

        def pin(at, ratio, value, where=True):
            """Pin the free cells at index `at` to value across half a cell."""
            sel = free[at] & where
            pins.append((cells[at][sel], ratio * (2.0 * eps[at][sel]),
                         np.broadcast_to(value, sel.shape)[sel]))

        def couple(a, b, ratio, where=True):
            """Harmonic-mean couplings between the free cells a and b; a
            free cell facing a fixed one is pinned to it instead."""
            pin(a, ratio, fixv[b], fixed[b] & where)
            pin(b, ratio, fixv[a], fixed[a] & where)
            ea, eb = eps[a], eps[b]
            return np.where(free[a] & free[b] & where,
                            ratio * (2.0 * ea * eb / (ea + eb)), 0.0)

        every = slice(None)
        x_faces = ((slice(None, -1), every), (slice(1, None), every))
        y_faces = ((every, slice(None, -1)), (every, slice(1, None)))
        self.fx = couple(*x_faces, hy / hx)
        self.fy = couple(*y_faces, hx / hy, ~cut)
        self.links = [(self.fx, *x_faces), (self.fy, *y_faces)]
        self.fw = None
        if section.x_bc == "periodic" and nx > 1:
            wrap = ((-1, every), (0, every))
            self.fw = couple(*wrap, hy / hx)
            self.links.append((self.fw, *wrap))
        if section.x_bc == "grounded":
            for i in (0, -1):
                pin((i, every), hy / hx, 0.0)
        if section.y_bc == "grounded":
            for j in (0, -1):
                pin((every, j), hx / hy, 0.0)
        for _, cols, m, pot in strips:
            for j in (m - 1, m):
                pin((cols, j), hx / hy, pot)
        self.pin_cell, self.pin_coef, self.pin_val = (
            np.concatenate(group) for group in zip(*pins))

        self.diag = np.bincount(self.pin_cell, weights=self.pin_coef,
                                minlength=nx * ny).reshape(nx, ny)
        self.b = np.bincount(self.pin_cell,
                             weights=self.pin_coef * self.pin_val,
                             minlength=nx * ny).reshape(nx, ny)
        for t, a, b in self.links:
            self.diag[a] += t
            self.diag[b] += t
        if ((self.diag == 0.0) & free).any():
            raise ValueError("isolated cells: no coupling to any potential")

    def potential_span(self) -> float:
        pots = self.potentials
        if not pots:
            raise ValueError("no electrodes in the section")
        return max(pots) - min(pots)


class _Level:
    """One grid of the multigrid hierarchy: a five-point SPD operator.

    fx and fy couple neighbouring active cells across interior x and y
    faces, fw across the periodic wrap (None unless x is periodic).
    Couplings to fixed cells, walls and strips live in the diagonal
    alone.  Inactive cells (fixed cells, or padding on coarse grids)
    carry zero diagonal and zero couplings, so they stay at zero.
    """

    def __init__(self, diag: np.ndarray, fx: np.ndarray, fy: np.ndarray,
                 fw: np.ndarray | None):
        self.nx, self.ny = nx, ny = diag.shape
        self.diag, self.fx, self.fy, self.fw = diag, fx, fy, fw
        self.active = diag > 0.0
        inv = np.zeros((nx, ny))
        inv[self.active] = 1.0 / diag[self.active]
        cw = np.zeros((nx, ny))
        ce = np.zeros((nx, ny))
        cs = np.zeros((nx, ny))
        cn = np.zeros((nx, ny))
        cw[1:, :] = fx
        ce[:-1, :] = fx
        cs[:, 1:] = fy
        cn[:, :-1] = fy
        if fw is not None:
            cw[0, :] = fw
            ce[-1, :] = fw
        self.cw, self.ce, self.cs, self.cn = cw, ce, cs, cn

        # checkerboard Gauss-Seidel: cells of one parity never neighbour
        # each other, so each half-sweep is a pure array update over two
        # of the four strided quadrant views of the padded iterate
        self.quads: tuple[list, list] = ([], [])
        for a in (0, 1):
            for b in (0, 1):
                qs = (slice(a, None, 2), slice(b, None, 2))
                ci = slice(1 + a, nx + 1, 2)
                cj = slice(1 + b, ny + 1, 2)
                self.quads[(a + b) % 2].append((
                    qs, (ci, cj), (slice(a, nx, 2), cj),
                    (slice(2 + a, nx + 2, 2), cj), (ci, slice(b, ny, 2)),
                    (ci, slice(2 + b, ny + 2, 2)),
                    np.ascontiguousarray(cw[qs]),
                    np.ascontiguousarray(ce[qs]),
                    np.ascontiguousarray(cs[qs]),
                    np.ascontiguousarray(cn[qs]),
                    np.ascontiguousarray(inv[qs])))

    def padded(self) -> np.ndarray:
        """Zero iterate with one ghost cell on every side."""
        return np.zeros((self.nx + 2, self.ny + 2))

    def _ghosts(self, xp: np.ndarray) -> None:
        if self.fw is not None:
            xp[0, 1:-1] = xp[-2, 1:-1]
            xp[-1, 1:-1] = xp[1, 1:-1]

    def apply(self, xp: np.ndarray) -> np.ndarray:
        """A x for a padded iterate, as an unpadded array."""
        self._ghosts(xp)
        y = self.diag * xp[1:-1, 1:-1]
        y -= self.cw * xp[:-2, 1:-1]
        y -= self.ce * xp[2:, 1:-1]
        y -= self.cs * xp[1:-1, :-2]
        y -= self.cn * xp[1:-1, 2:]
        return y

    def smooth(self, xp: np.ndarray, r: np.ndarray, colours) -> None:
        """Gauss-Seidel half-sweeps on A x = r, one per colour given."""
        for colour in colours:
            self._ghosts(xp)
            for qs, c, w, e, s, n, cw, ce, cs, cn, inv in self.quads[colour]:
                num = cw * xp[w]
                num += ce * xp[e]
                num += cs * xp[s]
                num += cn * xp[n]
                num += r[qs]
                num *= inv
                xp[c] = num

    def coarsen(self) -> "_Level":
        """Galerkin operator of 2 x 2 piecewise-constant aggregation.

        A coarse face coupling is the sum of the fine couplings across
        it; couplings inside a block drop out of the diagonal.  Odd
        sides are padded with one inactive row or column first.
        """
        nx, ny = self.nx, self.ny
        mx, my = nx + nx % 2, ny + ny % 2
        d = np.zeros((mx, my))
        d[:nx, :ny] = self.diag
        fx = np.zeros((mx - 1, my))
        fx[:nx - 1, :ny] = self.fx
        fy = np.zeros((mx, my - 1))
        fy[:nx, :ny - 1] = self.fy
        inner = _pair_sum(fx[0::2], 1) + _pair_sum(fy[:, 0::2], 0)
        diag = _pair_sum(_pair_sum(d, 0), 1) - 2.0 * inner
        fw = None
        if self.fw is not None:
            fw = np.zeros(my)
            fw[:ny] = self.fw
            fw = _pair_sum(fw, 0)
            if mx == 2:  # the wrap now joins a block to itself
                diag[0, :] -= 2.0 * fw
                fw = None
        return _Level(diag, _pair_sum(fx[1::2], 1), _pair_sum(fy[:, 1::2], 0),
                      fw)

    def restrict(self, r: np.ndarray) -> np.ndarray:
        nx, ny = self.nx, self.ny
        if nx % 2 or ny % 2:
            even = np.zeros((nx + nx % 2, ny + ny % 2))
            even[:nx, :ny] = r
            r = even
        return _pair_sum(_pair_sum(r, 0), 1)

    def prolong(self, xc: np.ndarray) -> np.ndarray:
        fine = xc.repeat(2, axis=0).repeat(2, axis=1)[:self.nx, :self.ny]
        fine[~self.active] = 0.0
        return fine


def _pair_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum index pairs (0 + 1, 2 + 3, ...) along an axis of even length."""
    if axis == 0:
        return a[0::2] + a[1::2]
    return a[:, 0::2] + a[:, 1::2]


class _Multigrid:
    """One W-cycle from a zero guess, used as the CG preconditioner.

    Each level takes two half-sweeps of red-black Gauss-Seidel before
    its coarse correction (red, then black) and two after in reverse
    order, which keeps the cycle symmetric as conjugate gradients
    needs.  Aggregation makes each coarse operator about twice as stiff
    as a rediscretized one, so the coarse correction is scaled by
    COARSE_GAIN (below 2 the cycle stays positive definite).  Every
    coarse level but the last is cycled twice per visit, a W-cycle:
    a V-cycle compounds the scaling error level by level, and its CG
    iteration count grew from 12 to 27 between 2 and 0.25 um cells.
    The coarsest grid holds at most COARSEST_CELLS cells and is solved
    with a precomputed inverse; LAPACK stays on its unthreaded path at
    that size.
    """

    COARSE_GAIN = 1.9
    COARSEST_CELLS = 64

    def __init__(self, fine: _Level):
        self.levels = [fine]
        while self.levels[-1].nx * self.levels[-1].ny > self.COARSEST_CELLS:
            self.levels.append(self.levels[-1].coarsen())
        self.cells = np.flatnonzero(self.levels[-1].active)
        self.inverse = np.linalg.inv(_dense(self.levels[-1])[
            np.ix_(self.cells, self.cells)])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        xp = self.levels[0].padded()
        self._cycle(0, r, xp)
        return xp[1:-1, 1:-1]

    def _cycle(self, k: int, r: np.ndarray, xp: np.ndarray) -> None:
        """Improve the padded iterate xp of A_k x = r in place."""
        lv = self.levels[k]
        last = len(self.levels) - 1
        if k == last:
            x = np.zeros(lv.nx * lv.ny)
            # a row sum, not a BLAS matrix-vector product (see _dot)
            x[self.cells] = (self.inverse * r.ravel()[self.cells]).sum(axis=1)
            xp[1:-1, 1:-1] = x.reshape(lv.nx, lv.ny)
            return
        lv.smooth(xp, r, (0, 1))
        rc = lv.restrict(r - lv.apply(xp))
        xc = self.levels[k + 1].padded()
        for _ in range(1 if k + 1 == last else 2):
            self._cycle(k + 1, rc, xc)
        xp[1:-1, 1:-1] += self.COARSE_GAIN * lv.prolong(xc[1:-1, 1:-1])
        lv.smooth(xp, r, (1, 0))


def _dense(lv: _Level) -> np.ndarray:
    """The level's operator as a dense matrix (row-major cell order)."""
    columns = []
    for k in range(lv.nx * lv.ny):
        xp = lv.padded()
        xp[1 + k // lv.ny, 1 + k % lv.ny] = 1.0
        columns.append(lv.apply(xp).ravel())
    return np.array(columns).T


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # a numpy reduction, not np.vdot: pairwise summation gives the same
    # bits at any BLAS thread count, and no BLAS worker is left spinning
    return float((a * b).sum())


def solve_potential(section: CrossSection, tol: float = DEFAULT_TOL,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> FieldSolution:
    """Solve the section to a potential map.

    Conjugate gradients on the flux-conserving system over the free
    cells, preconditioned by one multigrid W-cycle, stop once the
    relative residual |b - A v| / |b| is at most tol.  The iteration
    count does not grow with the grid: at the default tol, CPW sections
    take 9-11 from 4 um down to 0.25 um cells.  Raises ConvergenceError
    when max_sweeps iterations do not get there.
    """
    return _solve(_Problem(section), None, tol, max_sweeps)


def _solve(prob: _Problem, start: np.ndarray | None, tol: float,
           max_sweeps: int) -> FieldSolution:
    """Multigrid-preconditioned conjugate gradients on the free cells.

    Convergence is |b - A v| <= tol |b| in the 2-norm, confirmed on the
    recomputed residual so that drift in the recurrence cannot stop it
    early.  start, when given, is a full potential map to iterate from;
    one that already meets the tolerance is returned untouched.
    """
    fine = _Level(prob.diag, prob.fx, prob.fy, prob.fw)
    b = prob.b
    xp = fine.padded()
    if start is not None:
        xp[1:-1, 1:-1] = np.where(fine.active, start, 0.0)
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        xp[:] = 0.0
        bnorm = 1.0
    r = b - fine.apply(xp)
    rel = math.sqrt(_dot(r, r)) / bnorm
    precondition = None
    pp = fine.padded()
    rz_old = 0.0
    iterations = 0
    while rel > tol and iterations < max_sweeps:
        if precondition is None:
            precondition = _Multigrid(fine)
        z = precondition(r)
        rz = _dot(r, z)
        if rz_old:
            pp[1:-1, 1:-1] *= rz / rz_old
            pp[1:-1, 1:-1] += z
        else:
            pp[1:-1, 1:-1] = z
        q = fine.apply(pp)
        pq = _dot(pp[1:-1, 1:-1], q)
        if not (rz > 0.0 and pq > 0.0):  # breakdown, or non-finite values
            rel = math.nan
            break
        alpha = rz / pq
        xp[1:-1, 1:-1] += alpha * pp[1:-1, 1:-1]
        r -= alpha * q
        rz_old = rz
        iterations += 1
        rel = math.sqrt(_dot(r, r)) / bnorm
        if rel <= tol:
            r = b - fine.apply(xp)
            rel = math.sqrt(_dot(r, r)) / bnorm
            rz_old = 0.0  # restart the recurrence if the check failed
    if not rel <= tol:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations: relative "
            f"residual {rel:.3e} above tol {tol:.3e}; raise max_sweeps "
            "(--max-sweeps), loosen tol (--tol) or change the cell size "
            "(--cell)")
    return FieldSolution(section=prob.section,
                         potential=np.where(prob.fixed, prob.fixv,
                                            xp[1:-1, 1:-1]),
                         iterations=iterations, residual=rel, _problem=prob)


def _face_energies(sol: FieldSolution):
    """Yield (energy, region_a, region_b, frac_a) per face group.

    One group per coupling array, between the free cells a and b on its
    two sides, and one for the pins, whose energy is wholly their own
    cell's.  frac_a is the share of the face energy stored on side a;
    for two dielectrics in series across a face the drop splits
    inversely to eps, putting eps_b / (eps_a + eps_b) of the energy on
    side a.
    """
    prob = sol._problem
    v, eps, rid = sol.potential, prob.eps, prob.region_id
    for t, a, b in prob.links:
        dv = v[a] - v[b]
        yield 0.5 * t * dv * dv, rid[a], rid[b], eps[b] / (eps[a] + eps[b])
    dv = v.ravel()[prob.pin_cell] - prob.pin_val
    rp = rid.ravel()[prob.pin_cell]
    yield 0.5 * prob.pin_coef * dv * dv, rp, rp, 1.0


def _total_energy(sol: FieldSolution) -> float:
    """Stored energy per unit length in J/m (the assembled T carry eps_r)."""
    return EPS_0 * float(sum(np.sum(e) for e, _, _, _ in _face_energies(sol)))


def capacitance_per_length(sol: FieldSolution) -> float:
    """C' = 2 U / V^2 in F/m from the discrete field energy."""
    span = sol._problem.potential_span()
    if span <= 0.0:
        raise ValueError("electrodes span no potential difference")
    return 2.0 * _total_energy(sol) / (span * span)


def energy_participation(sol: FieldSolution) -> dict[str, float]:
    """Fraction of the stored energy per dielectric region.

    Sums to one exactly up to rounding.  Raises on a zero-energy
    solution, where fractions are undefined.
    """
    prob = sol._problem
    regions, shares = [], []
    for e, ra, rb, fa in _face_energies(sol):
        regions += [ra.ravel(), rb.ravel()]
        shares += [(e * fa).ravel(), (e * (1.0 - fa)).ravel()]
    sums = np.bincount(np.concatenate(regions),
                       weights=np.concatenate(shares),
                       minlength=len(prob.region_names))
    total = float(sums.sum())
    if total <= 0.0:
        raise ValueError("zero field energy: participation undefined")
    return {name: float(s) / total
            for name, s in zip(prob.region_names, sums)}


def extract_eps_eff_and_z0(section: CrossSection, tol: float = DEFAULT_TOL,
                           max_sweeps: int = DEFAULT_MAX_SWEEPS,
                           solution: FieldSolution | None = None
                           ) -> tuple[float, float]:
    """(eps_eff, Z0) of a line cross-section from two solves.

    The section is solved as given and once more with every region at
    eps_r = 1; then eps_eff = C / C_vac and Z0 = 1 / (c sqrt(C C_vac)).
    The vacuum solve starts from the first solution.  For an
    already-all-vacuum section that start meets the tolerance as it
    stands, so the vacuum solution is the same array and the ratio is
    exactly one.  Pass a solution already computed for this section to
    skip the first solve.
    """
    if solution is not None and solution.section is not section:
        raise ValueError("solution belongs to a different section")
    sol = solution if solution is not None else solve_potential(
        section, tol=tol, max_sweeps=max_sweeps)
    c_actual = capacitance_per_length(sol)

    vac_regions = [DielectricRegion(r.name, r.rect, 1.0)
                   for r in section.regions]
    vac = CrossSection(width=section.width, height=section.height,
                       nx=section.nx, ny=section.ny, regions=vac_regions,
                       conductors=section.conductors, origin=section.origin,
                       x_bc=section.x_bc, y_bc=section.y_bc)
    sol_vac = _solve(_Problem(vac), sol.potential, tol, max_sweeps)
    c_vac = capacitance_per_length(sol_vac)
    eps_eff = c_actual / c_vac
    z0 = 1.0 / (C_LIGHT * math.sqrt(c_actual * c_vac))
    return eps_eff, z0


def cpw_cross_section(geometry: CpwGeometry, cell: float = 0.25e-6,
                      box_factor: float = 10.0,
                      interlayer_thickness: float | None = None,
                      substrate_name: str = "substrate",
                      superstrate_name: str = "interlayer") -> CrossSection:
    """Grounded-box cross-section of a CPW between two half-spaces.

    The metal plane sits at y = 0 as zero-thickness strips: the center
    trace at 1 V, the side grounds running to the walls at 0 V.  The
    box is box_factor times the (w + 2s) aperture on a side; rectangle
    edges snap to the cell grid.  When interlayer_thickness puts the
    facing chip's ground inside the box, a grounded strip is added at
    that height.
    """
    if cell <= 0.0:
        raise ValueError("cell size must be positive")
    if box_factor < 10.0:
        raise ValueError("box must be at least 10 apertures wide")
    w = geometry.trace_width
    s = geometry.gap
    aperture = w + 2.0 * s
    half_cells = math.ceil(0.5 * box_factor * aperture / cell)
    nx = 2 * half_cells
    ny = 2 * half_cells
    half = half_cells * cell
    size = 2.0 * half

    def snap(x: float) -> float:
        return round(x / cell) * cell

    trace_half = snap(0.5 * w)
    ground_from = snap(0.5 * w + s)
    if not 0.0 < trace_half < ground_from < half:
        raise ValueError("cell size too coarse for this geometry")

    regions = [
        DielectricRegion(substrate_name, Rect(-half, half, -half, 0.0),
                         geometry.eps_substrate),
        DielectricRegion(superstrate_name, Rect(-half, half, 0.0, half),
                         geometry.eps_superstrate),
    ]
    conductors = [
        Conductor("trace", Rect(-trace_half, trace_half, 0.0, 0.0), 1.0),
        Conductor("ground_left", Rect(-half, -ground_from, 0.0, 0.0), 0.0),
        Conductor("ground_right", Rect(ground_from, half, 0.0, 0.0), 0.0),
    ]
    if interlayer_thickness is not None:
        if interlayer_thickness <= 0.0:
            raise ValueError("interlayer thickness must be positive")
        lid = snap(interlayer_thickness)
        if cell <= lid < half:
            conductors.append(
                Conductor("facing_ground", Rect(-half, half, lid, lid), 0.0))

    return CrossSection(width=size, height=size, nx=nx, ny=ny,
                        regions=regions, conductors=conductors,
                        origin=(-half, -half))
