"""Independent references the envelope results are checked against.

Three oracles live here: the exact spectrum of the translation-invariant
oscillator system, a brute-force finite-difference eigensolver for central
potentials in D dimensions, and semiclassical geometry diagnostics that probe
the meaning of the mean scales (r0, p0) a solved system reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DimensionTooSmall,
    NotConverged,
    UnboundedBelow,
    UnboundOscillator,
)
from .model import EnvelopeSolution, PotentialLaw, StateSpec, SystemSpec, checked, require_count, require_counts
from .qnum import q_from_quanta

_RICHARDSON_REL_TOL = 1e-6
_MAX_DOUBLINGS = 6
# LAPACK holds about 76 bytes a point of the finest doubling, points * 2**6 of
# them, so the largest problem peaks near 320 MB.
_MAX_POINTS = 2**16


def harmonic_exact(
    n: int, d: int, mu: float, nu: float, rho: float, state: StateSpec
) -> float:
    """Exact level of N particles with quadratic one- and two-body couplings.

    The pairwise identity sum_{i<j} (r_i - r_j)^2 = N sum_i (r_i - R)^2 folds
    the system into N-1 independent oscillators of frequency
    omega = sqrt(2 (nu + N rho) / mu), so every level is omega * Q.
    """
    require_counts(n=n, d=d)
    checked(mu, "mass", positive=True)
    checked(nu, "nu")
    checked(rho, "rho")
    if state.n_particles != n:
        raise ValueError(
            f"state carries {state.n_particles - 1} pairs but n={n} needs {n - 1}"
        )
    spring = nu + n * rho
    if spring <= 0.0:
        raise UnboundOscillator(
            f"net spring constant nu + N rho must be positive, got {spring}"
        )
    omega = math.sqrt(2.0 * spring / mu)
    return omega * q_from_quanta(state, d)


# ---------------------------------------------------------------------------
# Radial finite-difference eigensolver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProblem:
    """One particle of mass mu in a central potential, one angular sector.

    For a central potential in D spatial dimensions, separating off a
    hyperspherical harmonic of degree l and substituting
    R(r) = u(r) / r**((D-1)/2) leaves the one-dimensional operator

        -(1/(2 mu)) u'' + [ (l (l + D - 2) + (D - 1)(D - 3) / 4) / (2 mu r^2)
                            + V(r) ] u  =  E u,     u(0) = u(r_max) = 0.

    The centrifugal constant combines the hyperangular Laplacian eigenvalue
    l (l + D - 2) with the measure term (D-1)(D-3)/4 from the substitution.
    """

    mu: float
    potential: PotentialLaw
    d: int
    l: int
    r_max: float
    points: int = 4000

    def __post_init__(self) -> None:
        checked(self.mu, "mass", positive=True)
        require_counts(d=self.d)
        require_count(self.l, "angular degree", 0)
        checked(self.r_max, "r_max", positive=True)
        require_count(self.points, "grid points", 200)
        if self.points > _MAX_POINTS:
            raise ValueError(f"grid points must be <= {_MAX_POINTS}, got {self.points}")
        grids = self.points * 2 ** np.arange(_MAX_DOUBLINGS + 1)
        h = self.r_max / grids
        with np.errstate(all="ignore"):
            kinetic_scale = 1.0 / (2.0 * np.float64(self.mu) * h * h)
            inner = np.power(h[-1] * (np.arange(1, 3) - 0.5), self.d - 1)
            inner_product = inner[0] * inner[1]
            # each grid's last two cell centers and faces, formed as ``_tridiagonal`` forms them
            r = h[:, None] * (grids[:, None] - np.array([1.5, 0.5]))
            faces = np.power(h[:, None] * (grids[:, None] - np.array([1.0, 0.0])), self.d - 1)
            weights = np.power(r, self.d - 1)
            outer = (faces, weights, weights[:, 0] * weights[:, 1], 2.0 * self.mu * r[:, 1] * r[:, 1])
        if not np.isfinite(kinetic_scale[-1]):
            raise ValueError(
                f"r_max = {self.r_max} over {self.points} points is too fine a grid: "
                f"the kinetic scale 1/(2 mu h^2) of its finest doubling is not finite"
            )
        # the off-diagonal divides by sqrt(w_1 w_2); every other product is larger
        if not inner_product > 0.0:
            raise ValueError(
                f"r_max = {self.r_max} over {self.points} points is too fine a grid: "
                f"the cell weights r**(D-1) of its finest doubling underflow to zero"
            )
        if not all(np.all(np.isfinite(factor) & (factor != 0.0)) for factor in (*outer, kinetic_scale)):
            raise ValueError(
                f"r_max = {self.r_max} over {self.points} points is too wide a grid: at the outer end, "
                f"r**(D-1), 2 mu r^2 or the kinetic scale 1/(2 mu h^2) is not a finite nonzero float"
            )

    @property
    def centrifugal(self) -> float:
        return self.l * (self.l + self.d - 2) + (self.d - 1) * (self.d - 3) / 4.0


def radial_eigenvalues(problem: RadialProblem, count: int) -> np.ndarray:
    """Lowest eigenvalues by symmetric differences with grid-doubling control.

    The operator is discretized on a uniform cell-centered grid in flux form
    (a symmetric tridiagonal matrix), the grid is doubled until two successive
    grids agree to 1e-6 relative on every requested level, and the Richardson
    combination (4 E_fine - E_coarse) / 3 of the last pair is returned.
    """
    require_count(count, "level count", 1)
    if count > problem.points:
        raise ValueError(f"{problem.points} grid points hold at most {problem.points} levels, got {count}")
    coarse = _grid_eigenvalues(problem, problem.points, count)
    points = problem.points
    for _ in range(_MAX_DOUBLINGS):
        points *= 2
        fine = _grid_eigenvalues(problem, points, count)
        scale = np.maximum(np.abs(fine), 1e-30)
        if np.max(np.abs(fine - coarse) / scale) <= _RICHARDSON_REL_TOL:
            return (4.0 * fine - coarse) / 3.0
        coarse = fine
    raise NotConverged(
        f"radial eigenvalues did not reach {_RICHARDSON_REL_TOL:.0e} relative "
        f"agreement within {_MAX_DOUBLINGS} grid doublings"
    )


def radial_eigenvalue(problem: RadialProblem, n: int) -> float:
    """The n-th radial level (0-based) in the problem's angular sector."""
    require_count(n, "level index", 0)
    return float(radial_eigenvalues(problem, n + 1)[n])


def _grid_eigenvalues(problem: RadialProblem, points: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of one grid's matrix.

    The builder returns only the two diagonals, so the grid, the potential
    samples, the face areas and the cell weights are freed before LAPACK
    allocates its own workspace.
    """
    diag, off = _tridiagonal(problem, points)
    try:
        return eigh_tridiagonal(
            diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
        )
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"r_max = {problem.r_max} over {points} points: LAPACK failed on this grid: {exc}"
        ) from exc


def _tridiagonal(problem: RadialProblem, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal discretization on cell centers r_j = (j - 1/2) h.

    Writing the physical radial function R(r) = u(r) / r**((D-1)/2) removes
    the measure part of the centrifugal constant and leaves the flux form

        -(1/(2 mu)) r**(1-D) (r**(D-1) R')' + [ l (l + D - 2) / (2 mu r^2)
                                                 + V(r) ] R  =  E R,

    which a finite-volume stencil with face areas (j h)**(D-1) turns into a
    tridiagonal matrix symmetrized by the cell weights r_j**(D-1).  R stays
    smooth at the origin for every D and l (u itself picks up an r**((D-1)/2)
    branch point that would spoil second-order convergence for odd weights,
    D = 2 worst of all), the zero-area inner face enforces regularity exactly,
    and the outer Dirichlet end uses a reflected ghost cell.  The two forms
    are related by a diagonal similarity, so the spectrum is unchanged.
    """
    h = problem.r_max / points
    r = h * (np.arange(1, points + 1) - 0.5)
    with np.errstate(all="ignore"):
        v = np.asarray(problem.potential.value(r), dtype=float)
    if not np.all(np.isfinite(v)):
        raise UnboundedBelow(
            "potential evaluates to non-finite values on the grid; "
            "shrink r_max or regularize the potential"
        )
    inv = 1.0 / (2.0 * problem.mu * h * h)
    angular = problem.l * (problem.l + problem.d - 2)
    faces = np.power(h * np.arange(0, points + 1), problem.d - 1)
    weights = np.power(r, problem.d - 1)
    diag = (faces[:-1] + faces[1:]) / weights * inv + angular / (
        2.0 * problem.mu * r * r
    ) + v
    diag[-1] += faces[-1] / weights[-1] * inv
    off = -faces[1:-1] / np.sqrt(weights[:-1] * weights[1:]) * inv
    return diag, off


def eigh_tridiagonal(diag, off, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, imported on the first call.

    scipy.linalg costs about half a second to import, and only this oracle
    needs it, so the solve path and the CLI start without it.
    """
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal

    return scipy_eigh_tridiagonal(diag, off, **kwargs)


# ---------------------------------------------------------------------------
# Semiclassical geometry of the mean scales
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiclassicalGeometry:
    """Classical pictures consistent with a mean radial scale r0.

    Placing the N particles evenly on a circle of radius r0/N makes the mean
    nearest-image separation (r0 / C_N) cot(pi / (2N)); placing them at the
    vertices of a regular simplex (needs D >= N-1) makes every edge
    r0 / sqrt(C_N).
    """

    n: int
    r0: float
    orbit_radius: float
    circle_separation: float
    simplex_edge: float

    @classmethod
    def for_system(cls, n: int, r0: float) -> "SemiclassicalGeometry":
        require_counts(n=n)
        checked(r0, "r0", positive=True)
        c = n * (n - 1) / 2.0
        circle = (r0 / c) / math.tan(math.pi / (2.0 * n))
        return cls(
            n=n,
            r0=r0,
            orbit_radius=r0 / n,
            circle_separation=circle,
            simplex_edge=r0 / math.sqrt(c),
        )


def mean_separation(n: int, r0: float) -> tuple[float, float]:
    """Circle-picture mean separation and its deviation from the simplex edge.

    Returns (separation, |separation - edge| / edge).  The deviation vanishes
    at N = 2 and 3, grows monotonically, and saturates at 1 - 2 sqrt(2) / pi.
    """
    geo = SemiclassicalGeometry.for_system(n, r0)
    deviation = abs(geo.circle_separation - geo.simplex_edge) / geo.simplex_edge
    return geo.circle_separation, deviation


def centripetal_balance(
    spec: SystemSpec,
    solution: EnvelopeSolution,
    geometry: Literal["circle", "simplex"] = "simplex",
) -> tuple[float, float, float, float]:
    """Force balance of the classical picture at the solved scales.

    Returns (F_c, F_1, F_2, residual) where F_c = N p0 T'(p0) / r0 is the
    centripetal force, F_1 and F_2 the one- and two-body radial forces of the
    chosen picture, and residual = (F_c - F_1 - F_2) / F_c.  The simplex
    picture reproduces the stationarity condition identically (residual of
    the order of the solver tolerance); the circle picture deviates by a few
    percent at N >= 4.
    """
    n = spec.n
    r0, p0 = solution.r0, solution.p0
    if geometry == "simplex":
        if spec.d < n - 1:
            raise DimensionTooSmall(
                f"a regular simplex of {n} vertices needs d >= {n - 1}, got d={spec.d}"
            )
    elif geometry != "circle":
        raise ValueError(f"geometry must be 'circle' or 'simplex', got {geometry!r}")

    c = float(spec.pair_count)
    f_c = n * p0 * float(spec.kinetic.derivative(p0)) / r0
    f_1 = float(spec.onebody.derivative(r0 / n)) if spec.onebody is not None else 0.0
    f_2 = 0.0
    if spec.twobody is not None:
        if geometry == "simplex":
            f_2 = math.sqrt(c) * float(spec.twobody.derivative(r0 / math.sqrt(c)))
        else:
            geo = SemiclassicalGeometry.for_system(n, r0)
            f_2 = float(spec.twobody.derivative(geo.circle_separation)) / math.tan(
                math.pi / (2.0 * n)
            )
    residual = (f_c - f_1 - f_2) / f_c
    return f_c, f_1, f_2, residual
