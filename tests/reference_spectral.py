"""Reference routes: the two-table Gauss-Newton loop and the per-request frame.

``sample_level`` is the loop ``isopar.spectral`` used before a step read
F(x) off the gradient by Euler's identity.  Each step evaluated F and grad F
separately, solved the 2 x 2 normal equations with ``np.linalg.solve`` and,
once converged, evaluated the gradient again.  F is read here from the
exact polynomial, by the float evaluator of the reference kernel
(``reference_poly``), because the geometry no longer holds a value table.
The point it returns is built by the package's ``_surface_point``, so only
the projection differs between the two routes.

The rest is the frame route ``isopar.spectral`` used before a sampled point
carried its own frame.  Every check derived the unit normal again
(``normal_frame``), ran a QR for the tangent basis and evaluated the
Hessian, and the reversed orientation of a displaced point was the
``flip_normal`` argument of ``shape_operator``.  Both routes are kept as
the oracles test_spectral.py compares against.  It is not part of the package: nothing under ``src/``
imports it.

A ``Point`` is the former ``SurfacePoint``: position and level only.  The
functions read nothing but ``geometry`` and ``x`` of the point they are
given, so they accept a package ``SurfacePoint`` as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from isopar import spectral
from isopar.errors import DomainError, PreconditionError, SamplingError
from isopar.spectral import (
    DEFAULT_SEED,
    FD_STEP,
    LEVEL_GUARD,
    NEWTON_MAX_ITERATIONS,
    NEWTON_RESIDUAL_TOL,
    SV_THRESHOLD,
    FamilyGeometry,
    cluster_spectrum,
)
from reference_poly import ref


def sample_level(fam, t: float, seed: int = DEFAULT_SEED, allow_extreme: bool = False):
    """Newton-project a seeded random start onto {F = t} intersect S^n."""
    if fam.ambient_dim < 3:
        raise DomainError(f"{fam.name}: level sets in S^1 are points, with no shape operator")
    if not -1.0 < t < 1.0:
        raise DomainError(f"level t must lie in (-1, 1), got {t}")
    if abs(t) > LEVEL_GUARD and not allow_extreme:
        raise DomainError(
            f"|t| = {abs(t)} is inside the focal guard band: "
            f"levels are sampled only at |t| <= {LEVEL_GUARD}"
        )
    geo = spectral.geometry(fam)
    n = geo.n_amb
    F = ref(fam.F)
    rng = np.random.default_rng(seed)
    for _attempt in range(12):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        converged = False
        for _ in range(NEWTON_MAX_ITERATIONS):
            value = F.evaluate_float([float(v) for v in x])
            r = np.array([value - t, x @ x - 1.0])
            if float(np.max(np.abs(r))) < NEWTON_RESIDUAL_TOL:
                converged = True
                break
            J = np.vstack([geo.gradient(x), 2.0 * x])
            JJt = J @ J.T
            try:
                step = J.T @ np.linalg.solve(JJt, r)
            except np.linalg.LinAlgError:
                break
            x = x - step
        if not converged:
            continue
        g = geo.gradient(x)
        if np.linalg.norm(g - (g @ x) * x) < 1e-6:
            continue  # critical point of F|S^n, resample
        return spectral._surface_point(geo, x, value, g)
    raise SamplingError(
        f"no convergent sample on level t = {t} after 12 seeded starts"
    )


@dataclass(frozen=True)
class Point:
    """A point of M_t: |x| = 1 and F(x) = t to tight tolerance."""

    geometry: FamilyGeometry = field(repr=False)
    x: np.ndarray = field(repr=False)
    t: float


@dataclass(frozen=True)
class NormalFrame:
    """Unit normal of the level set inside the sphere at a surface point."""

    x: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    grad_norm: float  # |grad_S f| at x


def normal_frame(pt) -> NormalFrame:
    geo = pt.geometry
    gs = geo.sphere_gradient(pt.x)
    norm = float(np.linalg.norm(gs))
    if norm < 1e-9:
        raise PreconditionError("gradient on the sphere degenerates at this point")
    return NormalFrame(x=pt.x, xi=gs / norm, grad_norm=norm)


def tangent_basis(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v : v . x = 0, v . xi = 0}, deterministic via QR."""
    n = len(x)
    M = np.column_stack([x, xi, np.eye(n)])
    Q, R = np.linalg.qr(M)
    if abs(R[1, 1]) < 1e-10:
        raise PreconditionError("normal direction degenerates against the position")
    return Q[:, 2:n]


@dataclass(frozen=True)
class ShapeOperator:
    matrix: np.ndarray = field(repr=False)  # symmetric, (n-1) x (n-1)
    basis: np.ndarray = field(repr=False)  # ambient columns spanning T_x M
    frame: NormalFrame
    asymmetry: float  # max |A - A^T| before symmetrization


def shape_operator(pt, flip_normal: bool = False) -> ShapeOperator:
    """A = -(Hess F - <grad F, x> Id)|_T / |grad_S f| on the tangent space."""
    geo = pt.geometry
    frame = normal_frame(pt)
    xi = -frame.xi if flip_normal else frame.xi
    B = tangent_basis(pt.x, frame.xi)
    H = geo.hessian(pt.x)
    radial = float(geo.gradient(pt.x) @ pt.x)
    Ht = B.T @ H @ B - radial * np.eye(B.shape[1])
    sign = -1.0 if flip_normal else 1.0
    A = -(Ht) / (sign * frame.grad_norm)
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-8:
        raise PreconditionError(f"shape operator asymmetry {asym} exceeds 1e-8")
    A = 0.5 * (A + A.T)
    reported = NormalFrame(x=pt.x, xi=xi, grad_norm=frame.grad_norm)
    return ShapeOperator(matrix=A, basis=B, frame=reported, asymmetry=asym)


def principal_curvatures(pt, flip_normal: bool = False) -> np.ndarray:
    return np.linalg.eigvalsh(shape_operator(pt, flip_normal=flip_normal).matrix)


def parallel_measured(pt, travel: float) -> tuple[tuple, bool]:
    """The measured curvatures of the displaced point and whether its normal flipped.

    The displacement and the orientation rule of the former parallel_check.
    """
    geo = pt.geometry
    frame = normal_frame(pt)
    x_t = math.cos(travel) * pt.x + math.sin(travel) * frame.xi
    xi_t = -math.sin(travel) * pt.x + math.cos(travel) * frame.xi
    # the level of x_t is never read here; Euler's identity gives it
    new_pt = Point(geometry=geo, x=x_t, t=float(geo.gradient(x_t) @ x_t) / geo.degree)
    # keep the transported orientation: flip if the gradient normal reversed
    gs = geo.sphere_gradient(x_t)
    flip = bool(gs @ xi_t < 0)
    measured = np.linalg.eigvalsh(shape_operator(new_pt, flip_normal=flip).matrix)
    return tuple(sorted(float(v) for v in measured)), flip


def parallel_map_rank(pt, angle: float) -> tuple[int, np.ndarray]:
    """Nullity and singular values of d(x, t) -> cos t x + sin t xi(x)."""
    geo = pt.geometry
    frame = normal_frame(pt)
    B = tangent_basis(pt.x, frame.xi)

    def xi_at(y: np.ndarray) -> np.ndarray:
        y = y / np.linalg.norm(y)
        gs = geo.sphere_gradient(y)
        return gs / np.linalg.norm(gs)

    for step in (FD_STEP, FD_STEP * 10, FD_STEP / 10):
        cols = []
        for idx in range(B.shape[1]):
            v = B[:, idx]
            dxi = (xi_at(pt.x + step * v) - xi_at(pt.x - step * v)) / (2 * step)
            cols.append(math.cos(angle) * v + math.sin(angle) * dxi)
        cols.append(-math.sin(angle) * pt.x + math.cos(angle) * frame.xi)
        J = np.column_stack(cols)
        sv = np.linalg.svd(J, compute_uv=False)
        null = int(np.sum(sv < SV_THRESHOLD))
        small = sv[sv < SV_THRESHOLD]
        large = sv[sv >= SV_THRESHOLD]
        gap_ok = (len(small) == 0 or len(large) == 0) or (
            np.min(large) > 10 * max(np.max(small), SV_THRESHOLD / 10)
        )
        if gap_ok:
            return null, sv
    raise SamplingError(
        "finite-difference Jacobian is ill-conditioned at every step size tried"
    )


def focal_singular_values(pt, k: int) -> tuple:
    """The singular values the former focal_check reported for index k."""
    theta = cluster_spectrum(principal_curvatures(pt)).thetas[k]
    return tuple(float(v) for v in parallel_map_rank(pt, theta)[1])
