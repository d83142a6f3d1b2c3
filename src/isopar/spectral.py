"""Numerical differential geometry of the sphere level sets M_t = (F|S^n)^-1(t).

The polynomial side of the package is exact; this module is the measuring
instrument.  Given a verified Cartan-Muenzner family it

  * samples points of a level set by Gauss-Newton iteration on the pair
    (F(x) - t, |x|^2 - 1),
  * assembles the shape operator A = -(tangential Hessian)/|grad_S f| from
    exact polynomial second derivatives evaluated at the point,
  * clusters the eigenvalues into principal curvatures with multiplicities
    and cot-angles theta_k = arccot(lambda_k) in (0, pi),
  * checks Muenzner's structure: p in {1,2,3,4,6}, theta spacing pi/p,
    multiplicity rule m_k = m_{k+2},
  * verifies the parallel-surface law (curvatures of the displaced surface
    are cot(theta_k - t)) and the focal collapse (the parallel map loses
    exactly m_k ranks at theta_k).

Sign convention: the unit normal is xi = +grad_S f / |grad_S f| and every
report states it, so cot-angle bookkeeping is reproducible.  Flipping the
normal negates the spectrum.

Hessian restriction to the sphere: for homogeneous F and |x| = 1,

    Hess_S f(X, Y) = Hess F(X, Y) - <grad F, x> <X, Y>,

the correction being the second fundamental form of S^n in R^(n+1).

Every measurement evaluates F and its derivatives through the family's
FamilyGeometry, compiled on the first request.  The cache that holds it is
keyed weakly on the family object, so the compiled tables live exactly as
long as the family does and the module keeps no family alive.  The
geometry therefore holds no reference back to its family: a value that
held its weak key would keep the key, and itself, alive for good.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FocalAngleError,
    InstabilityError,
    PreconditionError,
    SamplingError,
)
from .families import IsoparametricFamily
from .report import Report, report_key

DEFAULT_SEED = 2718
DEFAULT_CLUSTER_TOL = 1e-4
MUNZNER_ALLOWED_P = (1, 2, 3, 4, 6)
LEVEL_GUARD = 0.95  # sampling stays this far from the focal levels by default
NEWTON_MAX_ITERATIONS = 80  # Gauss-Newton steps per seeded start
NEWTON_RESIDUAL_TOL = 1e-13  # max |(F(x) - t, |x|^2 - 1)| that counts as converged
SEED_AGREEMENT_TOL = 2e-6  # worst per-eigenvalue spread across seeds
SPACING_TOL = 1e-6  # worst |theta_{k+1} - theta_k - pi/p|
SV_THRESHOLD = 1e-5  # singular values below it count toward the nullity
FD_STEP = 1e-5  # first central-difference step of the parallel-map Jacobian

_SQRT3 = math.sqrt(3.0)

_geometry_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(entries: list, n: int) -> tuple:
    """Pack (slot, float coefficient, variables) entries into arrays.

    Each monomial becomes a row of its variable indices with repetition,
    padded with index n, which addresses a constant 1 appended to the point.
    The rows are stored transposed, one contiguous index array per column,
    and there is at least one column, so a constant monomial reads 1.
    """
    width = max((len(vs) for _, _, vs in entries), default=0)
    rows = np.full((len(entries), max(width, 1)), n, dtype=np.intp)
    for r, (_, _, vs) in enumerate(entries):
        rows[r, : len(vs)] = vs
    slots = np.array([s for s, _, _ in entries], dtype=np.intp)
    coeffs = np.array([c for _, c, _ in entries], dtype=float)
    return rows.T.copy(), coeffs, slots


def _evaluate(table: tuple, x: np.ndarray, size: int) -> np.ndarray:
    columns, coeffs, slots = table
    point = np.append(x, 1.0)
    product = point[columns[0]]
    for column in columns[1:]:
        product *= point[column]
    return np.bincount(slots, weights=coeffs * product, minlength=size)


def _drop(vs: list, i: int) -> list:
    k = vs.index(i)
    return vs[:k] + vs[k + 1 :]


def _float(a: int, b: int, den: int) -> float:
    """(a + sqrt3 b) / den, rounded as float() rounds the ScalarQ3 a/den + b/den sqrt3.

    Python int true division rounds the exact quotient once, as
    Fraction.__float__ does, so the two agree bit for bit.
    """
    return a / den + b / den * _SQRT3


class FamilyGeometry:
    """F, grad F and the upper triangle of Hess F of one family as tables.

    The tables come from the exact terms of F by exponent arithmetic: the
    partial d/dx_i of c x^e is (c e_i) x^(e - e_i), the coefficient being
    multiplied out on the integer numerators of c before its one rounding
    to float.  A table row is a monomial with its output slot (0 for F, i
    for dF/dx_i, i n + j for the Hessian entry i <= j).  Evaluating a table
    gathers the point at each column of variable indices, multiplies the
    columns left to right into one product per row, scales it by the
    coefficients and scatter-adds it into the slots.  numpy's multiply
    reduction along a row also runs left to right from the first factor, so
    the values are bit-identical to coeffs * np.prod(point[rows], axis=1);
    that reduction over 2- to 4-wide rows takes about 3 times as long on the
    fkm(9,1) gradient and Hessian.
    """

    def __init__(self, fam: IsoparametricFamily):
        n = self.n_amb = fam.ambient_dim
        den, terms = fam.F.numerators()
        value, grad, hess = [], [], []
        for mono, a, b in terms:
            vs = [v for v, e in enumerate(mono) for _ in range(e)]
            value.append((0, _float(a, b, den), vs))
            for i in dict.fromkeys(vs):
                di = _drop(vs, i)
                grad.append((i, _float(a * mono[i], b * mono[i], den), di))
                for j in dict.fromkeys(di):
                    if j >= i:
                        k = mono[i] * di.count(j)
                        hess.append((i * n + j, _float(a * k, b * k, den), _drop(di, j)))
        self._value = _table(value, n)
        self._grad = _table(grad, n)
        self._hess = _table(hess, n)

    def value(self, x: np.ndarray) -> float:
        return float(_evaluate(self._value, x, 1)[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return _evaluate(self._grad, x, self.n_amb)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        n = self.n_amb
        upper = _evaluate(self._hess, x, n * n).reshape(n, n)
        return upper + np.triu(upper, 1).T

    def sphere_gradient(self, x: np.ndarray) -> np.ndarray:
        g = self.gradient(x)
        return g - (g @ x) * x


def geometry(fam: IsoparametricFamily) -> FamilyGeometry:
    """The geometry of fam, compiled on the first request and kept while fam lives."""
    geo = _geometry_cache.get(fam)
    if geo is None:
        geo = _geometry_cache[fam] = FamilyGeometry(fam)
    return geo


@dataclass(frozen=True)
class SurfacePoint:
    """A sampled point of M_t: |x| = 1 and F(x) = t to tight tolerance."""

    geometry: FamilyGeometry = field(repr=False)
    x: np.ndarray = field(repr=False)
    t: float


@dataclass(frozen=True)
class NormalFrame:
    """Unit normal of the level set inside the sphere at a surface point."""

    x: np.ndarray = field(repr=False)
    xi: np.ndarray = field(repr=False)
    grad_norm: float  # |grad_S f| at x


@dataclass(frozen=True)
class Spectrum(Report):
    """Clustered principal curvatures at one surface point.

    ``eigenvalues`` is the raw sorted (ascending) list; ``clusters`` pairs
    (value, multiplicity) ordered by increasing cot-angle theta, i.e. by
    decreasing eigenvalue, so multiplicities[k] is m_{k+1} in the usual
    Muenzner ordering theta_1 < ... < theta_p.
    """

    eigenvalues: tuple
    clusters: tuple  # ((value, multiplicity), ...) in theta order
    p: int
    thetas: tuple  # ascending in (0, pi)
    normal_sign: int = field(init=False, default=+1)

    @property
    def multiplicities(self) -> tuple:
        return tuple(m for _, m in self.clusters)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["clusters"] = [{"value": v, "multiplicity": m} for v, m in self.clusters]
        return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_level(
    fam: IsoparametricFamily,
    t: float,
    seed: int = DEFAULT_SEED,
    allow_extreme: bool = False,
) -> SurfacePoint:
    """Newton-project a seeded random start onto {F = t} intersect S^n.

    The level must lie strictly inside (-1, 1); levels beyond +-0.95 are
    refused unless allow_extreme is set, to stay away from the focal
    submanifolds where the gradient on the sphere degenerates.  A family
    on S^1 is refused: its level sets are points, with no shape operator.
    """
    if fam.ambient_dim < 3:
        raise DomainError(f"{fam.name}: level sets in S^1 are points, with no shape operator")
    if not -1.0 < t < 1.0:
        raise DomainError(f"level t must lie in (-1, 1), got {t}")
    if abs(t) > LEVEL_GUARD and not allow_extreme:
        raise DomainError(
            f"|t| = {abs(t)} is inside the focal guard band: "
            f"levels are sampled only at |t| <= {LEVEL_GUARD}"
        )
    geo = geometry(fam)
    n = geo.n_amb
    rng = np.random.default_rng(seed)
    for _attempt in range(12):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        converged = False
        for _ in range(NEWTON_MAX_ITERATIONS):
            value = geo.value(x)
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
        if np.linalg.norm(geo.sphere_gradient(x)) < 1e-6:
            continue  # critical point of F|S^n, resample
        return SurfacePoint(geometry=geo, x=x, t=value)
    raise SamplingError(
        f"no convergent sample on level t = {t} after 12 seeded starts"
    )


def normal_frame(pt: SurfacePoint) -> NormalFrame:
    geo = pt.geometry
    gs = geo.sphere_gradient(pt.x)
    norm = float(np.linalg.norm(gs))
    if norm < 1e-9:
        raise PreconditionError("gradient on the sphere degenerates at this point")
    return NormalFrame(x=pt.x, xi=gs / norm, grad_norm=norm)


def tangent_basis(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v : v . x = 0, v . xi = 0}, deterministic via QR.

    Q is orthonormal with its first two columns spanning {x, xi}, so the
    remaining n - 2 columns are automatically a basis of the tangent space.
    """
    n = len(x)
    M = np.column_stack([x, xi, np.eye(n)])
    Q, R = np.linalg.qr(M)
    if abs(R[1, 1]) < 1e-10:
        raise PreconditionError("normal direction degenerates against the position")
    return Q[:, 2:n]


# ---------------------------------------------------------------------------
# shape operator and spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeOperator:
    matrix: np.ndarray = field(repr=False)  # symmetric, (n-1) x (n-1)
    basis: np.ndarray = field(repr=False)  # ambient columns spanning T_x M
    frame: NormalFrame
    asymmetry: float  # max |A - A^T| before symmetrization


def shape_operator(pt: SurfacePoint, flip_normal: bool = False) -> ShapeOperator:
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


def principal_curvatures(pt: SurfacePoint, flip_normal: bool = False) -> np.ndarray:
    return np.linalg.eigvalsh(shape_operator(pt, flip_normal=flip_normal).matrix)


def cluster_spectrum(eigenvalues, tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Single-linkage clustering of curvature values with a stability guard.

    Consecutive sorted eigenvalues closer than tol join one cluster.  The
    result is rejected as ambiguous when the largest intra-cluster gap is
    not at least 10 times smaller than the smallest inter-cluster gap.
    """
    eigs = sorted(float(v) for v in eigenvalues)
    if not eigs:
        raise PreconditionError("empty eigenvalue list")
    groups: list[list[float]] = [[eigs[0]]]
    for v in eigs[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    within = [g[-1] - g[0] for g in groups]
    between = [b[0] - a[-1] for a, b in zip(groups, groups[1:])]
    max_within = max(within)
    if between:
        min_between = min(between)
        if max_within > 0 and min_between < 10 * max_within:
            raise InstabilityError(
                f"ambiguous clustering: max within-cluster spread {max_within:.3e} "
                f"vs min between-cluster gap {min_between:.3e}"
            )
    clusters_asc = [(float(np.mean(g)), len(g)) for g in groups]
    clusters = tuple(reversed(clusters_asc))  # descending value = ascending theta
    thetas = tuple(math.atan2(1.0, v) for v, _ in clusters)
    return Spectrum(
        eigenvalues=tuple(eigs),
        clusters=clusters,
        p=len(clusters),
        thetas=thetas,
    )


def spectrum_at(pt: SurfacePoint) -> Spectrum:
    return cluster_spectrum(principal_curvatures(pt))


# ---------------------------------------------------------------------------
# Muenzner structure checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MunznerReport(Report):
    p: int
    p_allowed: bool
    spacing_ok: bool
    max_spacing_error: float
    multiplicity_rule_ok: bool

    citation = (
        "Muenzner restriction p in {1,2,3,4,6}; "
        "theta_k = theta_1 + (k-1) pi / p; m_k = m_{k+2}"
    )

    @property
    def ok(self) -> bool:
        return self.p_allowed and self.spacing_ok and self.multiplicity_rule_ok


def munzner_check(spectrum: Spectrum) -> MunznerReport:
    p = spectrum.p
    allowed = p in MUNZNER_ALLOWED_P
    thetas = sorted(spectrum.thetas)
    if p > 1:
        gaps = [b - a for a, b in zip(thetas, thetas[1:])]
        max_err = max(abs(g - math.pi / p) for g in gaps)
        spacing_ok = max_err <= SPACING_TOL
    else:
        max_err = 0.0
        spacing_ok = True
    mults = spectrum.multiplicities
    rule_ok = all(mults[k] == mults[(k + 2) % p] for k in range(p))
    return MunznerReport(
        p=p,
        p_allowed=allowed,
        spacing_ok=spacing_ok,
        max_spacing_error=float(max_err),
        multiplicity_rule_ok=rule_ok,
    )


# ---------------------------------------------------------------------------
# parallel surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelReport(Report):
    travel: float
    start_level: float
    end_level: float
    predicted_level: float
    level_ok: bool
    predicted_curvatures: tuple
    measured_curvatures: tuple
    max_curvature_error: float
    curvatures_ok: bool = report_key(None)

    citation = "parallel surface x_t = cos t x + sin t xi with curvatures cot(theta_k - t)"

    @property
    def ok(self) -> bool:
        return self.level_ok and self.curvatures_ok


def _focal_distance(travel: float, thetas) -> float:
    return min(
        abs((travel - th + math.pi / 2) % math.pi - math.pi / 2) for th in thetas
    )


def parallel_check(
    pt: SurfacePoint,
    travel: float,
    curvature_tol: float = 1e-6,
) -> ParallelReport:
    """Displace pt by angle ``travel`` along the normal geodesic and compare.

    The displaced surface must show curvatures cot(theta_k - travel) and the
    new level value must equal cos(p (theta_1 - travel)).
    """
    base = spectrum_at(pt)
    if _focal_distance(travel, base.thetas) < 1e-6:
        raise FocalAngleError(
            f"travel angle {travel} is a focal angle; the parallel map collapses"
        )
    geo = pt.geometry
    frame = normal_frame(pt)
    x_t = math.cos(travel) * pt.x + math.sin(travel) * frame.xi
    xi_t = -math.sin(travel) * pt.x + math.cos(travel) * frame.xi

    end_level = float(geo.value(x_t))
    theta1 = base.thetas[0]
    predicted_level = math.cos(base.p * (theta1 - travel))
    level_ok = abs(end_level - predicted_level) <= 1e-6

    new_pt = SurfacePoint(geometry=geo, x=x_t, t=end_level)
    # keep the transported orientation: flip if the gradient normal reversed
    gs = geo.sphere_gradient(x_t)
    flip = bool(gs @ xi_t < 0)
    measured = np.linalg.eigvalsh(shape_operator(new_pt, flip_normal=flip).matrix)

    predicted = []
    for theta, (_, mult) in zip(base.thetas, base.clusters):
        predicted.extend([1.0 / math.tan(theta - travel)] * mult)
    predicted = np.array(sorted(predicted))
    max_err = float(np.max(np.abs(predicted - np.sort(measured))))
    return ParallelReport(
        travel=travel,
        start_level=pt.t,
        end_level=end_level,
        predicted_level=predicted_level,
        level_ok=level_ok,
        predicted_curvatures=tuple(predicted),
        measured_curvatures=tuple(sorted(float(v) for v in measured)),
        max_curvature_error=max_err,
        curvatures_ok=max_err <= curvature_tol,
    )


# ---------------------------------------------------------------------------
# focal collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FocalReport(Report):
    angle: float
    is_focal_angle: bool
    expected_nullity: int | None
    nullity: int
    singular_values: tuple

    citation = (
        "focal submanifold of codimension m_k + 1: the "
        "parallel map at theta_k loses exactly m_k ranks"
    )

    @property
    def ok(self) -> bool:
        if self.expected_nullity is None:
            return self.nullity == 0
        return self.nullity == self.expected_nullity


def parallel_map_rank(pt: SurfacePoint, angle: float) -> tuple[int, np.ndarray]:
    """Nullity and singular values of d(x, t) -> cos t x + sin t xi(x).

    The Jacobian is built by central finite differences of the normal field
    over a tangent basis, plus the explicit t-column.  Retries with other
    step sizes when the singular spectrum has no clean gap at the threshold.
    """
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


def focal_check(pt: SurfacePoint, k: int) -> FocalReport:
    """Check that the parallel map at theta_k collapses exactly m_k ranks."""
    spectrum = spectrum_at(pt)
    if not 0 <= k < spectrum.p:
        raise DomainError(f"curvature index {k} out of range for p = {spectrum.p}")
    theta = spectrum.thetas[k]
    expected = spectrum.multiplicities[k]
    nullity, sv = parallel_map_rank(pt, theta)
    return FocalReport(
        angle=theta,
        is_focal_angle=True,
        expected_nullity=expected,
        nullity=nullity,
        singular_values=tuple(float(v) for v in sv),
    )


# ---------------------------------------------------------------------------
# multi-seed reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport(Report):
    family: str
    t: float
    seeds: tuple
    spectrum: Spectrum
    munzner: MunznerReport
    cross_seed_deviation: float
    seed_agreement_ok: bool
    normal_convention: str = field(init=False, default="xi = +grad_S f / |grad_S f|")

    citation = "constancy of principal curvatures on each level set"


def spectrum_report(
    fam: IsoparametricFamily,
    t: float,
    num_seeds: int = 1,
    base_seed: int = DEFAULT_SEED,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SpectrumReport:
    """Sample ``num_seeds`` points of M_t and compare their spectra.

    Constancy of the principal curvatures across sample points is the
    defining property of an isoparametric family; the report carries the
    worst elementwise deviation between the per-seed sorted spectra.
    """
    seeds = tuple(base_seed + i for i in range(num_seeds))
    all_eigs = [principal_curvatures(sample_level(fam, t, seed=s)) for s in seeds]

    stacked = np.vstack(all_eigs)
    deviation = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))
    spectrum = cluster_spectrum(all_eigs[0], tol=cluster_tol)
    return SpectrumReport(
        family=fam.name,
        t=t,
        seeds=seeds,
        spectrum=spectrum,
        munzner=munzner_check(spectrum),
        cross_seed_deviation=deviation,
        seed_agreement_ok=deviation <= SEED_AGREEMENT_TOL,
    )
