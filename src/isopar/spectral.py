"""Numerical differential geometry of the sphere level sets M_t = (F|S^n)^-1(t).

The polynomial side of the package is exact; this module is the measuring
instrument.  Given a verified Cartan-Muenzner family it

  * samples points of a level set from a random start: one closed-form
    jump along the normal great circle, on which f = F|S^n reads
    cos(p (theta - s)) (Muenzner), then Gauss-Newton iteration on the pair
    (F(x) - t, |x|^2 - 1) until both residuals are tiny, one gradient
    evaluation per step; on a Cartan-Muenzner family the jump lands on the
    level and a sample costs two gradients, the start and the landing,
  * assembles the shape operator A = -(tangential Hessian)/|grad_S f| from
    exact polynomial second derivatives evaluated at the point,
  * clusters the eigenvalues into principal curvatures with multiplicities
    and cot-angles theta_k = arccot(lambda_k) in (0, pi),
  * checks Muenzner's structure: p in {1,2,3,4,6}, theta spacing pi/p,
    multiplicity rule m_k = m_{k+2},
  * verifies the parallel-surface law (curvatures of the displaced surface
    are cot(theta_k - t)) and the focal collapse (the parallel map loses
    exactly m_k ranks at theta_k).

A SurfacePoint carries its frame: the unit normal, a tangent basis and the
shape operator are computed once, when sample_level returns the point or
parallel_check forms the displaced point, and every check reads them.
spectrum_report keeps no SurfacePoint: it measures the same frames for its
seeds as stacks and keeps only their eigenvalues.  A stack that fails is
sampled again, seed by seed, with sample_level, which raises the error of
the first seed that fails.

Sign convention: the unit normal is xi = +grad_S f / |grad_S f| and every
report states it, so cot-angle bookkeeping is reproducible.  Orientation is
handled in parallel_check alone: where the gradient normal of the displaced
point is opposite the transported normal, it measures the spectrum of -A.

Hessian restriction to the sphere: for homogeneous F and |x| = 1,

    Hess_S f(X, Y) = Hess F(X, Y) - <grad F, x> <X, Y>,

the correction being the second fundamental form of S^n in R^(n+1).

Every measurement evaluates grad F and Hess F through the family's
FamilyGeometry, compiled on the first request.  F is homogeneous of degree
p, so F(x) = <x, grad F(x)> / p by Euler's identity: sampling and the end
level of a parallel surface read F off the gradient they need anyway.
The cache that holds the geometry is keyed weakly on the family object, so
the compiled tables live exactly as long as the family does and the module
keeps no family alive.  The geometry therefore holds no reference back to
its family: a value that held its weak key would keep the key, and itself,
alive for good.

Every table evaluation takes a stack, the points as the C-contiguous rows
of a (B, n) array, and returns one result per point; one point is a stack
of one row, so its result is bit-identical to its row in any batch.  A
stack is evaluated in chunks of at most EVAL_CHUNK_PRODUCTS products
(points times table rows): a larger chunk no longer fits the allocator's
reused memory and faults its arrays in on every call.  Two stages stack
more than one point: the focal check sends its finite-difference points
through one gradient batch per step size, and spectrum_report measures the
frames of its converged seeds in stacks, one Hessian batch, one QR, one
product B^T H B and one eigvalsh per stack.  Sampling steps evaluate one
point at a time, and so do the frames of sample_level and parallel_check.
Dot products go through _dots, one BLAS dot per C-contiguous row, as
a @ b and np.linalg.norm take on one point; summing them any other way, or
over strided rows such as those of a transposed basis, changes the last bits.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

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
LEVEL_GUARD = 0.95  # sampling stays this far from the focal levels
NEWTON_MAX_ITERATIONS = 80  # steps per seeded start, the first (jump) step included
NEWTON_RESIDUAL_TOL = 1e-13  # max |(F(x) - t, |x|^2 - 1)| that counts as converged
SEED_AGREEMENT_TOL = 2e-6  # worst per-eigenvalue spread across seeds
SPACING_TOL = 1e-6  # worst |theta_{k+1} - theta_k - pi/p|
CURVATURE_TOL = 1e-6  # worst |cot(theta_k - travel) - measured| after parallel transport
SV_THRESHOLD = 1e-5  # singular values below it count toward the nullity
FD_STEP = 1e-5  # first central-difference step of the parallel-map Jacobian
# Bound on the products (points x table rows) of one batched table
# evaluation, so each product array stays within 128 KiB.  glibc malloc
# hands larger arrays back to the system on free, and the next call faults
# them in again.  fkm(9,1) gradient on a 2-core Xeon: 23 us for one point;
# 20 us per point and no page faults in batches of 5 points (15k products);
# 33-45 us per point and about 86 minor faults per call in batches of 10.
EVAL_CHUNK_PRODUCTS = 1 << 14

_SQRT3 = math.sqrt(3.0)

_geometry_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Table(NamedTuple):
    """A derivative table: per row, its variable indices (one index array
    per column), a float coefficient and an output slot; a batch goes to it
    in chunks of ``chunk`` points.

    bins[0] is the batch scatter index, slot + size * point for each row of
    each point of the largest batch yet, raveled; a smaller batch reads its
    prefix.  It grows to a full chunk only where the batches do: held for a
    full chunk from the start, the eight tables of fkm(9,1), cartan-O,
    nomizu(7) and product(7,4) took 0.8 MB.
    """

    columns: np.ndarray
    coeffs: np.ndarray
    slots: np.ndarray
    chunk: int
    bins: list


def _table(entries: list, n: int) -> _Table:
    """Pack (slot, float coefficient, variables) entries into arrays.

    Each monomial becomes a row of its variable indices with repetition,
    padded with index n, which addresses a constant 1 appended to the point.
    The rows are stored transposed, one contiguous index array per column,
    and there is at least one column, so a constant monomial reads 1.  There
    is at least one row too: no entries become one zero row, so an empty
    table sums float zeros, as every other table does.
    """
    entries = entries or [(0, 0.0, ())]
    width = max(len(vs) for _, _, vs in entries)
    rows = np.full((len(entries), max(width, 1)), n, dtype=np.intp)
    for r, (_, _, vs) in enumerate(entries):
        rows[r, : len(vs)] = vs
    slots = np.array([s for s, _, _ in entries], dtype=np.intp)
    coeffs = np.array([c for _, c, _ in entries], dtype=float)
    chunk = max(1, EVAL_CHUNK_PRODUCTS // len(entries))
    return _Table(rows.T.copy(), coeffs, slots, chunk, [slots])


def _evaluate(table: _Table, x: np.ndarray, size: int) -> np.ndarray:
    """The table at each C-contiguous row of x, shape (B, n), B <= chunk.

    One point is a stack of one row.  Each row's result is the same
    whatever the other rows: the products of a row are formed by the same
    multiplications in the same order, and bincount adds the weights of
    each output slot in table order whether or not other points' slots sit
    beside them.
    """
    columns, coeffs, slots, _, bins = table
    rows = len(x)
    point = np.concatenate([x, np.ones((rows, 1))], axis=1)
    # take along axis 1 of the (B, n + 1) array: indexing point[:, column],
    # or gathering from the transposed layout, is about three times as slow
    product = point.take(columns[0], axis=1)
    for column in columns[1:]:
        product *= point.take(column, axis=1)
    product *= coeffs
    if len(bins[0]) < product.size:  # the largest batch yet: index it once
        bins[0] = (slots + size * np.arange(rows)[:, None]).ravel()
    return np.bincount(
        bins[0][: product.size], weights=product.ravel(), minlength=rows * size
    ).reshape(rows, size)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of one point, shape (1,), or <a_i, b_i> of each row, shape (B, 1).

    The (1, n) @ (n, 1) products run one BLAS dot per point, as a @ b and
    np.linalg.norm do, provided each row of a and b is C-contiguous, so
    every value is bit-identical to a[i] @ b[i].  einsum, sum(axis=1) and
    strided rows all sum in another order and change the last bits.  The
    kept axis broadcasts against the points.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


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
    """grad F and the upper triangle of Hess F of one family as tables.

    F itself has no table; it is read off the gradient by Euler's identity,
    with the degree p held here.  The tables come from the exact terms of F
    by exponent arithmetic: the partial d/dx_i of c x^e is (c e_i)
    x^(e - e_i), the coefficient being multiplied out on the integer
    numerators of c before its one rounding to float.  A table row is a monomial with its
    output slot (i for dF/dx_i, i n + j for the Hessian entry i <= j).
    Evaluating a table gathers the point at each column of variable
    indices, multiplies the columns left to right into one product per row,
    scales it by the coefficients and scatter-adds it into the slots.
    numpy's multiply reduction along a row also runs left to right from the
    first factor, so the values are bit-identical to
    coeffs * np.prod(point[rows], axis=1); that reduction over 2- to 4-wide
    rows takes about 3 times as long on the fkm(9,1) gradient and Hessian.

    gradient, sphere_gradient and hessian take one point, shape (n,), or a
    batch, the C-contiguous rows of a (B, n) array, and return one
    bit-identical result per point along a leading axis.  Either goes to
    each table as a stack of rows, one point as a stack of one, in chunks
    of max(1, EVAL_CHUNK_PRODUCTS // table rows) points.
    """

    def __init__(self, fam: IsoparametricFamily):
        n = self.n_amb = fam.ambient_dim
        self.degree = fam.p
        den, terms = fam.F.numerators()
        grad, hess = [], []
        for mono, a, b in terms:
            vs = [v for v, e in enumerate(mono) for _ in range(e)]
            for i in dict.fromkeys(vs):
                di = _drop(vs, i)
                grad.append((i, _float(a * mono[i], b * mono[i], den), di))
                for j in dict.fromkeys(di):
                    if j >= i:
                        k = mono[i] * di.count(j)
                        hess.append((i * n + j, _float(a * k, b * k, den), _drop(di, j)))
        self._grad = _table(grad, n)
        self._hess = _table(hess, n)
        i, j = np.triu_indices(n, 1)
        self._strict_upper = (i * n + j, j * n + i)  # slots of (i, j) and (j, i), i < j

    def _batched(self, table: _Table, x: np.ndarray, size: int) -> np.ndarray:
        """table at each row of x, (n,) or (B, n), table.chunk rows per evaluation."""
        rows, chunk = x.reshape(-1, self.n_amb), table.chunk
        out = np.empty((len(rows), size))
        for i in range(0, len(rows), chunk):
            out[i : i + chunk] = _evaluate(table, rows[i : i + chunk], size)
        return out.reshape(x.shape[:-1] + (size,))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F at one point, shape (n,), or at each row of x, shape (B, n), in chunks."""
        return self._batched(self._grad, x, self.n_amb)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hess F at one point, shape (n, n), or at each row of x, shape (B, n, n), in chunks."""
        n = self.n_amb
        H = self._batched(self._hess, x, n * n)
        upper, lower = self._strict_upper
        # the table fills the upper triangle; mirrored, H is symmetric bit
        # for bit, and bincount sums every slot from +0.0, so no entry is -0.0
        H[..., lower] = H[..., upper]
        return H.reshape(x.shape[:-1] + (n, n))

    def sphere_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad_S f = grad F - <grad F, x> x, at one point or at each C-contiguous row of x."""
        g = self.gradient(x)
        return g - _dots(g, x) * x


def geometry(fam: IsoparametricFamily) -> FamilyGeometry:
    """The geometry of fam, compiled on the first request and kept while fam lives."""
    geo = _geometry_cache.get(fam)
    if geo is None:
        geo = _geometry_cache[fam] = FamilyGeometry(fam)
    return geo


@dataclass(frozen=True)
class SurfacePoint:
    """A point of M_t with its frame: |x| = 1 and F(x) = t to tight tolerance.

    xi = +grad_S f / |grad_S f| is the unit normal inside the sphere, the
    columns of basis are an orthonormal basis of T_x M_t, and shape is the
    symmetrized shape operator on that basis.
    """

    geometry: FamilyGeometry = field(repr=False)
    x: np.ndarray = field(repr=False)
    t: float
    xi: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)  # ambient columns spanning T_x M
    shape: np.ndarray = field(repr=False)  # symmetric, (n-1) x (n-1)
    asymmetry: float  # max |A - A^T| before symmetrization


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


def sample_level(fam: IsoparametricFamily, t: float, seed: int = DEFAULT_SEED) -> SurfacePoint:
    """Project a seeded random start onto {F = t} intersect S^n (see _project).

    The level must satisfy |t| <= LEVEL_GUARD = 0.95: the band beyond it
    is refused, to stay away from the focal submanifolds where the
    gradient on the sphere degenerates.  A family on S^1 is refused: its
    level sets are points, with no shape operator.
    """
    geo = _level_geometry(fam, t)
    x, g, value = _converge(geo, t, seed)
    return _surface_point(geo, x, value, g)


def _level_geometry(fam: IsoparametricFamily, t: float) -> FamilyGeometry:
    """The geometry of fam, once the level t is known to have a shape operator."""
    if fam.ambient_dim < 3:
        raise DomainError(f"{fam.name}: level sets in S^1 are points, with no shape operator")
    if not -1.0 < t < 1.0:
        raise DomainError(f"level t must lie in (-1, 1), got {t}")
    if abs(t) > LEVEL_GUARD:
        raise DomainError(
            f"|t| = {abs(t)} is inside the focal guard band: "
            f"levels are sampled only at |t| <= {LEVEL_GUARD}"
        )
    return geometry(fam)


def _converge(geo: FamilyGeometry, t: float, seed: int) -> tuple:
    """(x, grad F(x), F(x)) from the first of 12 seeded starts that _project
    brings onto M_t away from a critical point of F|S^n."""
    rng = np.random.default_rng(seed)
    for _attempt in range(12):
        x = rng.normal(size=geo.n_amb)
        projected = _project(geo, x / np.linalg.norm(x), t)
        if projected is None:
            continue
        x, g, _ = projected
        if np.linalg.norm(g - (g @ x) * x) < 1e-6:
            continue  # critical point of F|S^n, resample
        return projected
    raise SamplingError(
        f"no convergent sample on level t = {t} after 12 seeded starts"
    )


def _project(geo: FamilyGeometry, x: np.ndarray, t: float):
    """From the unit start x onto the pair (F(x) - t, |x|^2 - 1) = 0.

    Returns (x, grad F(x), F(x)) at the first x whose residuals are both
    below NEWTON_RESIDUAL_TOL, or None when the steps run out or the normal
    matrix is singular.  Each step evaluates one table: F(x) = <x, g> / p
    by Euler's identity.

    The first step jumps along the normal great circle.  For an
    isoparametric F in Cartan-Muenzner normalization, f = F|S^n reads
    cos(p (theta - s)) along cos s x + sin s xi, xi = grad_S f / |grad_S f|,
    where f(x) = cos(p theta) (Muenzner).  So s = (arccos f - arccos t) / p
    lands on M_t in closed form, at the crossing of the circle nearest x.
    The jump is only a start: the residual test alone decides convergence,
    and where F does not obey the law (it is not isoparametric, or not
    normalized) the Gauss-Newton steps that follow polish the landing.
    Where grad_S f vanishes or |f| > 1, or either is NaN, there is no
    circle to follow and the first step is a Gauss-Newton step too.

    A Gauss-Newton step has the Jacobian rows g and 2x, so
    J J^T = [[g.g, 2 g.x], [2 g.x, 4 x.x]] is solved in closed form and the
    step J^T (J J^T)^-1 r is a g + 2 b x.
    """
    p = geo.degree
    for step in range(NEWTON_MAX_ITERATIONS):
        g = geo.gradient(x)
        gx, xx = float(g @ x), float(x @ x)
        value = gx / p
        rf, rs = value - t, xx - 1.0
        if abs(rf) < NEWTON_RESIDUAL_TOL and abs(rs) < NEWTON_RESIDUAL_TOL:
            return x, g, value
        if step == 0:
            gs = g - gx * x  # grad_S f
            norm = math.sqrt(float(gs @ gs))
            if norm > 0 and abs(value) <= 1.0:
                s = (math.acos(value) - math.acos(t)) / p
                x = math.cos(s) * x + math.sin(s) * (gs / norm)
                continue
        gg = float(g @ g)
        det = gg * xx - gx * gx  # det(J J^T) / 4
        if not det > 0:  # zero, negative by rounding, or NaN
            return None
        a = (xx * rf - 0.5 * gx * rs) / det
        b = (0.25 * gg * rs - 0.5 * gx * rf) / det
        x = x - a * g - (2.0 * b) * x
    return None


def _surface_point(geo: FamilyGeometry, x: np.ndarray, t: float, g: np.ndarray) -> SurfacePoint:
    """The point x of M_t with its frame, from g = grad F(x)."""
    return SurfacePoint(geo, x, t, *_frame(geo, x, g))


def _frame(geo: FamilyGeometry, x: np.ndarray, g: np.ndarray) -> tuple:
    """(xi, basis, shape, asymmetry) at x, from g = grad F(x).

    x and g are one point, shape (n,), or a stack, the C-contiguous rows of
    (B, n) arrays; a stack runs each stage once, one chunked Hessian, one
    QR and one product B^T H B, and returns its results stacked along the
    leading axis, each bit-identical to the one-point frame.  A check that
    fails at any point of a stack raises.
    """
    radial = _dots(g, x)  # <grad F, x>
    gs = g - radial * x  # grad_S f
    norm = np.sqrt(_dots(gs, gs))
    if (norm < 1e-9).any():
        raise PreconditionError("gradient on the sphere degenerates at this point")
    xi = gs / norm
    # Q of [x, xi, Id] is orthonormal with its first two columns spanning
    # {x, xi}, so the remaining n - 2 columns are a basis of the tangent
    # space, deterministic
    n = geo.n_amb
    M = np.empty(x.shape + (n + 2,))
    M[..., 0], M[..., 1], M[..., 2:] = x, xi, np.eye(n)
    Q, R = np.linalg.qr(M)
    if (np.abs(R[..., 1, 1]) < 1e-10).any():
        raise PreconditionError("normal direction degenerates against the position")
    del R  # a stack's R is as large as Q: free it before the Hessian stack
    basis = Q[..., 2:]
    shape, asymmetry = shape_operator(geo, x, basis, radial[..., None], norm[..., None])
    return xi, basis, shape, asymmetry


# ---------------------------------------------------------------------------
# shape operator and spectrum
# ---------------------------------------------------------------------------


def shape_operator(
    geo: FamilyGeometry,
    x: np.ndarray,
    basis: np.ndarray,
    radial: np.ndarray,
    grad_norm: np.ndarray,
) -> tuple:
    """A = -(Hess F - <grad F, x> Id)|_T / |grad_S f| on span(basis), symmetrized.

    x is one point or a stack of points along a leading axis, and basis its
    tangent basis or their stack; radial is <grad F, x> and grad_norm is
    |grad_S f|, each broadcasting against the (..., n - 2, n - 2)
    matrices.  Returns the symmetrized A and its asymmetry max |A - A^T|,
    one per point, which must not exceed 1e-8 at any point.
    """
    Ht = np.swapaxes(basis, -1, -2) @ geo.hessian(x) @ basis - radial * np.eye(basis.shape[-1])
    A = -(Ht) / grad_norm
    At = np.swapaxes(A, -1, -2)
    asym = np.abs(A - At).max(axis=(-2, -1))
    if (asym > 1e-8).any():
        raise PreconditionError(f"shape operator asymmetry {float(np.max(asym))} exceeds 1e-8")
    return 0.5 * (A + At), asym


def principal_curvatures(pt: SurfacePoint) -> np.ndarray:
    return np.linalg.eigvalsh(pt.shape)


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


def parallel_check(pt: SurfacePoint, travel: float) -> ParallelReport:
    """Displace pt by angle ``travel`` along the normal geodesic and compare.

    The displaced surface must show curvatures cot(theta_k - travel) and the
    new level value must equal cos(p (theta_1 - travel)).  The parallel map
    is 2 pi-periodic, so the computation uses travel reduced mod 2 pi, which
    is exact and leaves |travel| <= pi unchanged; the report states travel
    as given.
    """
    angle = math.remainder(travel, 2 * math.pi)
    base = spectrum_at(pt)
    if _focal_distance(angle, base.thetas) < 1e-6:
        raise FocalAngleError(
            f"travel angle {travel} is a focal angle; the parallel map collapses"
        )
    geo = pt.geometry
    x_t = math.cos(angle) * pt.x + math.sin(angle) * pt.xi
    xi_t = -math.sin(angle) * pt.x + math.cos(angle) * pt.xi

    g_t = geo.gradient(x_t)
    end_level = float(g_t @ x_t) / geo.degree
    theta1 = base.thetas[0]
    predicted_level = math.cos(base.p * (theta1 - angle))
    level_ok = abs(end_level - predicted_level) <= 1e-6

    new_pt = _surface_point(geo, x_t, end_level, g_t)
    # keep the transported orientation: where the gradient normal reversed,
    # the shape operator of the transported normal is -A
    shape = -new_pt.shape if new_pt.xi @ xi_t < 0 else new_pt.shape
    measured = np.linalg.eigvalsh(shape)

    predicted = []
    for theta, (_, mult) in zip(base.thetas, base.clusters):
        predicted.extend([1.0 / math.tan(theta - angle)] * mult)
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
        curvatures_ok=max_err <= CURVATURE_TOL,
    )


# ---------------------------------------------------------------------------
# focal collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FocalReport(Report):
    angle: float
    is_focal_angle: bool
    expected_nullity: int
    nullity: int
    singular_values: tuple

    citation = (
        "focal submanifold of codimension m_k + 1: the "
        "parallel map at theta_k loses exactly m_k ranks"
    )

    @property
    def ok(self) -> bool:
        return self.nullity == self.expected_nullity


def _has_gap(sv: np.ndarray) -> bool:
    """Whether the singular values split cleanly at SV_THRESHOLD.

    Either side may be empty; otherwise the smallest value at or above the
    threshold must exceed both the threshold and ten times the largest
    value below it.
    """
    small = sv[sv < SV_THRESHOLD]
    large = sv[sv >= SV_THRESHOLD]
    return (len(small) == 0 or len(large) == 0) or bool(
        np.min(large) > 10 * max(np.max(small), SV_THRESHOLD / 10)
    )


def parallel_map_rank(pt: SurfacePoint, angle: float) -> tuple[int, np.ndarray]:
    """Nullity and singular values of d(x, t) -> cos t x + sin t xi(x).

    The Jacobian is built by central finite differences of the normal field
    over a tangent basis, plus the explicit t-column.  Retries with other
    step sizes when the singular spectrum has no clean gap at the threshold.

    For one step size the 2 (n - 2) points x +- step v, v a tangent basis
    vector, are formed as the C-contiguous rows of one array, projected to
    the sphere and sent through one batched sphere_gradient, which
    evaluates them in chunks (EVAL_CHUNK_PRODUCTS).  Row norms are read by
    _dots, so each normal xi(y) = grad_S f / |grad_S f| at y / |y| is
    bit-identical to the one computed point by point with np.linalg.norm.
    """
    geo = pt.geometry
    tangents = np.ascontiguousarray(pt.basis.T)  # one C-contiguous row per basis vector
    half = len(tangents)
    cos, sin = math.cos(angle), math.sin(angle)
    for step in (FD_STEP, FD_STEP * 10, FD_STEP / 10):
        offsets = step * tangents
        y = np.concatenate([pt.x + offsets, pt.x - offsets])
        y /= np.sqrt(_dots(y, y))
        gs = geo.sphere_gradient(y)
        xi = gs / np.sqrt(_dots(gs, gs))
        dxi = (xi[:half] - xi[half:]) / (2 * step)
        J = np.vstack([cos * tangents + sin * dxi, -sin * pt.x + cos * pt.xi]).T
        sv = np.linalg.svd(J, compute_uv=False)
        if _has_gap(sv):
            return int(np.sum(sv < SV_THRESHOLD)), sv
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

    The seeds converge one at a time, in seed order, and their frames are
    measured as stacks of max(1, EVAL_CHUNK_PRODUCTS // (n (n + 2)))
    points, the entries of one (n, n + 2) QR input each.  When a seed of a
    stack fails to converge or a frame fails its checks, the seeds of that
    stack are sampled again one by one with sample_level, so the error
    raised is the one sample_level raises for the first seed that fails.
    """
    seeds = tuple(base_seed + i for i in range(num_seeds))
    geo = _level_geometry(fam, t)
    n = geo.n_amb
    chunk = max(1, EVAL_CHUNK_PRODUCTS // (n * (n + 2)))
    all_eigs = []
    for start in range(0, num_seeds, chunk):
        stack = seeds[start : start + chunk]
        try:
            x, g, _ = zip(*(_converge(geo, t, seed) for seed in stack))
            shape = _frame(geo, np.array(x), np.array(g))[2]
        except (PreconditionError, SamplingError):
            # every earlier stack passed the same checks, bit for bit
            for seed in stack:
                principal_curvatures(sample_level(fam, t, seed))
            raise
        all_eigs.extend(np.linalg.eigvalsh(shape))

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
