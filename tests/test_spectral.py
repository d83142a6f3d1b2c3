"""Numerical level-set geometry: sampling, spectra, parallel and focal laws."""

import math
from fractions import Fraction

import numpy as np
import pytest
import reference_poly
import reference_spectral as ref

from isopar import cli, spectral
from isopar.clifford import build_generators, build_system
from isopar.division_algebras import AlgebraTag
from isopar.errors import (
    DomainError,
    FocalAngleError,
    InstabilityError,
    PreconditionError,
    SamplingError,
)
from isopar.families import (
    IsoparametricFamily,
    cartan_cubic,
    fkm_family,
    linear_family,
    nomizu_family,
    product_family,
)
from isopar.polyalg import Poly
from isopar.spectral import (
    FocalReport,
    SurfacePoint,
    _focal_distance,
    parallel_map_rank,
    spectrum_at,
)

PRODUCT = product_family(7, 4)
CARTAN_R = cartan_cubic(AlgebraTag.R)
FKM22 = fkm_family(build_system(build_generators(2, 2)))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_product_level_zero():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    assert abs(float(pt.x @ pt.x) - 1.0) < 1e-12
    assert abs(float(pt.x[:4] @ pt.x[:4]) - 0.5) < 1e-10


def test_sample_cartan_r_levels():
    F = reference_poly.ref(CARTAN_R.F)
    for seed in (1, 2, 3):
        pt = spectral.sample_level(CARTAN_R, 0.0, seed=seed)
        assert abs(F.evaluate_float(list(pt.x))) < 1e-12
        assert abs(float(pt.x @ pt.x) - 1.0) < 1e-12


def test_sample_linear_level():
    pt = spectral.sample_level(linear_family(7), 0.5, seed=4)
    assert pt.x[7] == pytest.approx(0.5, abs=1e-12)
    # degree-1 homogeneity gives remaining norm^2 = 1 - t^2 = 0.75
    # (not 1 - t; the discrepancy with the published radius is recorded)
    assert float(pt.x[:7] @ pt.x[:7]) == pytest.approx(0.75, abs=1e-12)


def test_sample_rejects_focal_levels(monkeypatch):
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, 1.0)
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, -1.2)
    with pytest.raises(DomainError):
        spectral.sample_level(PRODUCT, 0.99)
    # LEVEL_GUARD alone bounds the band
    monkeypatch.setattr(spectral, "LEVEL_GUARD", 0.99)
    pt = spectral.sample_level(PRODUCT, 0.97, seed=1)
    assert abs(pt.t - 0.97) < 1e-10


BUILDERS = {
    "fkm(9,1)": lambda: fkm_family(build_system(build_generators(9, 1))),
    "fkm(9,2)": lambda: fkm_family(build_system(build_generators(9, 2))),
    "fkm(2,2)": lambda: FKM22,
    "cartan-O": lambda: cartan_cubic(AlgebraTag.O),
    "cartan-R": lambda: CARTAN_R,
    "nomizu(7)": lambda: nomizu_family(7),
    "product(7,4)": lambda: PRODUCT,
    "linear(5)": lambda: linear_family(5),
}


@pytest.mark.parametrize(
    "name", ["fkm(9,1)", "cartan-O", "nomizu(7)", "product(7,4)", "fkm(2,2)"]
)
def test_sample_level_matches_the_two_table_reference_loop(name):
    # same seed, same start: the Euler read and the closed-form 2 x 2 solve
    # land where the value table and np.linalg.solve landed
    fam = BUILDERS[name]()
    for t in (-0.45, 0.0, 0.2, 0.55):
        pt = spectral.sample_level(fam, t, seed=7)
        old = ref.sample_level(fam, t, seed=7)
        assert np.max(np.abs(pt.x - old.x)) <= 1e-12
        assert abs(pt.t - old.t) <= 1e-12
        new_spec, old_spec = spectral.spectrum_at(pt), spectral.spectrum_at(old)
        assert new_spec.p == old_spec.p
        assert new_spec.multiplicities == old_spec.multiplicities
        eigs, old_eigs = spectral.principal_curvatures(pt), spectral.principal_curvatures(old)
        assert np.max(np.abs(eigs - old_eigs)) <= 1e-10


@pytest.mark.parametrize(
    "name",
    ["fkm(9,1)", "fkm(9,2)", "cartan-O", "cartan-R", "nomizu(7)", "product(7,4)", "linear(5)"],
)
def test_sampled_points_lie_on_the_level_by_the_exact_polynomial(monkeypatch, name):
    # independent witness: the exact F, not the gradient the loop reads F from
    monkeypatch.setattr(spectral, "LEVEL_GUARD", 0.99)
    fam = BUILDERS[name]()
    F = reference_poly.ref(fam.F)
    for t in (-0.99, 0.0, 0.95, 0.99):
        for seed in (1, 2):
            pt = spectral.sample_level(fam, t, seed=seed)
            assert abs(F.evaluate_float(list(pt.x)) - t) <= 1e-12
            assert abs(float(pt.x @ pt.x) - 1.0) <= 1e-12


def _counted_evaluations(monkeypatch, geo):
    """Record (table, x) for every table evaluation: "grad", "hess" or "other"."""
    calls = []
    evaluate = spectral._evaluate

    def counted(table, x, size):
        kind = {id(geo._grad): "grad", id(geo._hess): "hess"}.get(id(table), "other")
        calls.append((kind, x.tobytes()))
        return evaluate(table, x, size)

    monkeypatch.setattr(spectral, "_evaluate", counted)
    return calls


@pytest.mark.parametrize("name", ["fkm(9,1)", "cartan-O", "product(7,4)"])
def test_each_newton_step_evaluates_one_table(monkeypatch, name):
    fam = BUILDERS[name]()
    calls = _counted_evaluations(monkeypatch, spectral.geometry(fam))
    for t in (-0.45, 0.2):
        calls.clear()
        pt = spectral.sample_level(fam, t, seed=5)
        steps = [x for kind, x in calls if kind == "grad"]
        # each iterate is evaluated once, the converged one included, and
        # the frame adds one Hessian at the returned point
        assert len(steps) > 1 and len(set(steps)) == len(steps)
        assert steps[-1] == pt.x.tobytes()
        assert calls[-1] == ("hess", pt.x.tobytes())
        assert len(calls) == len(steps) + 1


@pytest.mark.parametrize("name", list(BUILDERS))  # all have ambient dimension >= 3
def test_a_sample_costs_two_gradient_evaluations(monkeypatch, name):
    # the jump along the normal great circle lands on the level: the start
    # and the landing are the only gradients, and the frame adds one Hessian
    fam = BUILDERS[name]()
    calls = _counted_evaluations(monkeypatch, spectral.geometry(fam))
    for t in (-0.95, -0.6, 0.0, 0.55, 0.95):
        for seed in (1, 2, 3):
            calls.clear()
            pt = spectral.sample_level(fam, t, seed=seed)
            start = np.random.default_rng(seed).normal(size=fam.ambient_dim)
            start /= np.linalg.norm(start)
            assert calls == [
                ("grad", start.tobytes()),
                ("grad", pt.x.tobytes()),
                ("hess", pt.x.tobytes()),
            ]


@pytest.mark.parametrize("scaled", [True, False], ids=["3F", "F+x0^4/10"])
def test_gauss_newton_lands_where_the_great_circle_law_fails(scaled):
    # 3 F reaches |f| > 1, where the jump is skipped or lands off the
    # level, and the quartic term bends the law, so the jump lands off it:
    # the Gauss-Newton steps after the jump still bring x onto the level
    F = FKM22.F
    x0 = Poly.variable(F.num_vars, 0)
    G = F.scale(3) if scaled else F + (x0 * x0 * x0 * x0).scale(Fraction(1, 10))
    fam = IsoparametricFamily(
        name="bent fkm(2,2)", p=4, F=G, expected_multiplicities=None, provenance="test"
    )
    exact = reference_poly.ref(G)
    for t in (-0.4, 0.0, 0.2, 0.5):
        for seed in (1, 2, 3):
            pt = spectral.sample_level(fam, t, seed=seed)
            assert abs(exact.evaluate_float(list(pt.x)) - t) <= 1e-12
            assert abs(float(pt.x @ pt.x) - 1.0) <= 1e-12


def test_parallel_check_evaluates_one_gradient_and_one_hessian(monkeypatch):
    fam = BUILDERS["fkm(9,1)"]()
    pt = spectral.sample_level(fam, 0.2, seed=3)
    calls = _counted_evaluations(monkeypatch, pt.geometry)
    report = spectral.parallel_check(pt, 0.3)
    assert report.ok
    assert [kind for kind, _ in calls] == ["grad", "hess"]
    (_, x_t), (_, hess_x) = calls
    assert x_t == hess_x
    level = reference_poly.ref(fam.F).evaluate_float(list(np.frombuffer(x_t)))
    assert report.end_level == pytest.approx(level, abs=1e-13)


@pytest.mark.parametrize(
    "gradient",
    [lambda x: 4.0 * x, lambda x: np.full_like(x, np.nan)],
    ids=["radial", "nan"],
)
def test_degenerate_steps_end_in_sampling_error(monkeypatch, capsys, gradient):
    # a radial gradient makes J J^T singular with determinant exactly 0, and
    # a NaN gradient makes it NaN: every start is dropped, none raises
    monkeypatch.setattr(spectral.FamilyGeometry, "gradient", lambda self, x: gradient(x))
    with pytest.raises(SamplingError):
        spectral.sample_level(PRODUCT, 0.2, seed=1)
    code = cli.main(["spectrum", "--family", "product", "--n", "7", "--k", "4", "--t", "0.2"])
    assert code == cli.RUNTIME_FAILURE
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: no convergent sample")


# ---------------------------------------------------------------------------
# shape operator
# ---------------------------------------------------------------------------


def test_linear_family_is_umbilic():
    pt = spectral.sample_level(linear_family(7), 0.5, seed=4)
    eigs = spectral.principal_curvatures(pt)
    lam = 0.5 / math.sqrt(0.75)
    assert np.allclose(eigs, lam, atol=1e-9)


def test_product_family_curvatures_at_zero():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    eigs = np.sort(spectral.principal_curvatures(pt))
    assert np.allclose(eigs[:3], -1.0, atol=1e-9)
    assert np.allclose(eigs[3:], 1.0, atol=1e-9)


def test_cartan_r_curvatures_at_zero():
    pt = spectral.sample_level(CARTAN_R, 0.0, seed=2)
    eigs = np.sort(spectral.principal_curvatures(pt))
    expected = [-math.sqrt(3), 0.0, math.sqrt(3)]
    assert np.allclose(eigs, expected, atol=1e-9)


def test_parallel_check_reverses_orientation_past_a_focal_angle():
    # between theta_1 and theta_2 the gradient normal of the displaced point
    # is opposite the transported normal, so parallel_check measures -A there
    pt = spectral.sample_level(FKM22, 0.2, seed=9)
    spec = spectral.spectrum_at(pt)
    travel = spec.thetas[0] + math.pi / (2 * spec.p)
    x_t = math.cos(travel) * pt.x + math.sin(travel) * pt.xi
    xi_t = -math.sin(travel) * pt.x + math.cos(travel) * pt.xi
    geo = pt.geometry
    gs = geo.sphere_gradient(x_t)
    assert gs @ xi_t < -0.99 * np.linalg.norm(gs)
    report = spectral.parallel_check(pt, travel)
    assert report.ok
    assert report.max_curvature_error < 1e-9
    # the spectrum along the gradient normal of the displaced point, negated
    level = reference_poly.ref(FKM22.F).evaluate_float(list(x_t))
    along_gradient = ref.principal_curvatures(ref.Point(geo, x_t, level))
    assert np.allclose(report.measured_curvatures, np.sort(-along_gradient), atol=1e-10)


def test_shape_operator_matches_finite_difference_weingarten():
    # independent oracle: A v = -d xi [v], differentiated numerically
    pt = spectral.sample_level(CARTAN_R, 0.1, seed=11)
    geo = spectral.geometry(CARTAN_R)

    def xi_at(y):
        y = y / np.linalg.norm(y)
        g = geo.sphere_gradient(y)
        return g / np.linalg.norm(g)

    B = pt.basis
    eps = 1e-6
    A_fd = np.zeros_like(pt.shape)
    for j in range(B.shape[1]):
        v = B[:, j]
        dxi = (xi_at(pt.x + eps * v) - xi_at(pt.x - eps * v)) / (2 * eps)
        A_fd[:, j] = -(B.T @ dxi)
    assert np.max(np.abs(A_fd - pt.shape)) < 1e-6


def test_shape_operator_asymmetry_is_tiny():
    pt = spectral.sample_level(FKM22, 0.3, seed=13)
    assert pt.asymmetry <= 1e-8


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_cluster_product_spectrum():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    spec = spectral.spectrum_at(pt)
    assert spec.p == 2
    assert spec.multiplicities == (3, 3)
    assert spec.thetas[1] - spec.thetas[0] == pytest.approx(math.pi / 2, abs=1e-9)


def test_cluster_fkm_pattern():
    pt = spectral.sample_level(FKM22, 0.0, seed=5)
    spec = spectral.spectrum_at(pt)
    assert spec.p == 4
    assert spec.multiplicities in ((2, 1, 2, 1), (1, 2, 1, 2))
    assert sorted(spec.multiplicities) == [1, 1, 2, 2]


def test_cluster_constant_list():
    spec = spectral.cluster_spectrum([1.0] * 6)
    assert spec.p == 1
    assert spec.multiplicities == (6,)


def test_cluster_instability_guard():
    # two groups separated by less than 10x the within-cluster spread
    eigs = [0.0, 0.5e-4, 1.0e-4, 4e-4, 4.5e-4, 5e-4]
    with pytest.raises(InstabilityError):
        spectral.cluster_spectrum(eigs, tol=2e-4)


def test_cluster_empty_rejected():
    with pytest.raises(PreconditionError):
        spectral.cluster_spectrum([])


def test_thetas_lie_in_open_interval():
    pt = spectral.sample_level(FKM22, 0.4, seed=3)
    spec = spectral.spectrum_at(pt)
    assert all(0 < th < math.pi for th in spec.thetas)
    assert list(spec.thetas) == sorted(spec.thetas)


# ---------------------------------------------------------------------------
# Muenzner checks
# ---------------------------------------------------------------------------


def test_munzner_cartan_spacing():
    pt = spectral.sample_level(CARTAN_R, 0.2, seed=17)
    report = spectral.munzner_check(spectral.spectrum_at(pt))
    assert report.ok
    assert report.max_spacing_error < 1e-6


def test_munzner_flags_p5():
    thetas = [0.2 + k * math.pi / 5 for k in range(5)]
    eigs = [1.0 / math.tan(th) for th in thetas]
    spec = spectral.cluster_spectrum(eigs)
    report = spectral.munzner_check(spec)
    assert spec.p == 5
    assert not report.p_allowed
    assert not report.ok


def test_munzner_p2_spacing():
    pt = spectral.sample_level(PRODUCT, 0.3, seed=19)
    spec = spectral.spectrum_at(pt)
    assert spec.thetas[1] - spec.thetas[0] == pytest.approx(math.pi / 2, abs=1e-6)


# ---------------------------------------------------------------------------
# parallel surfaces
# ---------------------------------------------------------------------------


def test_parallel_zero_travel_is_identity():
    pt = spectral.sample_level(PRODUCT, 0.2, seed=21)
    report = spectral.parallel_check(pt, 0.0)
    assert report.ok
    assert report.end_level == pytest.approx(pt.t, abs=1e-12)
    assert report.max_curvature_error < 1e-9


def test_parallel_product_eighth_turn():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    report = spectral.parallel_check(pt, math.pi / 8)
    assert report.ok
    expected = {round(1.0 / math.tan(math.pi / 4 - math.pi / 8), 6),
                round(1.0 / math.tan(3 * math.pi / 4 - math.pi / 8), 6)}
    measured = {round(v, 6) for v in report.measured_curvatures}
    assert expected == measured


def test_parallel_cartan_r_small_travels():
    pt = spectral.sample_level(CARTAN_R, 0.1, seed=23)
    for travel in (-0.2, -0.05, 0.05, 0.15, 0.3):
        report = spectral.parallel_check(pt, travel)
        assert report.ok, f"travel {travel}: err {report.max_curvature_error}"


def test_parallel_rejects_focal_angle():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    theta1 = spectral.spectrum_at(pt).thetas[0]
    with pytest.raises(FocalAngleError):
        spectral.parallel_check(pt, theta1)


# ---------------------------------------------------------------------------
# focal collapse
# ---------------------------------------------------------------------------


def test_focal_product_nullities():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    for k in (0, 1):
        report = spectral.focal_check(pt, k)
        assert report.nullity == 3
        assert report.ok


def test_focal_linear_whole_surface_collapses():
    pt = spectral.sample_level(linear_family(7), 0.3, seed=25)
    report = spectral.focal_check(pt, 0)
    assert report.nullity == 6
    assert report.ok


def test_focal_fkm_nullities_match_multiplicities():
    pt = spectral.sample_level(FKM22, 0.0, seed=5)
    spec = spectral.spectrum_at(pt)
    for k in range(spec.p):
        report = spectral.focal_check(pt, k)
        assert report.nullity == spec.multiplicities[k]


def nonfocal_rank_check(pt: SurfacePoint, angle: float) -> FocalReport:
    """Away from focal angles the parallel map is an immersion (full rank)."""
    spectrum = spectrum_at(pt)
    if _focal_distance(angle, spectrum.thetas) < 1e-3:
        raise DomainError(f"angle {angle} is too close to a focal angle")
    nullity, sv = parallel_map_rank(pt, angle)
    return FocalReport(
        angle=angle,
        is_focal_angle=False,
        expected_nullity=0,  # an immersion off the focal angles
        nullity=nullity,
        singular_values=tuple(float(v) for v in sv),
    )


def test_nonfocal_angles_keep_full_rank():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    report = nonfocal_rank_check(pt, 0.11)
    assert report.nullity == 0
    assert report.ok


def test_focal_index_out_of_range():
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    with pytest.raises(DomainError):
        spectral.focal_check(pt, 5)


@pytest.mark.parametrize("fails", [1, 2])
@pytest.mark.parametrize("name", ["fkm(9,1)", "cartan-O", "nomizu(7)", "product(7,4)"])
def test_retry_steps_match_the_reference_route_bit_for_bit(monkeypatch, name, fails):
    # the gap check refuses the first one or two step sizes; the Jacobian of
    # every step size tried, and the result of the one kept, are the
    # reference route's at that step
    pt = spectral.sample_level(BUILDERS[name](), 0.2, seed=3)
    angle = spectral.spectrum_at(pt).thetas[0]
    has_gap, tried = spectral._has_gap, []

    def refuse_first(sv):
        tried.append(sv)
        return len(tried) > fails and has_gap(sv)

    monkeypatch.setattr(spectral, "_has_gap", refuse_first)
    nullity, sv = spectral.parallel_map_rank(pt, angle)
    steps = (spectral.FD_STEP, spectral.FD_STEP * 10, spectral.FD_STEP / 10)
    assert len(tried) == fails + 1 and tried[-1] is sv
    for step, sv_tried in zip(steps, tried):
        assert sv_tried.tobytes() == ref.parallel_map_rank(pt, angle, steps=(step,))[1].tobytes()
    ref_nullity, ref_sv = ref.parallel_map_rank(pt, angle, steps=steps[fails:])
    assert nullity == ref_nullity
    assert sv.tobytes() == ref_sv.tobytes()


def test_no_step_size_with_a_gap_ends_in_sampling_error(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "_has_gap", lambda sv: False)
    message = "finite-difference Jacobian is ill-conditioned at every step size tried"
    pt = spectral.sample_level(PRODUCT, 0.0, seed=1)
    with pytest.raises(SamplingError) as raised:
        spectral.focal_check(pt, 0)
    assert str(raised.value) == message
    code = cli.main(["focal", "--family", "product", "--n", "7", "--k", "4", "--index", "0"])
    assert code == cli.RUNTIME_FAILURE
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# cross-seed invariance
# ---------------------------------------------------------------------------


def test_spectrum_constant_across_sample_points():
    # the defining property: curvatures do not depend on the sample point
    for fam in (nomizu_family(3), FKM22):
        report = spectral.spectrum_report(fam, 0.1, num_seeds=20)
        assert report.seed_agreement_ok
        assert report.cross_seed_deviation <= 2e-6
        assert report.munzner.ok


def test_spectrum_report_is_deterministic():
    a = spectral.spectrum_report(PRODUCT, 0.2, num_seeds=3)
    b = spectral.spectrum_report(PRODUCT, 0.2, num_seeds=3)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# the frame of a point against the former per-request route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: fkm_family(build_system(build_generators(9, 1))),
        lambda: cartan_cubic(AlgebraTag.O),
        lambda: nomizu_family(7),
        lambda: product_family(7, 4),
    ],
    ids=["fkm(9,1)", "cartan-O", "nomizu(7)", "product(7,4)"],
)
def test_point_frame_matches_the_reference_route_bit_for_bit(build):
    fam = build()
    for t in (0.0, 0.2, -0.45):
        pt = spectral.sample_level(fam, t, seed=3)
        eigs = spectral.principal_curvatures(pt)
        assert np.array_equal(eigs, ref.principal_curvatures(pt))
        spec = spectral.spectrum_at(pt)
        # midway between theta_p - pi and theta_1 the displaced point keeps
        # the transported normal; midway between theta_1 and theta_2 it flips
        half = math.pi / (2 * spec.p)
        for travel, flipped in ((spec.thetas[0] - half, False), (spec.thetas[0] + half, True)):
            measured, flip = ref.parallel_measured(pt, travel)
            assert flip is flipped
            report = spectral.parallel_check(pt, travel)
            assert report.ok
            assert report.measured_curvatures == measured
        for k in range(spec.p):
            sv = spectral.focal_check(pt, k).singular_values
            assert sv == ref.focal_singular_values(pt, k)


# fkm(9,1) lives in R^32: a spectrum measures its frames in stacks of this
# many points, each one (32, 34) QR input
FKM_9_1_FRAMES = spectral.EVAL_CHUNK_PRODUCTS // (32 * 34)


FKM_9_1_REQUESTS = [
    ("focal", "--t", "0.2", "--index", "0"),
    ("parallel", "--t", "0.2", "--travel", "0.3"),
    ("spectrum", "--t", "0.2", "--seeds", "20"),
]


@pytest.mark.parametrize(
    "argv, samples, points, frame_calls, fd_points",
    [
        (FKM_9_1_REQUESTS[0], 1, 1, 1, 60),
        (FKM_9_1_REQUESTS[1], 1, 2, 2, 0),
        (FKM_9_1_REQUESTS[2], 20, 20, math.ceil(20 / FKM_9_1_FRAMES), 0),
    ],
    ids=["focal", "parallel", "spectrum-20"],
)
def test_each_point_evaluates_its_frame_once(
    monkeypatch, capsys, argv, samples, points, frame_calls, fd_points
):
    # a sampled or displaced point gets one Hessian row and one QR matrix,
    # counted in rows, since a spectrum stacks its frames: 20 seeds make
    # ceil(20 / 15) Hessian and QR calls; no gradient is evaluated twice at
    # the same x within a request, counting each row of a batch as one x;
    # a sample costs two gradient rows, a displaced point one, and the
    # focal check's 2 (n - 2) = 60 finite-difference points go to the
    # gradient table in one call, evaluated in chunks, not one by one
    assert 1 < FKM_9_1_FRAMES < 20
    calls = {"gradient": [], "hessian": [], "hessian_calls": 0, "qr": [], "chunks": []}
    gradient, hessian = spectral.FamilyGeometry.gradient, spectral.FamilyGeometry.hessian
    qr, evaluate = np.linalg.qr, spectral._evaluate

    def counted_gradient(self, x):
        calls["gradient"].extend(row.tobytes() for row in np.atleast_2d(x))
        calls["chunks"].append([])  # the gradient-table evaluations of this call
        return gradient(self, x)

    def counted_evaluate(table, x, size):
        if size == 32:  # the gradient table: one output slot per variable
            calls["chunks"][-1].append((len(np.atleast_2d(x)), len(table[1])))
        return evaluate(table, x, size)

    def counted_hessian(self, x):
        calls["hessian"].extend(row.tobytes() for row in np.atleast_2d(x))
        calls["hessian_calls"] += 1
        return hessian(self, x)

    def counted_qr(a, *args, **kwargs):
        calls["qr"].append(len(a.reshape(-1, *a.shape[-2:])))  # matrices in the stack
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(spectral.FamilyGeometry, "gradient", counted_gradient)
    monkeypatch.setattr(spectral.FamilyGeometry, "hessian", counted_hessian)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(spectral, "_evaluate", counted_evaluate)
    code = cli.main([argv[0], "--family", "fkm", "--m", "9", "--k", "1", *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert len(calls["hessian"]) == len(set(calls["hessian"])) == points
    assert calls["hessian_calls"] == frame_calls
    assert sum(calls["qr"]) == points and len(calls["qr"]) == frame_calls
    repeats = len(calls["gradient"]) - len(set(calls["gradient"]))
    assert repeats == 0
    rows = [[size for size, _ in chunks] for chunks in calls["chunks"]]
    displaced = points - samples
    assert sum(map(sum, rows)) == len(calls["gradient"]) == 2 * samples + displaced + fd_points
    batches = [chunks for chunks in rows if sum(chunks) > 1]  # calls with more than one point
    assert sum(map(sum, batches)) == fd_points
    if fd_points:
        table_rows = calls["chunks"][0][0][1]
        per_chunk = spectral.EVAL_CHUNK_PRODUCTS // table_rows
        assert 1 < per_chunk < fd_points
        assert len(batches) == 1 and len(batches[0]) == math.ceil(fd_points / per_chunk)


@pytest.mark.parametrize("argv", FKM_9_1_REQUESTS, ids=["focal", "parallel", "spectrum-20"])
def test_every_table_evaluation_takes_a_stack_of_rows(monkeypatch, capsys, argv):
    # one evaluation path: a point goes to a table as a stack of one row,
    # and a batch as chunks of at most table.chunk rows
    shapes, evaluate = [], spectral._evaluate

    def recorded(table, x, size):
        shapes.append((x.ndim, x.flags.c_contiguous, x.dtype == np.float64, len(x) <= table.chunk))
        return evaluate(table, x, size)

    monkeypatch.setattr(spectral, "_evaluate", recorded)
    code = cli.main([argv[0], "--family", "fkm", "--m", "9", "--k", "1", *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert shapes and set(shapes) == {(2, True, True, True)}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_spectrum_report_eigenvalues_match_sample_level_bit_for_bit(monkeypatch, name):
    # the stacked frames of spectrum_report against one sample_level and
    # one eigvalsh per seed: one seed, one full stack, a full stack plus
    # one, and 20 seeds
    fam = BUILDERS[name]()
    n = fam.ambient_dim
    frames = max(1, spectral.EVAL_CHUNK_PRODUCTS // (n * (n + 2)))
    t, base = 0.2, 40
    eigvalsh, stacks = np.linalg.eigvalsh, []

    def recorded(a):
        stacks.append(eigvalsh(a))
        return stacks[-1]

    for num_seeds in sorted({1, frames, frames + 1, 20}):
        seeds = range(base, base + num_seeds)
        expected = np.array(
            [spectral.principal_curvatures(spectral.sample_level(fam, t, seed=s)) for s in seeds]
        )
        stacks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", recorded)
            report = spectral.spectrum_report(fam, t, num_seeds=num_seeds, base_seed=base)
        assert len(stacks) == math.ceil(num_seeds / frames)
        assert np.concatenate(stacks).tobytes() == expected.tobytes()
        assert report.spectrum.eigenvalues == tuple(sorted(float(v) for v in expected[0]))
        spread = float(np.max(expected.max(axis=0) - expected.min(axis=0)))
        assert report.cross_seed_deviation == spread


@pytest.mark.parametrize(
    "skews, newton_fails, error",
    [
        ({3: 1.0}, 5, PreconditionError),
        ({16: 1.0}, 18, PreconditionError),
        ({5: 1.0}, 3, SamplingError),
        ({3: 1.0, 7: 100.0}, None, PreconditionError),
    ],
    ids=["first-stack", "second-stack", "newton-first", "two-frames"],
)
def test_spectrum_report_raises_the_first_failing_seeds_error(
    monkeypatch, skews, newton_fails, error
):
    # seed base + i of skews gets a Hessian made asymmetric by skews[i], and
    # every start of seed base + newton_fails is refused by the Newton loop;
    # a stack holds 15 seeds, so the failing seeds of a case share one, and
    # the error raised must be the one the per-seed route, sample_level and
    # eigvalsh seed after seed, meets first (in "two-frames" the stack's
    # worst asymmetry is the later seed's)
    fam = BUILDERS["fkm(9,1)"]()
    n, t, base = fam.ambient_dim, 0.2, 100
    failing = [*skews] + ([] if newton_fails is None else [newton_fails])
    assert len({i // FKM_9_1_FRAMES for i in failing}) == 1
    skewed = {
        spectral.sample_level(fam, t, seed=base + i).x.tobytes(): skew for i, skew in skews.items()
    }
    refused = set()
    if newton_fails is not None:
        starts = np.random.default_rng(base + newton_fails).normal(size=(12, n))
        refused = {(x / np.linalg.norm(x)).tobytes() for x in starts}
    hessian, project = spectral.FamilyGeometry.hessian, spectral._project

    def skewed_hessian(self, x):
        H = hessian(self, x)
        for row, h in zip(np.atleast_2d(x), H.reshape(-1, n, n)):
            h[0, 1] += skewed.get(row.tobytes(), 0.0)
        return H

    def refusing_project(geo, x, t):
        return None if x.tobytes() in refused else project(geo, x, t)

    def per_seed():
        for seed in range(base, base + 20):
            spectral.principal_curvatures(spectral.sample_level(fam, t, seed=seed))

    # each failure alone, then both
    cases = [({"hessian": skewed_hessian}, PreconditionError)]
    if refused:
        cases.append(({"_project": refusing_project}, SamplingError))
        cases.append(({"hessian": skewed_hessian, "_project": refusing_project}, error))
    for patches, raised in cases:
        with monkeypatch.context() as patch:
            for name, fn in patches.items():
                patch.setattr(spectral.FamilyGeometry if name == "hessian" else spectral, name, fn)
            with pytest.raises(raised) as expected:
                per_seed()
            with pytest.raises(raised) as measured:
                spectral.spectrum_report(fam, t, num_seeds=20, base_seed=base)
        assert str(measured.value) == str(expected.value)


def test_spectrum_report_samples_again_only_the_failing_stack(monkeypatch):
    # a run where nothing fails never calls sample_level; when the frame of
    # seed base + 17 fails, the second stack (seeds base + 15 .. base + 19)
    # is sampled again, seed by seed, up to the failing seed, whose error
    # is the per-seed route's
    assert FKM_9_1_FRAMES == 15
    fam = BUILDERS["fkm(9,1)"]()
    n, t, base = fam.ambient_dim, 0.2, 100
    expected = spectral.spectrum_report(fam, t, num_seeds=20, base_seed=base)

    def refused(fam, t, seed):
        raise AssertionError(f"sample_level called for seed {seed}")

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "sample_level", refused)
        report = spectral.spectrum_report(fam, t, num_seeds=20, base_seed=base)
    assert report.to_dict() == expected.to_dict()

    skewed = spectral.sample_level(fam, t, seed=base + 17).x.tobytes()
    hessian, sample_level, sampled = spectral.FamilyGeometry.hessian, spectral.sample_level, []

    def skewed_hessian(self, x):
        H = hessian(self, x)
        for row, h in zip(np.atleast_2d(x), H.reshape(-1, n, n)):
            h[0, 1] += 1.0 if row.tobytes() == skewed else 0.0
        return H

    def recorded(fam, t, seed):
        sampled.append(seed)
        return sample_level(fam, t, seed)

    monkeypatch.setattr(spectral.FamilyGeometry, "hessian", skewed_hessian)
    with pytest.raises(PreconditionError) as per_seed:
        for seed in range(base, base + 20):
            spectral.principal_curvatures(spectral.sample_level(fam, t, seed=seed))
    monkeypatch.setattr(spectral, "sample_level", recorded)
    with pytest.raises(PreconditionError) as measured:
        spectral.spectrum_report(fam, t, num_seeds=20, base_seed=base)
    assert sampled == [base + 15, base + 16, base + 17]
    assert str(measured.value) == str(per_seed.value)


# ---------------------------------------------------------------------------
# derivative tables against the exact polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fam",
    [linear_family(7), PRODUCT]
    + [cartan_cubic(tag) for tag in AlgebraTag]
    + [FKM22, nomizu_family(3)],
    ids=lambda fam: fam.name,
)
def test_geometry_tables_match_exact_derivatives(fam):
    geo = spectral.geometry(fam)
    F = reference_poly.ref(fam.F)
    grads = F.gradient()
    n = fam.ambient_dim

    def close(measured, exact):
        return abs(measured - exact) <= 1e-12 * (1 + abs(exact))

    def row_products(table, x, size):
        # one product per row over the whole padded row, as numpy reduces it
        rows = table.columns.T
        return np.bincount(
            table.slots,
            table.coeffs * np.prod(np.append(x, 1.0)[rows], axis=1),
            minlength=size,
        )

    for seed in (1, 2, 3):
        x = np.random.default_rng(seed).normal(size=n)
        x /= np.linalg.norm(x)
        point = [float(v) for v in x]
        g, H = geo.gradient(x), geo.hessian(x)
        # Euler's identity, the only way the package reads F
        assert close(g @ x / fam.p, F.evaluate_float(point))
        for i in range(n):
            assert close(g[i], grads[i].evaluate_float(point))
            for j in range(n):
                assert close(H[i, j], grads[i].differentiate(j).evaluate_float(point))
        # the column products are bit-identical to the row products
        assert np.array_equal(g, row_products(geo._grad, x, n))
        upper = row_products(geo._hess, x, n * n).reshape(n, n)
        assert np.array_equal(H, upper + np.triu(upper, 1).T)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_batched_gradient_rows_match_the_one_point_call_bit_for_bit(monkeypatch, name):
    # B = 1, 2, one full chunk and two chunks plus one point; the
    # one-column tables of linear and product, and fkm(9,2), whose table
    # alone exceeds the chunk bound, included
    geo = spectral.geometry(BUILDERS[name]())
    n, table_rows = geo.n_amb, len(geo._grad[1])
    bound = spectral.EVAL_CHUNK_PRODUCTS
    per_chunk = max(1, bound // table_rows)
    batches, evaluate = [], spectral._evaluate

    def counted(table, x, size):
        if x.ndim == 2:
            batches.append(len(x) * len(table[1]))
        return evaluate(table, x, size)

    monkeypatch.setattr(spectral, "_evaluate", counted)
    rng = np.random.default_rng(11)
    for size in sorted({1, 2, per_chunk, 2 * per_chunk + 1}):
        x = rng.normal(size=(size, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        batches.clear()
        g, gs = geo.gradient(x), geo.sphere_gradient(x)
        assert g.shape == gs.shape == (size, n)
        assert len(batches) == 2 * math.ceil(size / per_chunk)
        assert all(products <= max(bound, table_rows) for products in batches)
        for row, g_row, gs_row in zip(x, g, gs):
            assert g_row.tobytes() == geo.gradient(row).tobytes()
            assert gs_row.tobytes() == geo.sphere_gradient(row).tobytes()


@pytest.mark.parametrize("name", list(BUILDERS))
def test_batched_hessian_matches_the_one_point_call_bit_for_bit(name):
    # B = 1, 2, one full chunk and two chunks plus one point
    geo = spectral.geometry(BUILDERS[name]())
    n, per_chunk = geo.n_amb, geo._hess.chunk
    rng = np.random.default_rng(12)
    for size in sorted({1, 2, per_chunk, 2 * per_chunk + 1}):
        x = rng.normal(size=(size, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        H = geo.hessian(x)
        assert H.shape == (size, n, n)
        for row, h in zip(x, H):
            assert h.tobytes() == geo.hessian(row).tobytes()


@pytest.mark.parametrize("name", list(BUILDERS))
def test_hessian_has_no_negative_zero_and_is_its_transpose_bit_for_bit(name):
    # bincount sums every slot from +0.0, so the mirrored upper triangle
    # carries no -0.0, whatever the signs of zero coordinates
    geo = spectral.geometry(BUILDERS[name]())
    n = geo.n_amb
    rng = np.random.default_rng(14)
    e0 = np.full(n, -0.0)
    e0[0] = 1.0
    signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    signed[: n // 2] = rng.normal(size=n // 2)
    points = [rng.normal(size=n), np.zeros(n), np.full(n, -0.0), e0, signed]
    hessians = [geo.hessian(x) for x in points]
    hessians += list(geo.hessian(rng.normal(size=(3, n))))
    hessians += list(geo.hessian(np.array(points[1:4])))
    for H in hessians:
        assert not np.any(np.signbit(H) & (H == 0.0))
        assert H.tobytes() == np.ascontiguousarray(H.T).tobytes()


@pytest.mark.parametrize("name", list(BUILDERS))
def test_derivatives_are_float64_for_one_point_and_a_batch(name):
    # linear F has no Hessian entries: its table is one zero row, which
    # sums float zeros as every other table does
    # (n,) in gives one result, (B, n) in one result per row
    geo = spectral.geometry(BUILDERS[name]())
    n = geo.n_amb
    x = np.random.default_rng(13).normal(size=(2, n))
    for arg, lead in ((x[0], ()), (x, (2,))):
        assert geo.gradient(arg).dtype == np.float64
        assert geo.hessian(arg).dtype == np.float64
        assert geo.gradient(arg).shape == geo.sphere_gradient(arg).shape == lead + (n,)
        assert geo.hessian(arg).shape == lead + (n, n)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fkm_family(build_system(build_generators(9, 1))),
        lambda: fkm_family(build_system(build_generators(1, 16))),
        lambda: cartan_cubic(AlgebraTag.O),
        lambda: cartan_cubic(AlgebraTag.H),
        lambda: nomizu_family(7),
    ],
    ids=["fkm(9,1)", "fkm(1,16)", "cartan-O", "cartan-H", "nomizu(7)"],
)
def test_table_coefficients_are_the_rounded_exact_coefficients(build):
    # each coefficient is float(c * k) of the exact ScalarQ3 coefficient c
    fam = build()
    grad, hess = [], []
    for mono, c in fam.F.items():
        vs = [v for v, e in enumerate(mono) for _ in range(e)]
        for i in dict.fromkeys(vs):
            di = spectral._drop(vs, i)
            grad.append(float(c * mono[i]))
            for j in dict.fromkeys(di):
                if j >= i:
                    hess.append(float(c * (mono[i] * di.count(j))))
    geo = spectral.FamilyGeometry(fam)
    for table, exact in zip((geo._grad, geo._hess), (grad, hess)):
        assert table.coeffs.tobytes() == np.array(exact).tobytes()
