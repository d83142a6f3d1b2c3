"""Command grammar, exit codes, report determinism."""

import contextlib
import gc
import hashlib
import io
import json
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopar import catalog, cli, errors, families, nurowski, polyalg, spectral
from isopar.clifford import build_generators
from isopar.cli import main
from isopar.division_algebras import AlgebraTag
from isopar.families import cartan_cubic
from isopar.polyalg import Poly
from reference_poly import Poly as RefPoly
from reference_poly import packed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_cm_cartan_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "cm", "--family", "cartan-cubic", "--algebra", "R")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["result"]["grad_identity_ok"] is True
    assert payload["result"]["ok"] is True


def test_verify_cm_fkm(capsys):
    code, out, _ = run(capsys, "verify", "cm", "--family", "fkm", "--m", "2", "--k", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["inferred_m_diff"] == "-1/1"


def test_unknown_family_parameter_usage_error(capsys):
    code, _, err = run(capsys, "verify", "cm", "--family", "fkm", "--m", "1", "--k", "2")
    assert code == 2  # m2 = 0 rejected as a usage error
    assert "m2" in err


def test_missing_family_argument_usage_error(capsys):
    code, _, err = run(capsys, "verify", "cm", "--family", "cartan-cubic")
    assert code == 2
    assert "algebra" in err


def test_bad_dimension_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nurowski", "check", "--dim", "11"])
    assert exc.value.code == 2


def test_nurowski_check_dim5(capsys):
    code, out, _ = run(capsys, "nurowski", "check", "--dim", "5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["condition_3_quadratic"] is True
    # the dim-5 report carries the determinant cross check with its caveat
    cross = result["determinant_cross_check"]
    assert cross["det_matches_expansion"] is False
    assert cross["det_matches_after_x5_negation"] is True
    assert cross["expansion_matches_cartan_r"] is True


def test_catalog_inhom_verdicts(capsys):
    code, out, _ = run(capsys, "catalog", "inhom", "--m1", "5", "--m2", "2")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "inconclusive"
    code, out, _ = run(capsys, "catalog", "inhom", "--m1", "3", "--m2", "4")
    assert json.loads(out)["result"]["verdict"] == "inhomogeneous"


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (("--m1", "4", "--m2", "3", "--degenerate"), "inconclusive"),
        (("--m1", "3", "--m2", "4", "--degenerate"), "inhomogeneous"),
    ],
    ids=["m1-4-degenerate", "m1-3-degenerate"],
)
def test_catalog_inhom_degenerate_reads_m1(capsys, argv, verdict):
    # --m1 is the Clifford m: the degenerate side condition applies at m1 = 4
    code, out, _ = run(capsys, "catalog", "inhom", *argv)
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == verdict


def test_catalog_inhom_takes_no_separate_clifford_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "inhom", "--m1", "3", "--m2", "4", "--m", "4", "--degenerate"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m" in captured.err


@pytest.mark.parametrize("flags", [(), ("--m1", "3"), ("--m2", "4")], ids=["none", "m1", "m2"])
def test_catalog_inhom_needs_both_multiplicities(capsys, flags):
    code, out, err = run(capsys, "catalog", "inhom", *flags)
    assert code == 2
    assert out == ""
    assert err == "error: inhom needs --m1 and --m2\n"


def test_catalog_rank2_flags(capsys):
    code, out, _ = run(capsys, "catalog", "rank2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["self_check_ok"] is True
    assert set(result["flagged"]) == {"su(6)/sp(3)", "e6/f4"}


def test_catalog_su3_orbit(capsys):
    code, out, _ = run(capsys, "catalog", "su3-orbit")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["eigenvalues_exact"] == ["1*sqrt3", "0", "-1*sqrt3"]


def test_spectrum_fails_when_clusters_merge_distinct_curvatures(capsys):
    # a coarse tolerance merges sqrt3, 0 and -sqrt3 into one cluster: p = 1
    # passes Muenzner's restrictions but is not the cubic's p = 3
    argv = ("spectrum", "--family", "cartan-cubic", "--algebra", "R")
    code, out, _ = run(capsys, *argv, "--cluster-tol", "10")
    result = json.loads(out)["result"]
    assert result["spectrum"]["p"] == 1 and result["munzner"]["ok"] is True
    assert code == cli.VERIFICATION_FAILURE
    assert run(capsys, *argv)[0] == 0


def test_spectrum_report_deterministic(capsys):
    args = ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--t", "0.2", "--seeds", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports for identical configs


def test_family_build_poly_text_round_trip(capsys):
    code, out, _ = run(capsys, "family", "build", "--family", "product", "--n", "3", "--k", "2")
    assert code == 0
    header, *term_lines = out.splitlines()
    meta = json.loads(header)
    assert meta["ambient_dim"] == 4
    poly = packed(RefPoly.loads("\n".join(term_lines)))
    assert poly.num_terms() == meta["num_terms"]
    assert poly.euler_check(meta["p"])


def test_family_build_json_format(capsys):
    code, out, _ = run(
        capsys, "family", "build", "--family", "cartan-cubic", "--algebra", "R",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    poly = packed(RefPoly.loads("\n".join(result["terms"])))
    assert poly.euler_check(3)


def test_clifford_build_csv(capsys):
    code, out, _ = run(capsys, "clifford", "build", "--m", "2", "--k", "1", "--what", "system")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# m=2 k=1")
    matrix_rows = [l for l in lines if not l.startswith("#")]
    assert len(matrix_rows) == 3 * 4  # three 4x4 matrices
    for row in matrix_rows:
        assert all(tok in ("-1", "0", "1") for tok in row.split(","))


@pytest.mark.parametrize(
    "m, k, header",
    [(3, 2, "# m=3 k=2 l=8 what=generators"), (9, 1, "# m=9 k=1 l=16 what=generators")],
)
def test_clifford_build_generators_csv(capsys, m, k, header):
    argv = ("clifford", "build", "--m", str(m), "--k", str(k), "--what", "generators")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = [header]
    for i, E in enumerate(build_generators(m, k).mats, start=1):
        lines += [f"# E{i}", *(",".join(map(str, row)) for row in E.rows())]
    assert out == "\n".join(lines) + "\n"


def test_parallel_command(capsys):
    code, out, _ = run(
        capsys, "parallel", "--family", "product", "--n", "7", "--k", "4",
        "--t", "0.0", "--travel", "0.3",
    )
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


@pytest.mark.parametrize(
    "family",
    [
        ("--family", "cartan-cubic", "--algebra", "R"),
        ("--family", "fkm", "--m", "2", "--k", "2", "--t", "0.2"),
    ],
    ids=["cartan-R", "fkm(2,2)"],
)
def test_parallel_large_travel_is_reduced_mod_two_pi(capsys, family):
    # cos(p (theta_1 - 1e9)) and cot(theta_k - 1e9) lose their digits
    # unless the travel is first reduced by the period 2 pi of the map
    code, out, _ = run(capsys, "parallel", *family, "--travel", "1e9")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["ok"] is True
    assert result["travel"] == 1e9
    assert result["max_curvature_error"] < 1e-12


def test_focal_command(capsys):
    code, out, _ = run(
        capsys, "focal", "--family", "product", "--n", "7", "--k", "4",
        "--t", "0.0", "--index", "0",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["nullity"] == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "catalog", "inhom", "--m1", "3", "--m2", "4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["verdict"] == "inhomogeneous"


def test_spectrum_rejects_seed_count_below_one(capsys):
    for seeds in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--family", "product", "--n", "7", "--k", "4", "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err


def test_seed_count_cap_is_accepted():
    argv = ["spectrum", "--family", "linear", "--n", "3", "--seeds", str(cli.MAX_SEEDS)]
    assert cli._PARSER.parse_args(argv).seeds == cli.MAX_SEEDS


def test_runtime_failure_exits_three(capsys):
    # pi/4 is a focal travel angle of product(7,4) at t = 0
    code, out, err = run(
        capsys, "parallel", "--family", "product", "--n", "7", "--k", "4",
        "--travel", "0.7853981633974483",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "focal" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--seed", "-1"),
        ("parallel", "--family", "product", "--n", "7", "--k", "4", "--travel", "0.3", "--seed", "-1"),
        ("focal", "--family", "product", "--n", "7", "--k", "4", "--index", "0", "--seed", "-1"),
        ("parallel", "--family", "product", "--n", "7", "--k", "4", "--travel", "nan"),
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--cluster-tol", "-1"),
        ("catalog", "inhom", "--m1", "3", "--m2", "4", "--m", "-5"),
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--seeds", "100000000"),
    ],
    ids=[
        "spectrum-seed", "parallel-seed", "focal-seed", "travel", "cluster-tol", "inhom-m",
        "spectrum-seeds-1e8",
    ],
)
def test_out_of_range_numbers_are_parser_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--seed", "abc"),
        ("parallel", "--family", "product", "--n", "7", "--k", "4", "--travel", "x"),
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--cluster-tol", "x"),
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--seeds", "x"),
    ],
    ids=["seed", "travel", "cluster-tol", "seeds"],
)
def test_non_numeric_text_is_a_parser_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected " in captured.err and repr(argv[-1]) in captured.err


_BASES = (errors.UsageError, errors.RuntimeFailure)


def test_every_error_class_derives_from_exactly_one_base():
    classes = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception) and cls not in _BASES
    ]
    assert classes
    for cls in classes:
        assert sum(issubclass(cls, base) for base in _BASES) == 1, cls.__name__


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.PreconditionError, 2),
        (errors.FocalAngleError, 3),
        (type("FutureUsageError", (errors.UsageError,), {}), 2),
        (type("FutureRuntimeFailure", (errors.RuntimeFailure,), {}), 3),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_exit_code_comes_from_the_error_base(monkeypatch, capsys, error, code):
    def failing():
        raise error("orbit unavailable")

    monkeypatch.setattr(catalog, "su3_orbit_spectrum", failing)
    assert run(capsys, "catalog", "su3-orbit") == (code, "", "error: orbit unavailable\n")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "family", "build", "--family", "linear", "--n", "3", "-o", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--family", "linear", "--n", "1"),
        ("parallel", "--family", "linear", "--n", "1", "--travel", "0.3"),
        ("focal", "--family", "linear", "--n", "1", "--index", "0"),
        ("spectrum", "--family", "product", "--n", "1", "--k", "1"),
        ("parallel", "--family", "product", "--n", "1", "--k", "1", "--travel", "0.3"),
        ("focal", "--family", "product", "--n", "1", "--k", "1", "--index", "0"),
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_level_sets_in_circle_are_usage_errors(capsys, argv):
    # level sets in S^1 are points, so there is no shape operator to measure
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "S^1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cm", "--family", "product", "--n", "3", "--k", "1"),
        ("verify", "cm", "--family", "product", "--n", "3", "--k", "3"),
        ("spectrum", "--family", "product", "--n", "3", "--k", "1"),
        ("spectrum", "--family", "product", "--n", "3", "--k", "3"),
        ("parallel", "--family", "product", "--n", "3", "--k", "1", "--travel", "0"),
        ("parallel", "--family", "product", "--n", "3", "--k", "3", "--travel", "0"),
    ],
    ids=["verify-k1", "verify-k3", "spectrum-k1", "spectrum-k3", "parallel-k1", "parallel-k3"],
)
def test_product_with_a_zero_multiplicity_is_usage_error(capsys, argv):
    # k = 1 or k = n declares a multiplicity 0: the levels are two round spheres
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "multiplicity" in err and "= 0" in err


# sha256 of the full stdout, recorded before the reports shared one renderer;
# the nurowski --dim 8, 14 and 26 digests before the conditions were decided
# through lap F and |grad F|^2 - 9 r^4
PINNED_STDOUT = [
    (("catalog", "rank2"), "206c753ab288a9a373f3bddd46a505932b8f6e1e358d2358097f51def9f65500"),
    (("catalog", "fkm-table"), "7232ac8cf3f639a8196b2929d8194aa6385bf34b7ef81952f5c0bc13f2b5701e"),
    (
        ("catalog", "inhom", "--m1", "3", "--m2", "4"),
        "da9e838440c8ff5aee0440ba5245d7b6956dce9a84a9326c4b9c834611d4e73e",
    ),
    (
        ("clifford", "build", "--m", "3", "--k", "2"),
        "657cc275b4812ff924a642459029765dc8edac5722f19edf227a25da3a5352bb",
    ),
    (
        ("family", "build", "--family", "product", "--n", "7", "--k", "4"),
        "40add647b022cb526e48fb11db4c85245fe4b9d5c84fd09cd7187ea9a4c6b076",
    ),
    (
        ("family", "build", "--family", "nomizu", "--n", "4"),
        "ca5113ef0296e0a78794f06546829c2dcb0f75cd08acb7fc5e5d4ba959844e5e",
    ),
    (
        ("nurowski", "check", "--dim", "5"),
        "5c6a2f1c583e733ea24d4d542f66c106922bdca726136dd92d9bfd2e28eac7e8",
    ),
    (
        ("nurowski", "check", "--dim", "8"),
        "b2a20556599207cff3b8a6dc8d85168bea5187cde3ccb1254235817060cdfcc7",
    ),
    (
        ("nurowski", "check", "--dim", "14"),
        "4b33465821c7a289cb0e779ef5a9e6edaaa27d9d34f3840ce2c4331c7c928f20",
    ),
    (
        ("nurowski", "check", "--dim", "26"),
        "875f990be765c8246f2d3d1cfdf58d479321b6dcecf265ac67dee22a9017fd5f",
    ),
    (
        ("verify", "cm", "--family", "fkm", "--m", "2", "--k", "2"),
        "d19b2787cd663148a46a4a4a27a0bb1168f70b75549624312a37355499f1f5e0",
    ),
    (
        ("verify", "cm", "--family", "nomizu", "--n", "4"),
        "d64481b4fd750434102e842d11556a424dea74e4be8f30fa0dc507add3cec3dd",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=lambda v: " ".join(v)[:40])
def test_exact_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "build", "--family", "product", "--n", "7", "--k", "4"),
        ("clifford", "build", "--m", "3", "--k", "2"),
        ("verify", "cm", "--family", "cartan-cubic", "--algebra", "R"),
        ("nurowski", "check", "--dim", "5"),
        ("catalog", "su3-orbit"),
        ("focal", "--family", "product", "--n", "7", "--k", "4", "--index", "1"),
    ],
    ids=["poly-text", "clifford-csv", "json-report", "nurowski", "catalog", "focal"],
)
def test_output_file_holds_stdout_bytes(tmp_path, capsys, argv):
    _, out, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    code, file_out, _ = run(capsys, *argv, "--output", str(target))
    assert code == 0
    assert file_out == ""
    assert target.read_bytes() == out.encode()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

FOCAL = ("focal", "--family", "product", "--n", "7", "--k", "4", "--index", "1", "--seed", "3")


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "make_parser", refuse)
    code, out, _ = run(capsys, "catalog", "su3-orbit")
    assert code == 0
    assert json.loads(out)["command"] == "catalog su3-orbit"


def test_output_option_does_not_carry_over(tmp_path, capsys):
    argv = ("catalog", "inhom", "--m1", "3", "--m2", "4")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--output", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == target.read_bytes()


def test_usage_error_then_valid_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--family", "product", "--n", "7", "--k", "4", "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "catalog", "inhom", "--m1", "5", "--m2", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["verdict"] == "inconclusive"


def test_help_then_repeated_focal_runs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--cluster-tol" in capsys.readouterr().out
    first = run(capsys, *FOCAL)
    second = run(capsys, *FOCAL)
    assert first[0] == 0 and first[2] == ""
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--family", "product", "--n", "7", "--k", "4", "--t", "0.97"),
        ("parallel", "--family", "product", "--n", "7", "--k", "4", "--t", "-0.96",
         "--travel", "0.3"),
        ("focal", "--family", "product", "--n", "7", "--k", "4", "--t", "0.99",
         "--index", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_focal_guard_band_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "guard band" in err and "0.95" in err
    assert "allow_extreme" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("clifford", "build", "--m", "33"),
        ("verify", "cm", "--family", "fkm", "--m", "1", "--k", "257"),
        ("clifford", "build", "--m", "100000000"),
    ],
    ids=["clifford-m33", "fkm-k257", "clifford-m1e8"],
)
def test_clifford_size_above_cap_is_usage_error(capsys, argv):
    # l = k delta(m) above 256 is refused before any matrix is built
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cm", "--family", "product", "--n", "100000", "--k", "3"),
        ("spectrum", "--family", "linear", "--n", "512"),
        ("family", "build", "--family", "nomizu", "--n", "256"),
    ],
    ids=["product-n1e5", "linear-n512", "nomizu-n256"],
)
def test_ambient_dimension_above_cap_is_usage_error(capsys, argv):
    # each factory checks its ambient dimension before it builds anything
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"R^{families.MAX_AMBIENT_DIM}" in err


# one small size of every --family row
REGISTRY_SIZES = {
    "linear": (5,),
    "product": (7, 4),
    "cartan-cubic": ("R",),
    "fkm": (2, 2),
    "nomizu": (4,),
}


def test_every_registry_family_reads_its_ambient_dim_off_f():
    assert set(REGISTRY_SIZES) == set(cli.FAMILIES)
    for name, values in REGISTRY_SIZES.items():
        fam = cli.FAMILIES[name][1](*values)
        assert fam.ambient_dim == fam.F.num_vars
        assert fam.to_dict()["ambient_dim"] == fam.ambient_dim


def test_ambient_dimension_at_cap_is_built(capsys):
    code, out, _ = run(capsys, "family", "build", "--family", "linear", "--n", "511")
    assert code == 0
    assert json.loads(out.splitlines()[0])["ambient_dim"] == families.MAX_AMBIENT_DIM


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "cm", "--family", "fkm", "--m", "1", "--k", "128"),
        ("verify", "cm", "--family", "fkm", "--m", "9", "--k", "4"),
    ],
    ids=["fkm-1-128", "fkm-9-4"],
)
def test_residual_above_pair_budget_is_usage_error(monkeypatch, capsys, argv):
    # the pair count is predicted before any product of |grad F|^2 is formed
    def refuse(pairs):
        raise AssertionError(f"a residual of {pairs} term pairs was started")

    monkeypatch.setattr(polyalg, "_class_count", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_RESIDUAL_PAIRS = {polyalg.MAX_RESIDUAL_PAIRS}" in err
    assert ("18825216" if argv[-1] == "128" else "24880128") in err


# ---------------------------------------------------------------------------
# one family per argument set
# ---------------------------------------------------------------------------

NOMIZU = ("--family", "nomizu", "--n", "4")


def family_args(*argv):
    return cli._PARSER.parse_args(["spectrum", *argv])


@pytest.fixture
def counted(monkeypatch):
    """An empty family memo and geometry cache; counts of nomizu_family
    builds, FamilyGeometry compiles and Poly.__eq__ calls."""
    counts = {"builds": 0, "compiles": 0, "compares": 0}
    build, compile_geometry, equal = cli.nomizu_family, spectral.FamilyGeometry, Poly.__eq__

    def counting_build(n):
        counts["builds"] += 1
        return build(n)

    class CountingGeometry(compile_geometry):
        def __init__(self, fam):
            counts["compiles"] += 1
            super().__init__(fam)

    def counting_equal(self, other):
        counts["compares"] += 1
        return equal(self, other)

    cli._built_family.cache_clear()
    monkeypatch.setattr(cli, "nomizu_family", counting_build)
    monkeypatch.setattr(spectral, "FamilyGeometry", CountingGeometry)
    monkeypatch.setattr(spectral, "_geometry_cache", weakref.WeakKeyDictionary())
    monkeypatch.setattr(Poly, "__eq__", counting_equal)
    yield counts
    cli._built_family.cache_clear()


def test_repeated_requests_build_and_compile_once(capsys, counted):
    argvs = [
        ("focal", *NOMIZU, "--index", "1"),
        ("parallel", *NOMIZU, "--travel", "0.3"),
        ("spectrum", *NOMIZU, "--seeds", "2"),
    ]
    first = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert counted == {"builds": 1, "compiles": 1, "compares": 0}
    assert [run(capsys, *argv) for argv in argvs] == first
    assert counted == {"builds": 1, "compiles": 1, "compares": 0}
    assert cli.build_family(family_args(*NOMIZU)) is cli.build_family(family_args(*NOMIZU))


def test_factory_error_is_not_remembered(capsys, counted):
    argv = ("spectrum", "--family", "nomizu", "--n", "1")
    first = run(capsys, *argv)
    assert first[0] == 2 and first[2].startswith("error: ")
    assert run(capsys, *argv) == first
    assert counted["builds"] == 2
    assert cli._built_family.cache_info().currsize == 0


def test_memo_holds_at_most_its_bound(counted):
    for n in range(2, cli.FAMILY_MEMO_SIZE + 6):
        cli.build_family(family_args("--family", "linear", "--n", str(n)))
        assert cli._built_family.cache_info().currsize <= cli.FAMILY_MEMO_SIZE
    assert cli._built_family.cache_info().currsize == cli.FAMILY_MEMO_SIZE


def test_evicted_family_releases_its_geometry(counted):
    fam = cli.build_family(family_args(*NOMIZU))
    spectral.sample_level(fam, 0.0)
    assert len(spectral._geometry_cache) == 1
    released = weakref.ref(fam)
    del fam
    for n in range(2, cli.FAMILY_MEMO_SIZE + 2):
        cli.build_family(family_args("--family", "linear", "--n", str(n)))
    gc.collect()
    assert released() is None
    assert len(spectral._geometry_cache) == 0


def test_benchmark_warm_up_fills_what_requests_hit(capsys, counted):
    # perfbench/run.py warms up with exactly these calls before it times requests
    parser = cli.make_parser()
    family = cli.build_family(parser.parse_args(["spectrum", *NOMIZU]))
    cli.spectral.sample_level(family, 0.0)
    assert counted == {"builds": 1, "compiles": 1, "compares": 0}
    for argv in (("focal", *NOMIZU, "--index", "0"), ("parallel", *NOMIZU, "--travel", "0.3")):
        assert run(capsys, *argv)[0] == 0
    assert counted == {"builds": 1, "compiles": 1, "compares": 0}


EXACT_CUBIC = [
    *(("verify", "cm", "--family", "cartan-cubic", "--algebra", a) for a in "RCHO"),
    *(("nurowski", "check", "--dim", str(n)) for n in (5, 8, 14, 26)),
    ("family", "build", "--family", "cartan-cubic", "--algebra", "O", "--format", "json"),
]


def test_nurowski_check_shares_the_registry_family(monkeypatch, capsys):
    builds, checks = [], []
    build, check = cli.cartan_cubic, cli.check_conditions

    def counting_build(tag):
        builds.append(tag)
        return build(tag)

    def counting_check(F):
        checks.append(F.num_vars)
        return check(F)

    cli._built_family.cache_clear()
    # every binding a cubic build can go through, so a route around the memo
    # counts too; the dimension-5 cross check is in families
    monkeypatch.setattr(cli, "cartan_cubic", counting_build)
    monkeypatch.setattr(nurowski, "cartan_cubic", counting_build)
    monkeypatch.setattr(families, "cartan_cubic", counting_build)
    monkeypatch.setattr(cli, "check_conditions", counting_check)
    argvs = [
        ("verify", "cm", "--family", "cartan-cubic", "--algebra", "O"),
        ("nurowski", "check", "--dim", "26"),
        ("nurowski", "check", "--dim", "26"),
        ("family", "build", "--family", "cartan-cubic", "--algebra", "O"),
        ("nurowski", "check", "--dim", "5"),
        ("nurowski", "check", "--dim", "5"),
    ]
    try:
        assert [run(capsys, *argv)[0] for argv in argvs] == [0] * 6
    finally:
        cli._built_family.cache_clear()
    assert builds == [AlgebraTag.O, AlgebraTag.R]
    assert checks == [26, 26, 5, 5]  # the conditions are decided on every request


def test_exact_cubic_requests_print_the_same_bytes_in_either_order(capsys):
    # verify cm and nurowski check read one memo family: no report may change its F
    cli._built_family.cache_clear()
    forward = [run(capsys, *argv) for argv in EXACT_CUBIC]
    backward = [run(capsys, *argv) for argv in reversed(EXACT_CUBIC)][::-1]
    assert [code for code, _, _ in forward] == [0] * len(EXACT_CUBIC)
    assert backward == forward
    assert cli._built_family("cartan-cubic", ("O",)).F == cartan_cubic(AlgebraTag.O).F


# Every input ends in a report or a documented exit code, never a traceback:
# argv drawn over the whole grammar, at sizes inside, at and far past the caps.
_SIZE = st.sampled_from(["-3", "-2", "-1", "0", "1", "2", "3", str(10**20)])
_FAMILY = st.one_of(
    st.builds(lambda n: ["--family", "linear", "--n", n], _SIZE),
    st.builds(lambda n, k: ["--family", "product", "--n", n, "--k", k], _SIZE, _SIZE),
    st.builds(lambda a: ["--family", "cartan-cubic", "--algebra", a], st.sampled_from("RCHOX")),
    st.builds(lambda m, k: ["--family", "fkm", "--m", m, "--k", k], _SIZE, _SIZE),
    st.builds(lambda n: ["--family", "nomizu", "--n", n], _SIZE),
)
_LEVEL = st.sampled_from(["nan", "inf", "-inf", "1e308", "0.97", "0.3"]).map(lambda t: ["--t", t])
_ODD = st.sampled_from(["-1", "0", "1", "2", "3", "7", str(10**20)])
_ARGV = st.one_of(
    st.builds(lambda f: ["family", "build", *f], _FAMILY),
    st.builds(lambda f: ["verify", "cm", *f], _FAMILY),
    st.builds(lambda f, t: ["spectrum", *f, *t], _FAMILY, _LEVEL),
    st.builds(lambda f, t: ["parallel", *f, *t, "--travel", "0.3"], _FAMILY, _LEVEL),
    st.builds(
        lambda f, t, i: ["focal", *f, *t, "--index", i],
        _FAMILY, _LEVEL, st.sampled_from(["-1", "0", "1", str(10**20)]),
    ),
    st.builds(lambda d: ["nurowski", "check", "--dim", d], st.sampled_from(["5", "7", "8"])),
    st.builds(
        lambda m, k: ["clifford", "build", "--m", str(m), "--k", str(k)],
        st.integers(-2, 33), st.integers(-2, 3),
    ),
    st.builds(
        lambda table, m1, m2: ["catalog", table, "--m1", m1, "--m2", m2],
        st.sampled_from(["rank2", "fkm-table", "inhom", "su3-orbit"]), _ODD, _ODD,
    ),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ARGV)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses before a handler runs
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert time.perf_counter() - start < 2.0, argv
