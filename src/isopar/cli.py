"""Command line interface and JSON report emission.

Subcommands:

  family build      emit a family polynomial (JSON metadata header plus the
                    one-term-per-line text serialization)
  verify cm         run the exact Cartan-Muenzner identity checks
  spectrum          sample a level set and report the clustered spectrum
  parallel          verify the parallel-surface curvature law
  focal             verify the focal rank collapse at a curvature angle
  nurowski check    verify conditions (1)-(3) in dimension 5, 8, 14 or 26
  clifford build    emit Clifford generators/system matrices as integer CSV
  catalog ...       rank2 | fkm-table | inhom | su3-orbit

Reports are JSON documents with a schema_version field and are byte
identical for identical invocations (fixed default seed, sorted keys, no
timestamps).  Exit codes: 0 all requested verifications passed, 1 a
verification failed, 2 usage error, 3 a numerical procedure failed at run
time (sampling did not converge, ambiguous clustering, a focal travel
angle, a construction that failed its own relations).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog as cat
from . import spectral
from .clifford import build_generators, build_system, validate_system
from .cm_verifier import verify_cm
from .division_algebras import AlgebraTag
from .errors import (
    ConstructionError,
    DomainError,
    FocalAngleError,
    InstabilityError,
    PreconditionError,
    SamplingError,
    StructureError,
)
from .families import (
    IsoparametricFamily,
    cartan_cubic,
    det_cubic_cross_check,
    fkm_family,
    linear_family,
    nomizu_family,
    nurowski_det_cubic,
    product_family,
)
from .nurowski import check_conditions, upsilon_for_dimension

SCHEMA_VERSION = 1
USAGE_ERROR = 2
VERIFICATION_FAILURE = 1
RUNTIME_FAILURE = 3


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, result: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "result": result}


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


FAMILY_CHOICES = ("linear", "product", "cartan-cubic", "fkm", "nomizu")


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    parser.add_argument("--n", type=int, help="sphere dimension (linear/product) or block size (nomizu)")
    parser.add_argument("--k", type=int, help="split index (product) or number of irreducible blocks (fkm)")
    parser.add_argument("--algebra", choices=[t.name for t in AlgebraTag], help="R, C, H or O (cartan-cubic)")
    parser.add_argument("--m", type=int, help="Clifford system size parameter (fkm)")


def build_family(args) -> IsoparametricFamily:
    if args.family == "linear":
        if args.n is None:
            raise DomainError("linear family needs --n")
        return linear_family(args.n)
    if args.family == "product":
        if args.n is None or args.k is None:
            raise DomainError("product family needs --n and --k")
        return product_family(args.n, args.k)
    if args.family == "cartan-cubic":
        if not args.algebra:
            raise DomainError("cartan-cubic needs --algebra R|C|H|O")
        return cartan_cubic(AlgebraTag[args.algebra])
    if args.family == "fkm":
        if args.m is None or args.k is None:
            raise DomainError("fkm needs --m and --k")
        return fkm_family(build_system(build_generators(args.m, args.k)))
    if args.family == "nomizu":
        if args.n is None:
            raise DomainError("nomizu needs --n")
        return nomizu_family(args.n)
    raise DomainError(f"unknown family {args.family}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_family_build(args) -> int:
    fam = build_family(args)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "name": fam.name,
        "p": fam.p,
        "ambient_dim": fam.ambient_dim,
        "expected_multiplicities": list(fam.expected_multiplicities)
        if fam.expected_multiplicities
        else None,
        "provenance": fam.provenance,
        "num_terms": fam.F.num_terms(),
    }
    if args.format == "json":
        meta["terms"] = fam.F.dumps().splitlines()
        _emit(_report("family build", meta), args.output)
    else:
        text = json.dumps(meta, sort_keys=True) + "\n" + fam.F.dumps() + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_verify_cm(args) -> int:
    fam = build_family(args)
    report = verify_cm(fam)
    payload = _report("verify cm", report.to_dict())
    if args.dump_poly and not report.ok:
        payload["result"]["grad_residual"] = report.grad_residual.dumps().splitlines()
        payload["result"]["laplace_residual"] = (
            report.laplace_residual.dumps().splitlines()
        )
    _emit(payload, args.output)
    return 0 if report.ok else VERIFICATION_FAILURE


def cmd_spectrum(args) -> int:
    fam = build_family(args)
    report = spectral.spectrum_report(
        fam,
        args.t,
        num_seeds=args.seeds,
        base_seed=args.seed,
        cluster_tol=args.cluster_tol,
    )
    _emit(_report("spectrum", report.to_dict()), args.output)
    ok = report.seed_agreement_ok and report.munzner.ok
    return 0 if ok else VERIFICATION_FAILURE


def cmd_parallel(args) -> int:
    fam = build_family(args)
    pt = spectral.sample_level(fam, args.t, seed=args.seed)
    report = spectral.parallel_check(pt, args.travel)
    _emit(_report("parallel", report.to_dict()), args.output)
    return 0 if report.ok else VERIFICATION_FAILURE


def cmd_focal(args) -> int:
    fam = build_family(args)
    pt = spectral.sample_level(fam, args.t, seed=args.seed)
    report = spectral.focal_check(pt, args.index)
    _emit(_report("focal", report.to_dict()), args.output)
    return 0 if report.ok else VERIFICATION_FAILURE


def cmd_nurowski_check(args) -> int:
    tensor = upsilon_for_dimension(args.dim)
    report = check_conditions(tensor)
    result = report.to_dict()
    if args.dim == 5:
        cross = det_cubic_cross_check()
        result["determinant_cross_check"] = {
            "det_matches_expansion": cross.det_matches_expansion,
            "det_matches_after_x5_negation": cross.det_matches_after_x5_negation,
            "expansion_matches_cartan_r": cross.expansion_matches_cartan_r,
            "note": cross.note,
        }
    _emit(_report("nurowski check", result), args.output)
    return 0 if report.ok else VERIFICATION_FAILURE


def cmd_clifford_build(args) -> int:
    gens = build_generators(args.m, args.k)
    if args.what == "system":
        system = build_system(gens)
        mats = list(system.mats)
        labels = [f"P{i}" for i in range(len(mats))]
        ok = validate_system(system).ok
    else:
        mats = list(gens.mats)
        labels = [f"E{i + 1}" for i in range(len(mats))]
        ok = True
    lines = [f"# m={args.m} k={args.k} l={gens.l} what={args.what}"]
    for label, M in zip(labels, mats):
        lines.append(f"# {label}")
        for row in np.asarray(M):
            lines.append(",".join(str(int(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else VERIFICATION_FAILURE


def cmd_catalog(args) -> int:
    if args.table == "rank2":
        check = cat.rank2_self_check()
        rows = [
            {
                "g": r.g,
                "h": r.h,
                "dim_M": r.dim_M,
                "p": r.p,
                "multiplicities": r.multiplicities,
                "printed_inconsistent": r.printed_inconsistent,
                "note": r.note,
            }
            for r in cat.rank2_table()
        ]
        result = {
            "rows": rows,
            "self_check_ok": check.ok,
            "flagged": [f"{r.g}/{r.h}" for r in check.flagged_rows],
        }
        _emit(_report("catalog rank2", result), args.output)
        return 0 if check.ok else VERIFICATION_FAILURE
    if args.table == "fkm-table":
        check = cat.printed_fkm_check()
        entries = [
            {"m": e.m, "k": e.k, "delta": e.delta_m, "pair": list(e.pair) if e.pair else None}
            for e in cat.fkm_table()
        ]
        result = {
            "entries": entries,
            "printed_matches": check.matches,
            "printed_mismatches": [
                {"k": k, "m": m, "printed": list(p), "formula": list(f)}
                for (k, m), p, f in check.mismatches
            ],
            "ok_except_flagged": check.ok_except_flagged,
        }
        _emit(_report("catalog fkm-table", result), args.output)
        return 0 if check.ok_except_flagged else VERIFICATION_FAILURE
    if args.table == "inhom":
        if args.m1 is None or args.m2 is None:
            raise DomainError("inhom needs --m1 and --m2")
        verdict = cat.inhomogeneity_predicate(
            args.m1, args.m2, m=args.m, degenerate=args.degenerate
        )
        _emit(_report("catalog inhom", verdict.to_dict()), args.output)
        return 0
    if args.table == "su3-orbit":
        report = cat.su3_orbit_spectrum()
        _emit(_report("catalog su3-orbit", report.to_dict()), args.output)
        return 0
    raise DomainError(f"unknown catalog table {args.table}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isopar",
        description="isoparametric hypersurface families: exact identities and spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="family polynomial factories")
    family_sub = p_family.add_subparsers(dest="family_command", required=True)
    p_build = family_sub.add_parser("build", help="emit a family polynomial")
    _add_family_args(p_build)
    p_build.add_argument("--format", choices=("poly-text", "json"), default="poly-text")
    p_build.add_argument("--output", "-o")
    p_build.set_defaults(func=cmd_family_build)

    p_verify = sub.add_parser("verify", help="exact identity verification")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_cm = verify_sub.add_parser("cm", help="Cartan-Muenzner identities")
    _add_family_args(p_cm)
    p_cm.add_argument("--dump-poly", action="store_true", help="include residual polynomials on failure")
    p_cm.add_argument("--output", "-o")
    p_cm.set_defaults(func=cmd_verify_cm)

    p_spec = sub.add_parser("spectrum", help="principal curvature spectrum of a level set")
    _add_family_args(p_spec)
    p_spec.add_argument("--t", type=float, default=0.0)
    p_spec.add_argument("--seeds", type=_positive_int, default=1)
    p_spec.add_argument("--seed", type=int, default=spectral.DEFAULT_SEED)
    p_spec.add_argument("--cluster-tol", type=float, default=spectral.DEFAULT_CLUSTER_TOL)
    p_spec.add_argument("--output", "-o")
    p_spec.set_defaults(func=cmd_spectrum)

    p_par = sub.add_parser("parallel", help="parallel surface curvature law")
    _add_family_args(p_par)
    p_par.add_argument("--t", type=float, default=0.0)
    p_par.add_argument("--travel", type=float, required=True)
    p_par.add_argument("--seed", type=int, default=spectral.DEFAULT_SEED)
    p_par.add_argument("--output", "-o")
    p_par.set_defaults(func=cmd_parallel)

    p_focal = sub.add_parser("focal", help="focal rank collapse at a curvature angle")
    _add_family_args(p_focal)
    p_focal.add_argument("--t", type=float, default=0.0)
    p_focal.add_argument("--index", type=int, required=True, help="curvature index k (0-based)")
    p_focal.add_argument("--seed", type=int, default=spectral.DEFAULT_SEED)
    p_focal.add_argument("--output", "-o")
    p_focal.set_defaults(func=cmd_focal)

    p_nur = sub.add_parser("nurowski", help="symmetric 3-tensor conditions")
    nur_sub = p_nur.add_subparsers(dest="nurowski_command", required=True)
    p_check = nur_sub.add_parser("check", help="verify conditions (1)-(3)")
    p_check.add_argument("--dim", type=int, required=True, choices=(5, 8, 14, 26))
    p_check.add_argument("--output", "-o")
    p_check.set_defaults(func=cmd_nurowski_check)

    p_cliff = sub.add_parser("clifford", help="Clifford generators and systems")
    cliff_sub = p_cliff.add_subparsers(dest="clifford_command", required=True)
    p_cb = cliff_sub.add_parser("build", help="emit matrices as integer CSV")
    p_cb.add_argument("--m", type=int, required=True)
    p_cb.add_argument("--k", type=int, default=1)
    p_cb.add_argument("--what", choices=("generators", "system"), default="system")
    p_cb.add_argument("--output", "-o")
    p_cb.set_defaults(func=cmd_clifford_build)

    p_cat = sub.add_parser("catalog", help="published tables and the worked orbit")
    p_cat.add_argument("table", choices=("rank2", "fkm-table", "inhom", "su3-orbit"))
    p_cat.add_argument("--m1", type=int)
    p_cat.add_argument("--m2", type=int)
    p_cat.add_argument("--m", type=int)
    p_cat.add_argument("--degenerate", action="store_true")
    p_cat.add_argument("--output", "-o")
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError, StructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ConstructionError, FocalAngleError, InstabilityError, SamplingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
