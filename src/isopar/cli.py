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
  catalog ...       rank2 | fkm-table | inhom | su3-orbit; inhom takes the
                    multiplicities --m1 and --m2, and --degenerate, which
                    applies when --m1, the Clifford m, is 4

Every subcommand takes --output/-o, which writes the text it would print
to a file instead.

Reports are JSON documents with a schema_version field and are byte
identical for identical invocations (fixed default seed, sorted keys, no
timestamps).  Exit codes: 0 all requested verifications passed, 1 a
verification failed (for spectrum this includes a clustered spectrum whose
number of distinct curvatures p differs from the family's p, as when a
coarse --cluster-tol merges distinct curvatures), 2 usage error: an
argument the parser refuses, any errors.UsageError, or an --output path
that cannot be written (including a negative --seed, a non-finite
--travel, a --cluster-tol that is not a finite number > 0, a --seeds
outside 1..MAX_SEEDS = 10000, --family product at k = 1 or k = n for
n >= 2, which declares a zero multiplicity, spectrum, parallel or focal on
a family in S^1, whose level sets are points, or at a --t with
|t| > 0.95, inside the focal guard band, a Clifford size l = k delta(m)
above 256 in clifford build or --family fkm, a family whose ambient
dimension is above MAX_AMBIENT_DIM = 512 = 2 MAX_L, the largest fkm
ambient, and a verify cm whose |grad F|^2 would take more than
polyalg.MAX_RESIDUAL_PAIRS = 10 000 000 term pairs, predicted before any
product is formed, as fkm(1,128) and fkm(9,4) would), 3 any
errors.RuntimeFailure: a numerical procedure failed at run time (sampling
did not converge, ambiguous clustering, a focal travel angle, a
construction that failed its own relations).

The --family choices and the arguments each family needs come from one
registry, FAMILIES: each row is the required arguments and the factory
over their values.  The factory is the whole build: the family factories
in families check MAX_AMBIENT_DIM, which lives there, before they build
anything.  A family is built once per process for each set of
values of its required arguments: build_family keeps the last
FAMILY_MEMO_SIZE = 16 families built, so a repeated request gets the same
IsoparametricFamily object, and with it the derivative tables that
spectral compiled for that object.  nurowski check reads its Cartan cubic
from the same memo, under the key verify cm --family cartan-cubic uses, so
the cubic is built once for both; the dimension-5 determinant cross check
takes that memoized R cubic as its argument.  The conditions and the cross
check are still computed on every request.  A factory that raises is not
remembered, so a bad request fails the same way every time.  The factories
look their builders (fkm_family and the others) up by global name when
they run, not when the registry is made, so a tracer that rebinds those
names after import (perfbench/tracing.py) still sees every build.

The argument parser is built once, when this module is imported, as
_PARSER; main only parses.  argparse keeps no per-call state in a parser,
and help and usage text read the terminal width when they are printed.  It
is not built lazily on the first call: a tracer that wraps the cmd_*
handlers after import (perfbench/tracing.py) would then have its wrappers
captured by set_defaults(func=...) in the cached parser, where they would
outlive the tracer's uninstall.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import catalog as cat
from . import spectral
from .clifford import build_generators, build_system
from .cm_verifier import verify_cm
from .division_algebras import AlgebraTag
from .errors import DomainError, RuntimeFailure, UsageError
from .families import (
    IsoparametricFamily,
    cartan_cubic,
    det_cubic_cross_check,
    fkm_family,
    linear_family,
    nomizu_family,
    product_family,
)
from .nurowski import DIM_TO_TAG, check_conditions

SCHEMA_VERSION = 1
USAGE_ERROR = 2
VERIFICATION_FAILURE = 1
RUNTIME_FAILURE = 3


def _json(command: str, result: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "command": command, "result": result}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _checked(convert, accept, expected: str):
    """An argparse type: ``convert`` the text, then require ``accept`` of it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


MAX_SEEDS = 10_000  # spectrum --seeds: level samples in one report

_seed_count = _checked(int, lambda v: 1 <= v <= MAX_SEEDS, f"an integer in 1..{MAX_SEEDS}")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


# --family name -> (required arguments, factory over their values); each
# factory looks its builder up by global name when it is called
FAMILIES = {
    "linear": (("n",), lambda n: linear_family(n)),
    "product": (("n", "k"), lambda n, k: product_family(n, k)),
    "cartan-cubic": (("algebra",), lambda algebra: cartan_cubic(AlgebraTag[algebra])),
    "fkm": (("m", "k"), lambda m, k: fkm_family(build_system(build_generators(m, k)))),
    "nomizu": (("n",), lambda n: nomizu_family(n)),
}
# built families kept, least recently used dropped first; a benchmark
# workload asks for at most 5 distinct ones
FAMILY_MEMO_SIZE = 16


@functools.lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _built_family(name: str, values: tuple) -> IsoparametricFamily:
    return FAMILIES[name][1](*values)


def build_family(args) -> IsoparametricFamily:
    required = FAMILIES[args.family][0]
    if any(getattr(args, name) is None for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise DomainError(f"{args.family} needs {flags}")
    return _built_family(args.family, tuple(getattr(args, name) for name in required))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (text for stdout or --output, exit code)
# ---------------------------------------------------------------------------


def _verdict(ok: bool) -> int:
    return 0 if ok else VERIFICATION_FAILURE


def cmd_family_build(args) -> tuple[str, int]:
    fam = build_family(args)
    meta = {"schema_version": SCHEMA_VERSION, **fam.to_dict()}
    if args.format == "json":
        meta["terms"] = fam.F.dumps().splitlines()
        return _json("family build", meta), 0
    return json.dumps(meta, sort_keys=True) + "\n" + fam.F.dumps() + "\n", 0


def cmd_verify_cm(args) -> tuple[str, int]:
    report = verify_cm(build_family(args))
    result = report.to_dict()
    if args.dump_poly and not report.ok:
        result["grad_residual"] = report.grad_residual.dumps().splitlines()
        result["laplace_residual"] = report.laplace_residual.dumps().splitlines()
    return _json("verify cm", result), _verdict(report.ok)


def cmd_spectrum(args) -> tuple[str, int]:
    fam = build_family(args)
    report = spectral.spectrum_report(
        fam,
        args.t,
        num_seeds=args.seeds,
        base_seed=args.seed,
        cluster_tol=args.cluster_tol,
    )
    # off the focal sets a family has exactly fam.p distinct curvatures
    ok = report.seed_agreement_ok and report.munzner.ok and report.spectrum.p == fam.p
    return _json("spectrum", report.to_dict()), _verdict(ok)


def cmd_parallel(args) -> tuple[str, int]:
    pt = spectral.sample_level(build_family(args), args.t, seed=args.seed)
    report = spectral.parallel_check(pt, args.travel)
    return _json("parallel", report.to_dict()), _verdict(report.ok)


def cmd_focal(args) -> tuple[str, int]:
    pt = spectral.sample_level(build_family(args), args.t, seed=args.seed)
    report = spectral.focal_check(pt, args.index)
    return _json("focal", report.to_dict()), _verdict(report.ok)


def cmd_nurowski_check(args) -> tuple[str, int]:
    fam = _built_family("cartan-cubic", (DIM_TO_TAG[args.dim].name,))
    report = check_conditions(fam.F)
    result = report.to_dict()
    if args.dim == 5:
        result["determinant_cross_check"] = det_cubic_cross_check(fam.F).to_dict()
    return _json("nurowski check", result), _verdict(report.ok)


def cmd_clifford_build(args) -> tuple[str, int]:
    # both builders validate what they build: a failure raises ConstructionError, exit 3
    gens = build_generators(args.m, args.k)
    if args.what == "system":
        mats = list(build_system(gens).mats)
        labels = [f"P{i}" for i in range(len(mats))]
    else:
        mats = list(gens.mats)
        labels = [f"E{i + 1}" for i in range(len(mats))]
    lines = [f"# m={args.m} k={args.k} l={gens.l} what={args.what}"]
    for label, M in zip(labels, mats):
        lines.append(f"# {label}")
        for row in M.rows():
            lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n", 0


def cmd_catalog(args) -> tuple[str, int]:
    if args.table == "rank2":
        check = cat.rank2_self_check()
        result = {
            "rows": [row.to_dict() for row in cat.rank2_table()],
            "self_check_ok": check.ok,
            "flagged": [f"{r.g}/{r.h}" for r in check.flagged_rows],
        }
        return _json("catalog rank2", result), _verdict(check.ok)
    if args.table == "fkm-table":
        check = cat.printed_fkm_check()
        result = {
            "entries": [entry.to_dict() for entry in cat.fkm_table()],
            "printed_matches": check.matches,
            "printed_mismatches": [
                {"k": k, "m": m, "printed": list(p), "formula": list(f)}
                for (k, m), p, f in check.mismatches
            ],
            "ok_except_flagged": check.ok_except_flagged,
        }
        return _json("catalog fkm-table", result), _verdict(check.ok_except_flagged)
    if args.table == "inhom":
        if args.m1 is None or args.m2 is None:
            raise DomainError("inhom needs --m1 and --m2")
        verdict = cat.inhomogeneity_predicate(args.m1, args.m2, degenerate=args.degenerate)
        return _json("catalog inhom", verdict.to_dict()), 0
    # su3-orbit: the parser's choices leave no other table
    return _json("catalog su3-orbit", cat.su3_orbit_spectrum().to_dict()), 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isopar",
        description="isoparametric hypersurface families: exact identities and spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family_args = argparse.ArgumentParser(add_help=False)
    family_args.add_argument("--family", required=True, choices=FAMILIES)
    family_args.add_argument(
        "--n", type=int, help="sphere dimension (linear/product) or block size (nomizu)"
    )
    family_args.add_argument(
        "--k", type=int, help="split index (product) or number of irreducible blocks (fkm)"
    )
    family_args.add_argument(
        "--algebra", choices=[t.name for t in AlgebraTag], help="R, C, H or O (cartan-cubic)"
    )
    family_args.add_argument("--m", type=int, help="Clifford system size parameter (fkm)")

    # spectrum, parallel and focal: a family, a level and a sampling seed
    level_args = argparse.ArgumentParser(add_help=False, parents=[family_args])
    level_args.add_argument("--t", type=float, default=0.0)
    level_args.add_argument("--seed", type=_seed, default=spectral.DEFAULT_SEED)

    # every subcommand writes its text to stdout or to --output
    output_args = argparse.ArgumentParser(add_help=False)
    output_args.add_argument("--output", "-o")

    p_family = sub.add_parser("family", help="family polynomial factories")
    family_sub = p_family.add_subparsers(dest="family_command", required=True)
    p_build = family_sub.add_parser(
        "build", parents=[family_args, output_args], help="emit a family polynomial"
    )
    p_build.add_argument("--format", choices=("poly-text", "json"), default="poly-text")
    p_build.set_defaults(func=cmd_family_build)

    p_verify = sub.add_parser("verify", help="exact identity verification")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_cm = verify_sub.add_parser(
        "cm", parents=[family_args, output_args], help="Cartan-Muenzner identities"
    )
    p_cm.add_argument("--dump-poly", action="store_true", help="include residual polynomials on failure")
    p_cm.set_defaults(func=cmd_verify_cm)

    p_spec = sub.add_parser(
        "spectrum",
        parents=[level_args, output_args],
        help="principal curvature spectrum of a level set",
    )
    p_spec.add_argument("--seeds", type=_seed_count, default=1)
    p_spec.add_argument(
        "--cluster-tol", type=_positive_float, default=spectral.DEFAULT_CLUSTER_TOL
    )
    p_spec.set_defaults(func=cmd_spectrum)

    p_par = sub.add_parser(
        "parallel", parents=[level_args, output_args], help="parallel surface curvature law"
    )
    p_par.add_argument("--travel", type=_finite_float, required=True)
    p_par.set_defaults(func=cmd_parallel)

    p_focal = sub.add_parser(
        "focal", parents=[level_args, output_args], help="focal rank collapse at a curvature angle"
    )
    p_focal.add_argument("--index", type=int, required=True, help="curvature index k (0-based)")
    p_focal.set_defaults(func=cmd_focal)

    p_nur = sub.add_parser("nurowski", help="symmetric 3-tensor conditions")
    nur_sub = p_nur.add_subparsers(dest="nurowski_command", required=True)
    p_check = nur_sub.add_parser("check", parents=[output_args], help="verify conditions (1)-(3)")
    p_check.add_argument("--dim", type=int, required=True, choices=tuple(DIM_TO_TAG))
    p_check.set_defaults(func=cmd_nurowski_check)

    p_cliff = sub.add_parser("clifford", help="Clifford generators and systems")
    cliff_sub = p_cliff.add_subparsers(dest="clifford_command", required=True)
    p_cb = cliff_sub.add_parser("build", parents=[output_args], help="emit matrices as integer CSV")
    p_cb.add_argument("--m", type=int, required=True)
    p_cb.add_argument("--k", type=int, default=1)
    p_cb.add_argument("--what", choices=("generators", "system"), default="system")
    p_cb.set_defaults(func=cmd_clifford_build)

    p_cat = sub.add_parser(
        "catalog", parents=[output_args], help="published tables and the worked orbit"
    )
    p_cat.add_argument("table", choices=("rank2", "fkm-table", "inhom", "su3-orbit"))
    p_cat.add_argument("--m1", type=int)
    p_cat.add_argument("--m2", type=int)
    p_cat.add_argument("--degenerate", action="store_true")
    p_cat.set_defaults(func=cmd_catalog)

    return parser


_PARSER = make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text, code = args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return RUNTIME_FAILURE
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
