"""Request lists for the four benchmark workloads and the checks on every report.

Each workload is a list of ``isopar`` CLI argv lists built from the workload
seed.  On the exact workloads the seed only fixes the order of requests; on
the numeric workloads it also draws the levels t in [-0.6, 0.6] and the
``--seed`` values.  No request passes a thread option.

Checks:

* exact reports (``verify cm``, ``nurowski check``, ``family build``) are
  compared by the sha256 of their ``result`` object against ``golden.json``,
  recorded when the benchmark was defined;
* numeric reports are compared against values the benchmark derives itself:
  the declared multiplicities (up to F -> -F), theta_1 = arccos(t) / p, the
  focal nullity m_k and the parallel level cos(arccos(t) - p travel).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

THETA_TOL = 1e-6  # theta_1 = arccos(t) / p and the focal angle theta_k
LEVEL_TOL = 1e-6  # parallel end level against cos(arccos(t) - p travel)
MIN_FOCAL_DISTANCE = 0.15  # parallel travel stays this far from every theta_k
T_RANGE = 0.6

# Tolerances isopar applies to its own numeric checks; the headroom of a
# report is its worst measured error divided by the matching tolerance.
HEADROOM_TOLERANCES = {
    "cross_seed_deviation": 2e-6,
    "max_spacing_error": 1e-6,
    "max_curvature_error": 1e-6,
    "level_error": 1e-6,
}


@dataclass(frozen=True)
class Family:
    """A family as the CLI names it, with invariants declared independently."""

    key: str
    args: tuple
    p: int
    multiplicities: tuple  # (m1, m2)


FKM_9_1 = Family("fkm(9,1)", ("--family", "fkm", "--m", "9", "--k", "1"), 4, (9, 6))
CARTAN_O = Family("cartan-O", ("--family", "cartan-cubic", "--algebra", "O"), 3, (8, 8))
NOMIZU_7 = Family("nomizu(7)", ("--family", "nomizu", "--n", "7"), 4, (6, 1))
PRODUCT_7_4 = Family("product(7,4)", ("--family", "product", "--n", "7", "--k", "4"), 2, (3, 3))

# Per pass: seven fkm(5,1) and three nomizu(7) requests.  Three requests
# are cheaper than fkm(5,1) and three dearer, so the median request is the
# middle fkm(5,1) sample rather than a lone sample on a block edge.
EXACT_QUARTIC = (
    ("verify", "cm", "--family", "fkm", "--m", "9", "--k", "1"),
    ("verify", "cm", "--family", "fkm", "--m", "1", "--k", "16"),
    ("verify", "cm", "--family", "fkm", "--m", "3", "--k", "3"),
) + 7 * (("verify", "cm", "--family", "fkm", "--m", "5", "--k", "1"),) + 3 * (
    ("verify", "cm", "--family", "nomizu", "--n", "7"),
)
EXACT_CUBIC = tuple(
    ("verify", "cm", "--family", "cartan-cubic", "--algebra", a) for a in "RCHO"
) + tuple(("nurowski", "check", "--dim", str(d)) for d in (5, 8, 14, 26)) + (
    ("family", "build", "--family", "cartan-cubic", "--algebra", "O", "--format", "json"),
)

# Levels per family and pass.  The counts put the median request inside one
# family's block of latencies, far from its edges, so request_s.p50 does not
# jump between families as the seed moves the levels: on numeric-spectra it
# falls among the fkm(9,1) spectra, on numeric-focal among the nomizu(7)
# requests (each level there is p focal requests plus one parallel request).
SPECTRUM_LEVELS = {FKM_9_1: 7, CARTAN_O: 1, NOMIZU_7: 1, PRODUCT_7_4: 1}
FOCAL_LEVELS = {FKM_9_1: 1, CARTAN_O: 1, NOMIZU_7: 2, PRODUCT_7_4: 3}


@dataclass(frozen=True)
class Request:
    argv: tuple
    family: Family | None = None
    t: float | None = None
    index: int | None = None  # focal curvature index k
    travel: float | None = None  # parallel travel angle

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _level(rng: random.Random) -> float:
    return round(rng.uniform(-T_RANGE, T_RANGE), 6)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 1_000_000))


def _thetas(fam: Family, t: float) -> list[float]:
    theta1 = math.acos(t) / fam.p
    return [theta1 + k * math.pi / fam.p for k in range(fam.p)]


def _focal_distance(travel: float, thetas) -> float:
    return min(abs((travel - th + math.pi / 2) % math.pi - math.pi / 2) for th in thetas)


def _travel(rng: random.Random, fam: Family, t: float) -> float:
    while True:
        travel = round(rng.uniform(0.05, 1.5), 6)
        if _focal_distance(travel, _thetas(fam, t)) >= MIN_FOCAL_DISTANCE:
            return travel


def _exact(argvs, rng: random.Random) -> list[Request]:
    reqs = [Request(argv) for argv in argvs]
    rng.shuffle(reqs)
    return reqs


def _spectra(rng: random.Random) -> list[Request]:
    reqs = []
    for fam, levels in SPECTRUM_LEVELS.items():
        for _ in range(levels):
            t = _level(rng)
            argv = ("spectrum", *fam.args, "--t", repr(t), "--seeds", "20", "--seed", _seed(rng))
            reqs.append(Request(argv, fam, t))
    rng.shuffle(reqs)
    return reqs


def _focal(rng: random.Random) -> list[Request]:
    reqs = []
    for fam, levels in FOCAL_LEVELS.items():
        for _ in range(levels):
            t = _level(rng)
            for k in range(fam.p):
                argv = ("focal", *fam.args, "--t", repr(t), "--index", str(k), "--seed", _seed(rng))
                reqs.append(Request(argv, fam, t, index=k))
            travel = _travel(rng, fam, t)
            argv = ("parallel", *fam.args, "--t", repr(t), "--travel", repr(travel), "--seed", _seed(rng))
            reqs.append(Request(argv, fam, t, travel=travel))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "exact-quartic": lambda rng: _exact(EXACT_QUARTIC, rng),
    "exact-cubic": lambda rng: _exact(EXACT_CUBIC, rng),
    "numeric-spectra": _spectra,
    "numeric-focal": _focal,
}


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def warmup_families(reqs: list[Request]) -> list[Family]:
    """Distinct families of a numeric request list, in first-use order."""
    seen: dict = {}
    for r in reqs:
        if r.family is not None:
            seen.setdefault(r.family.key, r.family)
    return list(seen.values())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def result_digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _declared_sequences(fam: Family) -> list[list[int]]:
    """m_1..m_p in Muenzner order for F and for -F (m_k = m_{k+2})."""
    m1, m2 = fam.multiplicities
    return [[(m1, m2)[k % 2] for k in range(fam.p)], [(m2, m1)[k % 2] for k in range(fam.p)]]


def check(req: Request, result: dict, golden: dict) -> tuple[list[str], float]:
    """Problems found in one report, and its headroom (0 for exact reports)."""
    command = req.argv[0]
    if req.family is None:
        want = golden.get(req.key)
        if want is None:
            return [f"no golden digest for {req.key!r}"], 0.0
        got = result_digest(result)
        return ([] if got == want else [f"digest {got[:12]} != golden {want[:12]}"]), 0.0

    fam = req.family
    problems = []
    thetas = _thetas(fam, req.t)
    if command == "spectrum":
        spec = result["spectrum"]
        mults = [c["multiplicity"] for c in spec["clusters"]]
        if mults not in _declared_sequences(fam):
            problems.append(f"multiplicities {mults} != declared {fam.multiplicities}")
        if abs(spec["thetas"][0] - thetas[0]) > THETA_TOL:
            problems.append(f"theta_1 {spec['thetas'][0]} != arccos(t)/p {thetas[0]}")
        if not result["munzner"]["ok"]:
            problems.append("munzner.ok is false")
        if not result["seed_agreement_ok"]:
            problems.append("seed_agreement_ok is false")
        errors = {
            "cross_seed_deviation": result["cross_seed_deviation"],
            "max_spacing_error": result["munzner"]["max_spacing_error"],
        }
    elif command == "focal":
        k = req.index
        if abs(result["angle"] - thetas[k]) > THETA_TOL:
            problems.append(f"focal angle {result['angle']} != theta_{k + 1} {thetas[k]}")
        if result["nullity"] not in {seq[k] for seq in _declared_sequences(fam)}:
            problems.append(f"nullity {result['nullity']} != declared m_{k + 1}")
        if result["nullity"] != result["expected_nullity"] or not result["ok"]:
            problems.append("focal.ok is false")
        errors = {}
    else:  # parallel
        level = math.cos(math.acos(req.t) - fam.p * req.travel)
        level_error = abs(result["end_level"] - level)
        if level_error > LEVEL_TOL:
            problems.append(f"end level {result['end_level']} != {level}")
        if not result["ok"]:
            problems.append("parallel.ok is false")
        errors = {
            "max_curvature_error": result["max_curvature_error"],
            "level_error": level_error,
        }
    headroom = max(
        (abs(v) / HEADROOM_TOLERANCES[name] for name, v in errors.items()), default=0.0
    )
    return problems, headroom
