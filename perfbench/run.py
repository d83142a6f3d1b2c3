"""isopar benchmark: CLI requests in a closed loop, one client, one process.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload exact-quartic --seed 1 --seconds 10 --trace 0

Run every workload untraced and traced, print all metrics with units and
write one suite file::

    python3 perfbench/run.py --all --seconds 10 --out suite.json

Compare two result or suite files, metric by metric, as ratios new/base::

    python3 perfbench/run.py --compare base.json new.json

Each request goes through ``isopar.cli.main(argv)`` with stdout captured and
its report checked (see ``workloads.py``).  A run repeats whole passes of the
workload's request list for about ``--seconds`` of request time, so every run
sees the same request mix.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``SETUP_REPEATS`` set-ups, each in a fresh process: importing numpy and
isopar, building the request list, and on the numeric workloads one
``spectral.sample_level`` per distinct family to fill the derivative cache),
``requests_per_s``, ``request_s.p50`` and ``peak_rss_mb``.  ``fail_ratio``
goes to the summary and the result file; the final line carries it as
``failed`` / ``attempted``.

``--trace 1`` wraps the public isopar functions (``tracing.py``), traces the
set-up and exactly one pass, so its counts repeat exactly, then measures
untraced passes for the rest of ``--seconds`` to give ``trace.overhead``.

Result files and span logs go to ``perfbench/out/`` unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 240

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)
# The per-layer metrics printed on the final line of a traced run: the counts
# and ratios, and the times that are nonzero on every workload.  The rest of
# LAYER_METRICS (times of layers some workload never calls) goes to the
# result file and the suite table.
REPORTED_LAYERS = (
    "cli.self_s",
    "families.build_s",
    "families.terms",
    "polyalg.mul_s",
    "polyalg.mul_calls",
    "polyalg.mul_term_pairs",
    "polyalg.max_terms",
    "polyalg.add_s",
    "polyalg.diff_s",
    "nurowski.tuples_checked",
    "spectral.samples",
    "spectral.headroom",
    "trace.overhead",
)
UNITS = dict(END_TO_END) | {"fail_ratio": "ratio"} | {
    name: unit for name, unit, *_ in tracing.LAYER_METRICS + tracing.RUN_METRICS
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def check_environment() -> None:
    if "ISOPAR_THREADS" in os.environ:
        raise BenchError("ISOPAR_THREADS is set; the benchmark measures one thread only")
    if not (SRC / "isopar" / "__init__.py").is_file():
        raise BenchError(f"isopar sources not found under {SRC}")


def import_isopar():
    sys.path.insert(0, str(SRC))
    importlib.import_module("numpy")
    cli = importlib.import_module("isopar.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported isopar from {cli.__file__}, not from {SRC}")
    return cli


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "commit": commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# set-up and requests
# ---------------------------------------------------------------------------


def warm_up(cli, reqs) -> None:
    """One level sample per distinct family fills the derivative cache."""
    parser = cli.make_parser()
    for fam in workloads.warmup_families(reqs):
        family = cli.build_family(parser.parse_args(["spectrum", *fam.args]))
        cli.spectral.sample_level(family, 0.0)


def setup(workload: str, seed: int, tracer=None):
    """Import, build the request list and warm up; returns (seconds, cli, reqs)."""
    start = perf_counter()
    cli = import_isopar()
    if tracer is not None:
        tracer.install(sys.modules["isopar"])
    reqs = workloads.requests(workload, seed)
    warm_up(cli, reqs)
    return perf_counter() - start, cli, reqs


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Latencies, failures and headroom over the requests of a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_request: dict = {}  # request key -> latencies
        self.completed = 0
        self.failures: list[str] = []
        self.headroom = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        for key, values in other.by_request.items():
            self.by_request.setdefault(key, []).extend(values)
        self.completed += other.completed
        self.failures += other.failures
        self.headroom = max(self.headroom, other.headroom)


def run_request(cli, req, golden: dict, tally: Tally) -> None:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(req.argv))
    except (Exception, SystemExit) as err:  # a request that raises is a failure
        code, error = None, f"{type(err).__name__}: {err}"
    else:
        error = None
    elapsed = perf_counter() - start
    tally.latencies.append(elapsed)
    tally.by_request.setdefault(req.key, []).append(elapsed)

    problems = [error] if error else []
    if code is not None:
        tally.completed += 1
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            result = json.loads(buf.getvalue())["result"]
            found, headroom = workloads.check(req, result, golden)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            found, headroom = [f"unreadable report: {type(err).__name__}: {err}"], 0.0
        problems += found
        tally.headroom = max(tally.headroom, headroom)
    if problems:
        tally.failures.append(f"{req.key}: {'; '.join(problems)}")


def run_passes(cli, reqs, golden, tally: Tally, seconds: float, tracer=None) -> tuple[int, float]:
    """Whole passes, at least one, until the next would end more than half a
    pass past ``seconds``; a traced run makes exactly one pass."""
    gc.collect()
    passes, busy = 0, 0.0
    while True:
        before = sum(tally.latencies)
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = f"{passes}:{i}"
            run_request(cli, req, golden, tally)
        busy += sum(tally.latencies) - before
        passes += 1
        if tracer is not None or busy + busy / passes / 2 > seconds:
            return passes, busy


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(args, golden) -> tuple[dict, Tally, dict]:
    own_setup, cli, reqs = setup(args.workload, args.seed)
    setups = [own_setup] + [
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]
    tally = Tally()
    passes, busy = run_passes(cli, reqs, golden, tally, args.seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": tally.completed / busy,
        "request_s.p50": statistics.median(tally.latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"passes": passes, "requests_per_pass": len(reqs), "setup_samples": setups}
    return metrics, tally, extra


def traced_run(args, golden) -> tuple[dict, Tally, dict]:
    tracer = tracing.Tracer()
    _, cli, reqs = setup(args.workload, args.seed, tracer)
    tally = Tally()
    _, traced_busy = run_passes(cli, reqs, golden, tally, args.seconds, tracer)
    traced_ok = tally.completed
    tracer.uninstall()
    plain = Tally()
    passes, busy = run_passes(cli, reqs, golden, plain, max(args.seconds - traced_busy, 0.0))
    tally.merge(plain)

    metrics = tracer.metrics()
    metrics["spectral.headroom"] = tally.headroom
    metrics["trace.overhead"] = (
        (plain.completed / busy) / (traced_ok / traced_busy) if traced_ok and plain.completed else None
    )
    spans_path = Path(args.out).with_suffix(".spans.jsonl") if args.out else (
        OUT_DIR / f"spans-{args.workload}.jsonl"
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    extra = {
        "untraced_passes": passes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT) if spans_path.is_relative_to(ROOT) else spans_path),
        "absent": sorted(k for k, v in metrics.items() if v is None),
    }
    return metrics, tally, extra


def run(args) -> int:
    golden = workloads.load_golden()
    metrics, tally, extra = (traced_run if args.trace else untraced_run)(args, golden)
    fail_ratio = tally.fail_ratio
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "fail_ratio": fail_ratio,
        "failures": tally.failures[:20],
        "request_s_median": {k: statistics.median(v) for k, v in sorted(tally.by_request.items())},
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        **extra,
    }
    out = Path(args.out) if args.out else OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    for failure in tally.failures[:20]:
        print(f"FAIL {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} requests "
          f"(p50 over {tally.attempted} samples), fail_ratio {fail_ratio:.4g} ratio")
    for name, value in metrics.items():
        print(f"  {name:28s} {_fmt(value):>14s} {UNITS[name]}")
    reported = REPORTED_LAYERS if args.trace else [name for name, _ in END_TO_END]
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            k: {"value": metrics[k], "unit": UNITS[k]} for k in reported if metrics.get(k) is not None
        },
    }))
    return 0


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# suite and compare
# ---------------------------------------------------------------------------


def suite(args) -> int:
    docs, failed = [], False
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            path = OUT_DIR / f"suite-{workload}-trace{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", str(path)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            doc = json.loads(path.read_text())
            failed |= doc["failed"] > 0
            docs.append(doc)
    print(f"{'workload':16s} {'metric':28s} {'value':>14s} unit")
    for workload, metrics in _by_workload({"runs": docs}).items():
        for name, (value, unit) in metrics.items():
            print(f"{workload:16s} {name:28s} {_fmt(value):>14s} {unit}")
    out = Path(args.out) if args.out else OUT_DIR / "suite.json"
    out.write_text(json.dumps({"runs": docs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def _by_workload(doc: dict) -> dict:
    """{workload: {metric: (value, unit)}} from a suite or a single-run file."""
    table: dict = {}
    for run_doc in doc.get("runs", [doc]):
        metrics = table.setdefault(run_doc["workload"], {})
        if not run_doc["trace"]:
            metrics["fail_ratio"] = (run_doc["fail_ratio"], "ratio")
        for name, m in run_doc["metrics"].items():
            metrics[name] = (m["value"], m["unit"])
    return table


def compare(base_path: str, new_path: str) -> int:
    base = _by_workload(json.loads(Path(base_path).read_text()))
    new = _by_workload(json.loads(Path(new_path).read_text()))
    moves = {m[0]: m[-1] for m in tracing.LAYER_METRICS + tracing.RUN_METRICS}
    print(f"{'workload':16s} {'metric':28s} {'base':>14s} {'new':>14s} {'new/base':>9s} unit  (should move)")
    for workload in sorted(base.keys() | new.keys()):
        b, n = base.get(workload, {}), new.get(workload, {})
        for name in sorted(b.keys() | n.keys()):
            bv, unit = b.get(name, (None, None))
            nv, nunit = n.get(name, (None, None))
            ratio = "n/a" if bv in (None, 0) or nv is None else f"{nv / bv:.3f}"
            print(f"{workload:16s} {name:28s} {_fmt(bv):>14s} {_fmt(nv):>14s} {ratio:>9s} "
                  f"{unit or nunit}  {moves.get(name, '')}")
    return 0


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default under perfbench/out/)")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (args.all or args.compare) and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        check_environment()
        if args.all:
            return suite(args)
        if args.setup_only:
            seconds, _, _ = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
