"""Run one benchmark workload through the attested client and report it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md``): ``oltp`` (one enclave) and
``oltp_4shard`` (the same rows and op stream on a 4-shard inproc fleet).
Each is one client thread in a closed loop over ``connect()``.

``--trace 0`` builds the system, warms it up with a fixed op prefix,
runs the timed phase for ``--seconds`` in cycles of point ops, one scan
and one epoch close, builds the system twice more (``setup_s`` is
the median of the three builds), and prints every named metric with its
unit and sample count. ``--trace 1`` runs the same phases for half
the time untraced, then again under the outside-in span recorder, and
reports the per-layer metrics and the tracing overhead.

Every answer is checked against an oracle. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Run artifacts (results JSON, span dump) go to
``.perfbench/out/`` in the checkout; scratch WAL directories go to
``.perfbench/tmp/`` and are removed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oltp", "oltp_4shard")
#: builds per run; setup_s is their median
SETUPS = 3
#: untimed point ops before the timed phase (fills the cache)
WARMUP_POINT_OPS = 500
#: one cycle of the timed phase: POINT_SLICE seconds of point ops, one
#: scan (agg and range alternate), one epoch close. Each cycle yields one
#: sample of every time metric, and a metric reports its fast decile over
#: the run's cycles; see ``fast_decile``.
POINT_SLICE = 0.25
#: cycles run even past the deadline (two of each scan kind)
MIN_CYCLES = 4

#: the metrics BENCHMARK.json bounds, reported by every workload
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "scan_round_ms": "ms",
    "epoch_close_ms": "ms",
    "peak_rss_mb": "MB",
}


def fast_decile(values: list[float], higher_is_better: bool = False) -> float:
    """The first decile of ``values`` from their fast end.

    On a shared host the CPU's speed can swing by 1.5x over seconds to
    minutes, and a slow spell only ever adds time. A per-cycle sample from the
    fast end of the run tracks the program, not the spell, far better
    than the median of the whole run does.
    """
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] if higher_is_better else deciles[0]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def point_rate(cycles: list[dict]) -> float:
    """Point ops per second over the point slices of ``cycles``."""
    return sum(c["ops"] for c in cycles) / sum(c["seconds"] for c in cycles)


class Driver:
    """One client thread's closed loop over a built system."""

    def __init__(self, system, seed: int, oracle, tracer=None):
        import inputs

        self.system = system
        self.client = system.client
        self.oracle = oracle
        self.tracer = tracer
        self.point_ops = inputs.PointOps(seed)
        self.scan_ops = inputs.ScanOps(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latency: dict[str, list[float]] = {}
        #: every timed point op's seconds, in order
        self.point_latency: list[float] = []
        self.written: list[tuple] = []

    # ------------------------------------------------------------------
    def execute(self, kind: str, sql: str, params, check) -> tuple[float, object]:
        """Run one op through the client; returns (seconds, result)."""
        if self.tracer is not None:
            self.tracer.begin(kind, self.attempted)
        self.attempted += 1
        result = None
        start = perf_counter()
        try:
            result = self.client.execute(sql, params=params)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            elapsed = perf_counter() - start
            self._fail(kind, f"raised {type(exc).__name__}: {exc}")
        else:
            elapsed = perf_counter() - start
            if not result.verified:
                self._fail(kind, "result came back verified=False")
            elif not check(result):
                self._fail(kind, f"answer disagrees with the oracle: {sql} {params}")
        if self.tracer is not None:
            self.tracer.end(len(result.rows) if result is not None else 0)
        return elapsed, result

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {why}")

    def _record(self, kind: str, seconds: float) -> None:
        self.latency.setdefault(kind, []).append(seconds)

    # ------------------------------------------------------------------
    def point(self, record: bool = True):
        kind, sql, params = self.point_ops.next()
        seconds, _ = self.execute(
            kind, sql, params, lambda r: self.oracle.check(sql, params, r)
        )
        if record:
            self._record(kind, seconds)
            self.point_latency.append(seconds)
            if kind == "write":
                self.written.append(params)

    def scan(self, record: bool = True) -> tuple[str, float, list | None]:
        """The next agg or range; returns its kind, seconds and sorted rows."""
        kind, sql, params = self.scan_ops.next()
        seconds, result = self.execute(
            kind, sql, params, lambda r: self.oracle.check(sql, params, r)
        )
        if record:
            self._record(kind, seconds)
        return kind, seconds, sorted(result.rows) if result is not None else None

    # ------------------------------------------------------------------
    def warmup(self) -> str:
        """Fixed untimed prefix; returns a digest of its scan answers.

        The prefix depends only on the seed, so the digest is the same
        for ``oltp`` and ``oltp_4shard``, and the program counters it
        moves repeat exactly.
        """
        for _ in range(WARMUP_POINT_OPS):
            self.point(record=False)
        answers = [self.scan(record=False)[2] for _ in range(2)]
        return hashlib.sha256(repr(answers).encode()).hexdigest()

    def timed(self, seconds: float) -> list[dict]:
        """The timed phase; returns one record per cycle."""
        deadline = perf_counter() + seconds
        cycles = []
        while perf_counter() < deadline or len(cycles) < MIN_CYCLES:
            first = len(self.point_latency)
            start = perf_counter()
            slice_end = start + POINT_SLICE
            while perf_counter() < slice_end:
                self.point()
            point_seconds = perf_counter() - start
            point = self.point_latency[first:]
            scan_kind, scan_seconds, _ = self.scan()
            cycles.append({
                "ops": len(point),
                "seconds": point_seconds,
                "ops_per_s": len(point) / point_seconds,
                "op_p50_us": statistics.median(point) * 1e6,
                "op_p90_us": percentile(point, 0.90) * 1e6,
                f"{scan_kind}_ms": scan_seconds * 1e3,
                "epoch_close_ms": self.epoch_close(len(cycles)) * 1e3,
            })
        return cycles

    def epoch_close(self, index: int) -> float:
        """One ``verify_now()``; returns its seconds."""
        if self.tracer is not None:
            self.tracer.begin("epoch", index)
        self.attempted += 1
        start = perf_counter()
        try:
            self.system.db.verify_now()
        except Exception as exc:  # noqa: BLE001 - a failed close is counted
            self._fail("epoch", f"verify_now raised {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.end(0)
        return elapsed

    def user_bytes(self) -> int:
        """Encoded size of the parameters the timed writes sent."""
        from repro.storage.record import RecordCodec

        codec = RecordCodec()
        return sum(len(codec.encode(tuple(p))) for p in self.written)


# ----------------------------------------------------------------------
def run_untraced(workload, seed, seconds, work, setups=SETUPS) -> dict:
    """Build, warm up, time and close epochs; then rebuild ``setups - 1``
    more times so the set-up samples span the run, not one moment."""
    import inputs
    import system as systems

    rows = inputs.kv_rows(seed)

    def timed_build():
        start = perf_counter()
        built = systems.build(workload, work, rows)
        setup_seconds.append(perf_counter() - start)
        return built

    setup_seconds = []
    built = timed_build()
    try:
        driver = Driver(built, seed, inputs.KVOracle(rows))
        before = built.counts()
        digest = driver.warmup()
        warm = built.counts()
        cycles = driver.timed(seconds)
        after = built.counts()
    finally:
        built.close()
    for _ in range(setups - 1):
        gc.collect()
        timed_build().close()
    user_bytes = driver.user_bytes()
    return {
        "driver": driver,
        "setups": setup_seconds,
        "cycles": cycles,
        "warmup_digest": digest,
        "warmup_counts": {k: warm[k] - before[k] for k in warm},
        "timed_counts": {k: after[k] - warm[k] for k in after},
        "wal_bytes_per_user_byte": (
            (after["wal_bytes"] - warm["wal_bytes"]) / user_bytes
            if user_bytes
            else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(workload, seed, seconds, work, out_dir) -> dict:
    """Half the time untraced (the reference), half under the tracer."""
    import inputs
    import layers
    import system as systems
    from tracer import Tracer

    reference = run_untraced(workload, seed, seconds / 2, work, setups=1)
    rows = inputs.kv_rows(seed)
    tracer = Tracer()
    tracer.install()  # before construction: the ECall binds portal.submit
    try:
        built = systems.build(workload, work, rows)
        try:
            driver = Driver(built, seed, inputs.KVOracle(rows), tracer=tracer)
            driver.warmup()
            tracer.start(lambda: built.counts(wal=False))
            cycles = driver.timed(seconds / 2)
            tracer.stop()
        finally:
            built.close()
    finally:
        tracer.uninstall()
    overhead = point_rate(cycles) / point_rate(reference["cycles"])
    spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(spans)
    return {
        "driver": driver,
        "reference": reference,
        "per_layer": layers.compute(
            tracer, reference["wal_bytes_per_user_byte"], overhead
        ),
        "units": {name: layers.unit(name) for name in layers.NAMES},
        "spans": str(spans.relative_to(ROOT)),
    }


# ----------------------------------------------------------------------
def summarize(run: dict) -> dict:
    """Every named end-to-end metric: (value, unit, samples).

    The bounded time metrics are fast deciles over the run's cycles
    (``fast_decile``); the per-kind ones pool every sample of the run.
    """
    driver = run["driver"]
    lat = driver.latency
    cycles = run["cycles"]

    def decile(name, higher_is_better=False):
        return fast_decile([c[name] for c in cycles if name in c], higher_is_better)

    out = {
        "setup_s": (statistics.median(run["setups"]), "s", len(run["setups"])),
        "ops_per_s": (decile("ops_per_s", True), "1/s", len(cycles)),
        "op_p50_us": (decile("op_p50_us"), "us", len(cycles)),
        "op_p90_us": (decile("op_p90_us"), "us", len(cycles)),
        "scan_round_ms": (decile("agg_ms") + decile("range_ms"), "ms", len(cycles)),
        "epoch_close_ms": (decile("epoch_close_ms"), "ms", len(cycles)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    for kind in ("read", "write"):
        samples = lat[kind]
        out[f"{kind}_p50_us"] = (statistics.median(samples) * 1e6, "us", len(samples))
        out[f"{kind}_p99_us"] = (percentile(samples, 0.99) * 1e6, "us", len(samples))
    for kind in ("agg", "range"):
        samples = lat[kind]
        out[f"{kind}_p50_ms"] = (statistics.median(samples) * 1e3, "ms", len(samples))
    out["error_rate"] = (driver.failed / driver.attempted, "ratio", driver.attempted)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {src}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        if args.trace:
            run = run_traced(args.workload, args.seed, args.seconds, work, out_dir)
            ref = run["reference"]["driver"]
            driver = run["driver"]
            attempted = driver.attempted + ref.attempted
            failed = driver.failed + ref.failed
            failures = ref.failures + driver.failures
            metrics = {
                name: {"value": value, "unit": run["units"][name]}
                for name, value in run["per_layer"].items()
            }
            report = {"per_layer": run["per_layer"], "spans": run["spans"]}
            for name, value in run["per_layer"].items():
                print(f"{name} = {value:.6g} {run['units'][name]}")
        else:
            run = run_untraced(args.workload, args.seed, args.seconds, work)
            driver = run["driver"]
            attempted, failed, failures = (
                driver.attempted, driver.failed, driver.failures,
            )
            named = summarize(run)
            metrics = {
                name: {"value": named[name][0], "unit": unit}
                for name, unit in END_TO_END.items()
            }
            report = {
                "metrics": {
                    name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in named.items()
                },
                "warmup_answers_digest": run["warmup_digest"],
                "warmup_counts": run["warmup_counts"],
                "timed_counts": run["timed_counts"],
                "timed_ops": len(driver.point_latency),
                "cycles": run["cycles"],
                "wal_bytes_per_user_byte": run["wal_bytes_per_user_byte"],
            }
            for name, (value, unit, samples) in named.items():
                print(f"{name} = {value:.6g} {unit} (n={samples})")
            print(f"warmup_answers_digest = {run['warmup_digest']}")
            for name, value in run["warmup_counts"].items():
                print(f"warmup_counts.{name} = {value}")
            for name, value in run["timed_counts"].items():
                print(f"timed_counts.{name} = {value}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    correct = failed == 0
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, correct=correct, attempted=attempted, failed=failed,
        failures=failures,
    )
    result_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
