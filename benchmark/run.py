"""Cold-pass benchmark for twochar.

    python3 benchmark/run.py --workload {cohomology,char-table,verify-suites}
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh child process (``child.py``), one at a time, so
every module-level cache starts empty, as it does for a CLI user.  The run
repeats passes while the next one is expected to end within ``--seconds``;
at least one pass always runs.  Before each untraced pass it times a few
set-ups alone (import plus corpus).  With ``--trace 1`` the first half of
the time goes to untraced passes and the rest to traced ones, which give
the per-layer metrics and ``trace.overhead_ratio``.

Every time is scaled by the host's speed (``hostspeed.py``): each child
samples a fixed reference routine every 0.1 s and reports its times as
seconds on a host where the reference takes ``hostspeed.REF_S``.  The
unscaled wall-clock medians are printed too, on lines of their own.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).  Lines before it print each metric by name and unit, the failure
ratio, and the witness of every failure.  Exit code 0 once a result is
printed; 2 when the checkout has no ``src/twochar`` or the interpreter runs
with ``-O``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402  (plain data: does not import twochar)

CHILD = os.path.join(HERE, "child.py")
SPAN_DIR = os.path.join(ROOT, ".bench_out")

SETUPS_PER_PASS = 4  # set-up-only children before each untraced pass
RUN_LIMIT_S = 170.0  # the whole run ends well within 180 s, even if a pass hangs

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "largest_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class Run:
    """The passes of one benchmark run and their accounting."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.tasks_per_pass = len(workloads.task_list(args.workload, args.seed))
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: set[str] = set()
        self.setups: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, *extra: str) -> dict | None:
        """Run one child to completion; None (and a failure) when it dies,
        times out or prints no result."""
        cmd = [sys.executable, CHILD, "--workload", self.args.workload, "--seed", str(self.args.seed)]
        cmd += list(extra)
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self._lost(extra, f"child timed out after {timeout:.0f} s")
            return None
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            tail = proc.stderr.strip().splitlines()[-3:]
            self._lost(extra, f"child failed ({exc}): {' | '.join(tail)}")
            return None

    def _lost(self, extra, why: str):
        """A child that gave no result: every task it was to run failed."""
        n = 1 if "--setup-only" in extra else self.tasks_per_pass
        self.attempted += n
        self.failures.append({"task": None, "what": list(extra[:1]) or ["pass"], "error": why, "count": n})

    def passes(self, until_s: float, traced: bool) -> list[dict]:
        """Passes until the next one would end after ``until_s`` (at least
        one).  Untraced passes are each preceded by a few set-up-only
        children, so that set-up samples are spread over the whole run."""
        out, walls = [], []
        while True:
            t0 = self.elapsed()
            if not traced:
                self.setups += filter(None, (self.child("--setup-only") for _ in range(SETUPS_PER_PASS)))
            extra = ["--trace"] if traced else []
            if traced and not out:
                os.makedirs(SPAN_DIR, exist_ok=True)
                name = f"spans-{self.args.workload}-seed{self.args.seed}.tsv"
                extra += ["--spans", os.path.join(SPAN_DIR, name)]
            res = self.child(*extra)
            if res is None:
                return out
            walls.append(self.elapsed() - t0)
            self.attempted += res["attempted"]
            self.failures += res["failures"]
            self.digests.add(res["digest"])
            out.append(res)
            if self.elapsed() + statistics.median(walls) > until_s:
                return out

    def failed(self) -> int:
        return sum(f.get("count", 1) for f in self.failures)


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 − q)·n samples lie above it
    only when n ≥ 10 / (1 − q)."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    """Medians over the run; a metric with no sample (its task failed in
    every pass) is left out rather than invented."""
    latencies = [v for p in passes for v in p["latencies_ms"]]
    largest = [p["largest_s"] for p in passes if p["largest_s"] is not None]
    out = {
        "setup_s": statistics.median([s["setup_s"] for s in setups + passes]),
        "pass_s": statistics.median([p["pass_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }
    if largest:
        out["largest_s"] = statistics.median(largest)
    if latencies:
        out["query_p50_ms"] = statistics.median(latencies)
        out["query_p99_ms"] = _p(latencies, 0.99)
    return {name: out[name] for name in END_TO_END_UNITS if name in out}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    out = {n: statistics.median([t["layers"][n] for t in traced]) for n in names}
    out["trace.overhead_ratio"] = statistics.median([t["pass_s"] for t in traced]) / statistics.median(
        [u["pass_s"] for u in untraced]
    )
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O: it strips the library's checks", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "twochar", "__init__.py")):
        print(f"error: no twochar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run = Run(args)
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    untraced = run.passes(untraced_until, traced=False)
    traced = run.passes(args.seconds, traced=True) if args.trace and untraced else []
    if len(run.digests) > 1:
        run.failures.append({"task": None, "what": ["digest"], "error": f"answers differ between passes: {sorted(run.digests)}"})

    metrics: dict[str, dict] = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            values = per_layer(untraced, traced)
            metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
        else:
            values = end_to_end(run.setups, untraced)
            metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}

    attempted = max(1, run.attempted)
    failed = min(run.failed(), attempted)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name in ("setup_s", "pass_s", "largest_s"):
        walls = [r["wall"][name] for r in run.setups + untraced if r["wall"].get(name) is not None]
        if walls:
            print(f"wall {name} = {statistics.median(walls)!r} s (unscaled)")
    if untraced:
        factors = [r["host_factor"] for r in untraced]
        print(f"host speed factor: median {statistics.median(factors):.3f} over {len(factors)} passes")
    print(f"fail_ratio = {failed / attempted!r} 1 ({failed} of {attempted})")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; set-ups timed: {len(run.setups) + len(untraced)}")
    for f in run.failures:
        print(f"FAILED: {json.dumps(f, ensure_ascii=False)}")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
