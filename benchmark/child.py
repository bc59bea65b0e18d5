"""One cold pass (or one set-up alone) in a fresh process.

    python3 benchmark/child.py --workload W --seed N [--setup-only]
        [--trace --spans FILE] [--print-pins]

Imports ``twochar`` from the checkout's ``src/`` (never an installed copy),
builds the corpus, runs the workload's tasks once, checks the answers
(against ``pinned.json`` where they are pinned) and prints one JSON line.
``run.py`` starts it; it can also be run by hand.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from hostspeed import MIN_SAMPLES, HostSpeed  # noqa: E402

HOST = HostSpeed()
HOST.start()
_T0 = HOST.now()  # set-up is timed from here: before twochar is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_twochar():
    sys.path.insert(0, SRC)
    import twochar
    import twochar.cli  # noqa: F401  (loads every module the tracer may patch)

    where = os.path.realpath(os.path.dirname(twochar.__file__))
    if where != os.path.realpath(os.path.join(SRC, "twochar")):
        raise ImportError(f"twochar was imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    if not __debug__:
        print("refusing to run under python -O: it strips the library's checks", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--print-pins", action="store_true", help="print this pass's pins and exit")
    args = p.parse_args(argv)

    import workloads as wl

    _import_twochar()
    corpus = wl.build_corpus(args.workload)
    setup_end = HOST.now()
    wall = {"setup_s": setup_end - _T0}
    if args.setup_only:
        HOST.stop()
        for _ in range(MIN_SAMPLES):  # set-up is shorter than a few sampling intervals
            HOST.sample()
        print(json.dumps({
            "setup_s": HOST.scaled(wall["setup_s"], _T0, setup_end),
            "wall": wall,
            "peak_rss_mb": _peak_rss_mb(),
        }))
        return 0

    tasks = wl.task_list(args.workload, args.seed)
    state = wl.PassState(args.workload, args.seed, corpus)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(clock=HOST.now)
        tracer.install()
        try:
            outcome = wl.run_pass(state, tasks, clock=HOST.now, quiet=HOST.held)
        finally:
            cache_deltas = tracer.uninstall()
    else:
        outcome = wl.run_pass(state, tasks, clock=HOST.now, quiet=HOST.held)
    HOST.stop()
    peak_rss_mb = _peak_rss_mb()
    if args.print_pins:
        print(json.dumps(wl.pins_from_pass(state), indent=1, ensure_ascii=False))
        return 0

    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)[args.workload]
    failures = wl.check_pass(state, tasks, outcome, pinned)
    largest = wl.LARGEST[args.workload]
    largest_s = outcome["task_s"].get(largest)
    pass_factor = HOST.factor(outcome["start"], outcome["end"])
    wall.update(pass_s=outcome["pass_s"], largest_s=largest_s)
    if largest_s is not None:
        t0 = outcome["task_t"][largest]
        largest_s = HOST.scaled(largest_s, t0, t0 + largest_s)
    result = {
        "setup_s": HOST.scaled(wall["setup_s"], _T0, setup_end),
        "pass_s": outcome["pass_s"] * pass_factor,
        "largest_s": largest_s,
        "latencies_ms": [
            HOST.scaled(ms, t0, t0) for ms, t0 in zip(outcome["latencies_ms"], outcome["query_t"])
        ],
        "wall": wall,
        "host_factor": pass_factor,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(tasks),
        "failures": failures,
        "digest": wl.answers_digest(state, tasks),
    }
    if tracer is not None:
        cli_times = {label: outcome["task_s"].get(("cli", label), 0.0) for label in wl.CLI_LABELS}
        layers = tracing.layer_metrics(tracer, cache_deltas, cli_times)
        # layer seconds on the same scale as pass_s
        result["layers"] = {k: v * pass_factor if k.endswith("_s") else v for k, v in layers.items()}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
