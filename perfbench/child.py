"""One cold pipeline run in a fresh interpreter.

    python3 perfbench/child.py SPEC LAUNCH_TIME [--setup-only] [--trace]

LAUNCH_TIME is the parent's `time.perf_counter()` just before it started
this process (CLOCK_MONOTONIC, shared by both processes on Linux).  Prints
one JSON line: set-up and verdict seconds, peak resident memory, the text
report and its parsed form; with --trace also the per-layer metrics and
the trace (per-function totals and stage spans).  With
--setup-only it stops after set-up and runs the calibration kernel.

Set-up and verdict time are also cut into pieces at the start of every
garbage collection.  The collector runs after a fixed count of
allocations, so under a fixed PYTHONHASHSEED the pieces of two runs of one
spec are the same work, and the parent can take each piece's fastest time.
"""

import gc
import time

clock = time.perf_counter
MAIN = clock()
MARKS = []


def _mark(phase, info, marks=MARKS, clock=clock):
    if phase == "start":
        marks.append(clock())


gc.callbacks.append(_mark)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def pieces(start: float, end: float) -> list:
    """Lengths of the intervals from start to end cut at each collection."""
    cuts = [start] + [m for m in MARKS if start < m < end] + [end]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("launch", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.instrument()
    from ktforest import cli

    spec = cli.parse_spec(args.spec)
    parsed = clock()
    out = {"setup_s": parsed - args.launch, "start_s": MAIN - args.launch,
           "setup_pieces": pieces(MAIN, parsed)}
    if args.setup_only:
        gc.callbacks.remove(_mark)
        import calibration

        out["calibration_pieces"] = calibration.pieces()
    else:
        report = cli.run(spec)
        text = cli.emit(report, "text")
        done = clock()
        gc.callbacks.remove(_mark)
        out["verdict_s"] = done - parsed
        out["verdict_pieces"] = pieces(parsed, done)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["report"] = text
        out["parsed"] = report.to_dict()
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, spec)
        out["trace"] = tracing.aggregate(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
