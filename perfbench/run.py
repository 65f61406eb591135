"""Cold-run benchmark of the ktforest pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ktforest source tree.  One operation is one cold
pipeline run (`cli.parse_spec`, `cli.run`, `cli.emit`) in a fresh
interpreter on the workload's spec; it fails when its process fails or an
output check of `inputs.check_report` does not hold.  A run repeats whole
rounds until the next round would pass S seconds, and prints one JSON
object as its last line.  A round starts one operation on each of the
first two CPUs at once, then SETUP_PROBES pairs of set-up-only starts, which
also time the calibration kernel.  With --trace 0 it reports the
end-to-end metrics:

  verdict_s     time from a parsed spec to the report
  setup_s       time from interpreter start to a parsed spec
  peak_rss_mib  median peak resident memory of an operation's process

Both times are cut into pieces at each garbage collection; a run's time is
the sum of each piece's fastest time among its starts, scaled by
CALIBRATION_S over the calibration kernel's time taken the same way.
With --trace 1 every operation runs with `tracing.instrument()` and the run
reports the per-layer metrics: seconds as the fastest operation's, counts
as they must repeat exactly in every operation.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXAMPLES = SRC / "ktforest" / "examples"

SETUP_PROBES = 3
MIN_OPERATIONS = 3
TAYLOR_DRAW_SEED = 0  # the monomials of taylor4-k5; see README "Seeds and inputs"
CHILD_TIMEOUT_S = 100
# children run two at a time, one pinned to each CPU: the host's fast
# changes of speed differ between the CPUs, so each piece gets twice the
# chances to run fast (README, "Noise study")
CPUS = sorted(os.sched_getaffinity(0))[:2]
HASH_SEED = "0"  # the same in every start, so that their pieces line up
# calibration kernel time that makes the scale 1; see calibration.py
CALIBRATION_S = 0.085

WORKLOADS = ("quadratic-lr-k7", "taylor4-k5", "exactness-cap12")


def workload_spec(name: str, seed: int) -> str:
    """The spec text of a workload; the seed renames its symbols."""
    if name == "quadratic-lr-k7":
        text = inputs.set_options((EXAMPLES / "quadratic.kt").read_text(),
                                  mode="explicit", neg_degree_max=7)
    elif name == "taylor4-k5":
        gens = inputs.random_minimal_monomials(random.Random(TAYLOR_DRAW_SEED))
        text = inputs.taylor_spec(gens, neg_degree_max=5, poly_cap=sum(inputs.lcm(gens)))
    elif name == "exactness-cap12":
        text = inputs.set_options((EXAMPLES / "monomial_ideal.kt").read_text(),
                                  mode="explicit", neg_degree_max=4, poly_cap=12)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inputs.rename(text, inputs.seeded_prefix(seed))


def launch(spec_path: Path, *flags: str) -> list:
    """Start one cold child per CPU in CPUS at once, each pinned to its CPU.

    Returns what each child printed, or its error.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    children = []
    try:
        for cpu in CPUS:
            start = time.perf_counter()
            children.append(subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), repr(start), *flags],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu})))
        outputs = [child.communicate(timeout=CHILD_TIMEOUT_S) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    results = []
    for child, (stdout, stderr) in zip(children, outputs):
        if child.returncode != 0:
            results.append({"error": stderr.strip().splitlines()[-1:]
                            or [f"exit {child.returncode}"]})
        else:
            results.append(json.loads(stdout.splitlines()[-1]))
    return results


def piece_minima(runs: list) -> list:
    """Each piece's fastest time among runs cut alike.

    Runs are grouped by their number of pieces and the largest group counts
    (the first such group on a tie); in it, piece i is the same work in
    every run.
    """
    groups = {}
    for run_pieces in runs:
        groups.setdefault(len(run_pieces), []).append(run_pieces)
    return [min(column) for column in zip(*max(groups.values(), key=len))]


def prepare(name: str, seed: int):
    """Write the workload's spec file; return its path and the checks' facts."""
    OUT.mkdir(exist_ok=True)
    spec_path = OUT / f"{name}-seed{seed}.kt"
    text = workload_spec(name, seed)
    spec_path.write_text(text)
    return spec_path, dict(inputs.spec_facts(text), taylor=name.startswith("taylor"))


def operate(spec_path: Path, facts: dict, *flags: str) -> list:
    """One checked operation per CPU; an operation's "problems" list is empty
    when it passed."""
    ops = launch(spec_path, *flags)
    for op in ops:
        op["problems"] = op.get("error") or inputs.check_report(op["parsed"], facts)
    return ops


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec_path, facts = prepare(name, seed)
    flags = ("--trace",) if traced else ()

    launch(spec_path, "--setup-only")  # writes the bytecode caches once
    started = time.perf_counter()
    ops, setups, longest = [], [], 0.0
    while len(ops) < MIN_OPERATIONS or time.perf_counter() - started + longest <= seconds:
        round_start = time.perf_counter()
        ops.extend(operate(spec_path, facts, *flags))
        if not traced:
            for _ in range(SETUP_PROBES):
                setups.extend(probe for probe in launch(spec_path, "--setup-only")
                              if "setup_s" in probe)
        longest = max(longest, time.perf_counter() - round_start)

    good = [op for op in ops if not op["problems"]]
    if not good:
        raise RuntimeError(f"every operation failed: {ops[0]['problems']}")
    digests = {hashlib.sha256(op["report"].encode()).hexdigest() for op in good}
    correct = len(digests) == 1
    record_times = {}
    if traced:
        counts = {json.dumps(op["layers"]["counts"], sort_keys=True) for op in good}
        correct = correct and len(counts) == 1
        metrics = {k: {"value": min(op["layers"]["seconds"][k] for op in good), "unit": "s"}
                   for k in good[0]["layers"]["seconds"]}
        metrics.update({k: {"value": v, "unit": "count"}
                        for k, v in good[0]["layers"]["counts"].items()})
        fastest = min(good, key=lambda op: op["verdict_s"])
        metrics["trace.verdict_s"] = {"value": fastest["verdict_s"], "unit": "s"}
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(fastest["trace"]))
    else:
        calibration_s = sum(piece_minima([probe["calibration_pieces"] for probe in setups]))
        scale = CALIBRATION_S / calibration_s
        setups.extend(good)
        setup_s = (min(start["start_s"] for start in setups)
                   + sum(piece_minima([start["setup_pieces"] for start in setups])))
        verdict_s = sum(piece_minima([op["verdict_pieces"] for op in good]))
        record_times = {"calibration_s": calibration_s, "unscaled_verdict_s": verdict_s,
                        "unscaled_setup_s": setup_s}
        metrics = {
            "verdict_s": {"value": verdict_s * scale, "unit": "s"},
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(op["peak_rss_mib"] for op in good),
                             "unit": "MiB"},
        }
    record = {
        "workload": name, "seed": seed, "trace": int(traced), "digests": sorted(digests),
        "operations": [{k: op.get(k) for k in ("setup_s", "verdict_s", "peak_rss_mib",
                                               "problems")} for op in ops],
        "setup_s": [start["setup_s"] for start in setups],
        "pieces": {"setup": sorted({len(start.get("setup_pieces", ())) for start in setups}),
                   "verdict": sorted({len(op.get("verdict_pieces", ())) for op in good})},
        **record_times,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1))
    for op in ops:
        if op["problems"]:
            print(f"failed operation: {op['problems']}", file=sys.stderr)
    return {"correct": correct, "attempted": len(ops),
            "failed": len(ops) - len(good), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops and waits for its children (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ktforest" / "cli.py").is_file():
        print(f"no ktforest sources under {SRC}; run from a ktforest source tree",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
