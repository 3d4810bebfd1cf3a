"""Benchmark of the ``heffter`` CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload runs in a fresh child process
(``child.py``) that imports the package from ``src/``.  Set-up time is the
median of several fresh set-ups.  With ``--trace 1`` a traced run, whose
spans go to ``.perfbench_out/`` as JSON lines and give the per-layer table,
is followed by an untraced replay of as many of its jobs as the time left
allows; the two give the tracing overhead.

The output is a table of every metric with its unit and sample count, then
one JSON line with ``correct``, ``attempted``, ``failed`` and the metrics
(end-to-end without tracing, per-layer with it).  Wrong answers make the
command exit 1; requests that merely fail are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_RUNS = 21
DEADLINE_S = 175.0
# The untraced replay of a traced run takes the jobs that fit in the time
# left, less a margin, if each ran up to this factor slower than traced.
REPLAY_SLOWDOWN = 1.25
REPLAY_MARGIN_S = 5.0

# Metrics in the final JSON line; they match BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed on every run but bounded nowhere: verify, decompose and
# orthogonality do not run in every workload, construct takes milliseconds in
# cycles, and a median over a few requests moved with the host's speed by more
# than the largest allowed bound.
LATENCIES = {"construct_p50_s": "construct", "verify_p50_s": "verify",
             "decompose_p50_s": "decompose", "orthogonality_p50_s": "orthogonality"}
PER_LAYER = [
    "grid.line_cells.calls", "grid.line_cells.s", "grid.line_sum.calls", "grid.line_sum.s",
    "grid.partial_sums.calls", "grid.partial_sums.s",
    "verify.verify_heffter.s", "verify.verify_integer.s", "verify.verify_globally_simple.s",
    "verify.verify_support_shifted.s", "verify.cells_per_s",
    "gridio.grid_to_text.s", "gridio.grid_from_text.s", "gridio.bytes",
    "construct4p.build_h4p.s", "shifted.build_shifted.s",
    "h3.build_h3_base.calls", "h3.build_h3_base.s", "h3.build_h3_base.failed",
    "h3.repeat_ratio", "h3.relocate_h3.s", "h3.cyclic_shift.s",
    "merge.build_h4p3.self_s", "merge.full_verify_calls", "merge.accept_ratio",
    "decompose.base_cycle.s", "decompose.develop.s", "decompose.orthogonality.s",
    "decompose.write_system.s", "decompose.read_system.s", "decompose.edges_indexed",
    "cli.construct.self_s", "cli.verify.self_s", "cli.decompose.self_s",
    "cli.orthogonality.self_s",
    "trace.overhead_frac",
    "construct_p50_s", "verify_p50_s", "decompose_p50_s", "orthogonality_p50_s",
    "failed_frac",
]
# |sum of self times - request span| allowed per request (float rounding)
BALANCE_TOLERANCE_S = 1e-6


class BenchError(Exception):
    pass


def child(workload, seed, workdir, name, deadline, *extra):
    """Run child.py once and return its result; raise BenchError on any failure."""
    result = os.path.join(workdir, f"{name}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir, "--result", result, *map(str, extra)]
    env = {k: v for k, v in os.environ.items() if k != "HEFFTER_SEARCH_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {name}")
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} run did not finish within the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{name} run exited {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def replay_jobs(job_s, time_left):
    """How many leading jobs of a traced run an untraced replay can afford."""
    budget = (time_left - REPLAY_MARGIN_S) / REPLAY_SLOWDOWN
    spent = 0.0
    for count, seconds in enumerate(job_s):
        spent += seconds
        if spent > budget:
            return count
    return len(job_s)


def end_to_end(setups, run):
    latency = run["latency"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(run["pass_s"]), "s", len(run["pass_s"])),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    for name, command in LATENCIES.items():
        samples = latency.get(command, [])
        metrics[name] = (statistics.median(samples) if samples else 0.0, "s", len(samples))
    failed = len(run["failed"])
    metrics["failed_frac"] = (failed / run["attempted"], "ratio", run["attempted"])
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics as name -> (value, unit, samples))."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [child(workload, seed, workdir, f"setup{i}", deadline, "--setup-only")["setup_s"]
                  for i in range(SETUP_RUNS)]
        if not trace:
            plain = child(workload, seed, workdir, "plain", deadline, "--seconds", seconds)
            metrics = end_to_end(setups, plain)
            metrics = {name: metrics[name] for name in list(END_TO_END) + list(LATENCIES)
                       + ["failed_frac"]}
            run, errors = plain, list(plain["errors"])
        else:
            span_file = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
            traced = child(workload, seed, workdir, "traced", deadline, "--seconds", seconds,
                           "--trace", 1, "--spans", span_file)
            jobs = replay_jobs(traced["job_s"], deadline - time.monotonic())
            if jobs == 0:
                raise BenchError("no time left for the untraced replay")
            plain = child(workload, seed, workdir, "plain", deadline,
                          "--passes", len(traced["pass_s"]), "--max-jobs", jobs)
            run, errors = traced, traced["errors"] + plain["errors"]
            recorded = spans.read_spans(span_file)
            own = spans.self_times(recorded)
            balance = spans.request_balance(recorded, own)
            if balance > BALANCE_TOLERANCE_S:
                errors.append(f"self times miss a request span by {balance:.3g} s")
            layers = spans.layer_metrics(recorded)
            overhead = sum(traced["job_s"][:jobs]) / sum(plain["job_s"]) - 1
            layers["trace.overhead_frac"] = (overhead, "ratio", jobs)
            # request latencies as measured without tracing; failures from
            # the traced run, which covers every job
            untraced = end_to_end(setups, plain)
            for name in LATENCIES:
                layers[name] = untraced[name]
            layers["failed_frac"] = (len(traced["failed"]) / traced["attempted"], "ratio",
                                     traced["attempted"])
            metrics = {name: layers[name] for name in PER_LAYER}
            print(f"spans: {len(recorded)} in {span_file}; self times add up to each of "
                  f"{traced['attempted']} request spans within {balance:.2g} s; "
                  f"untraced replay of {jobs} of {len(traced['job_s'])} jobs; "
                  f"{deadline - time.monotonic():.0f} s of {DEADLINE_S:.0f} s left")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}  seed {seed}  passes {len(run['pass_s'])}  "
          f"requests {run['attempted']}  failed {len(run['failed'])}")
    for failure in run["failed"]:
        print(f"  failed (exit {failure['exit']}): heffter {' '.join(failure['argv'])}")
    for error in errors:
        print(f"  WRONG: {error}")
    print(f"{'metric':34} {'value':>14}  {'unit':6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:34} {value:14.6g}  {unit:6} {samples}")
    return not errors, run["attempted"], len(run["failed"]), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # exit through the finally clauses, which stop a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "heffter", "cli.py")):
        print("error: run from the repository root; src/heffter is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in names:
        try:
            ok, attempted, failed, metrics = run_workload(workload, args.seed, args.seconds,
                                                          args.trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        keys = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({
            "correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
        }), flush=True)
        correct = correct and ok
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
