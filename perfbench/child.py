"""One workload run in a fresh process.

A single client drives ``heffter.cli.main(argv)`` in a closed loop: the
next request is sent only after the previous one returns.  Whole passes
run until ``--seconds`` have elapsed (at least one), or exactly
``--passes`` passes when given, so one run can replay another; ``--max-jobs``
stops a replay early.
The run checks every output and writes its measurements as JSON to
``--result``.  Run it through ``run.py``, which also prints the metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

GOLDEN_DIR = os.path.join("tests", "data")
# golden file -> the PARAMS the construct reports for it
GOLDENS = {
    "h17_12.txt": {"family": "h4p", "n": "17", "p": "3"},
    "h17_16.txt": {"family": "h4p", "n": "17", "p": "4"},
    "h17_12_3.txt": {"family": "shifted", "n": "17", "p": "3", "gamma": "3", "alpha": "6"},
    "h17_15.txt": {"family": "h4p3", "n": "17", "p": "3", "alpha": "8"},
}
_PARAMS = re.compile(r"^PARAMS (.*)$", re.MULTILINE)
_COMPLETE = re.compile(r"^(rows|cols): .* complete$", re.MULTILINE)


class Client:
    """Sends requests, times them and checks their answers."""

    def __init__(self, cli_main, workdir, goldens, tracer=None):
        self.cli_main = cli_main
        self.goldens = goldens
        self.tracer = tracer
        self.paths = {k: os.path.join(workdir, k) for k in ("grid.txt", "mutant.txt",
                                                             "rows.cyc", "cols.cyc")}
        self.latency = defaultdict(list)
        self.attempted = 0
        self.failed = []
        self.errors = []

    def send(self, argv, expect=0):
        """Run one request; a non-zero exit where 0 was expected is a failure."""
        out, err = io.StringIO(), io.StringIO()
        request_id = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = self.cli_main(argv)
                else:
                    code = self.tracer.request(request_id, f"cli.{argv[0]}", self.cli_main, argv)
            except Exception:  # a crash is a failed request, not the end of the run
                traceback.print_exc()
                code = -1
        elapsed = time.perf_counter() - start
        self.latency[argv[0]].append(elapsed)
        if code != 0 and expect == 0:
            self.failed.append({"argv": argv, "exit": code, "stderr": err.getvalue()[-300:]})
        return code, out.getvalue(), err.getvalue()

    def error(self, message, argv):
        self.errors.append(f"{message}: heffter {' '.join(argv)}")

    def run_job(self, job, mutate):
        """Run one job's requests and check every answer."""
        grid, mutant = self.paths["grid.txt"], self.paths["mutant.txt"]
        construct = ["construct", *job.construct, "--out", grid]
        code, _, err = self.send(construct)
        if code != 0:
            return
        self._check_golden(construct, err, grid)
        verify = ["verify", grid, *job.verify]
        if self.send(verify)[0] != 0:
            self.error("accepted construct rejected by its verify", verify)
            return
        if job.mutation:
            with open(grid, encoding="utf-8") as fh:
                text = mutate(fh.read(), job.mutation, job.mutation_seed)
            with open(mutant, "w", encoding="utf-8") as fh:
                fh.write(text)
            verify = ["verify", mutant, *job.verify]
            code = self.send(verify, expect=1)[0]
            if code != 1:
                self.error(f"{job.mutation} mutant exited {code}, not 1", verify)
        if job.cycles:
            # the array has just passed its own verify, so anything but two
            # complete, orthogonal systems is a wrong answer, whatever the exit code
            rows, cols = self.paths["rows.cyc"], self.paths["cols.cyc"]
            argv = ["decompose", grid, "--rows-out", rows, "--cols-out", cols]
            code, out, _ = self.send(argv)
            if len(_COMPLETE.findall(out)) != 2:
                self.error(f"decompose exited {code} without both systems complete", argv)
                return
            argv = ["orthogonality", rows, cols]
            code, out, _ = self.send(argv)
            if not out.startswith("ORTHOGONAL max-shared-edges=1 "):
                self.error(f"orthogonality exited {code} and printed {out.strip()!r}", argv)

    def _check_golden(self, argv, stderr, path):
        match = _PARAMS.search(stderr)
        if match is None:
            self.error("construct printed no PARAMS line", argv)
            return
        params = dict(kv.split("=", 1) for kv in match.group(1).split())
        for name, want in GOLDENS.items():
            if all(params.get(k) == v for k, v in want.items()):
                with open(path, "rb") as fh:
                    if fh.read() != self.goldens[name]:
                        self.error(f"output differs from golden {name}", argv)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--max-jobs", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    # the two CPUs of a shared host can differ in speed by a tenth, so every
    # run stays on the same one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import heffter.cli
    import spans
    import workloads

    goldens = {}
    for name in GOLDENS:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            goldens[name] = fh.read()
    pending = workloads.make_pass(args.workload, args.seed, 0)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        client = Client(heffter.cli.main, args.workdir, goldens, tracer)
        pass_s, job_s = [], []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            if args.max_jobs is not None:
                pending = pending[:args.max_jobs - len(job_s)]
            for job in pending:
                job_start = time.perf_counter()
                client.run_job(job, workloads.mutate)
                job_s.append(time.perf_counter() - job_start)
            pass_s.append(time.perf_counter() - start)
            done = time.perf_counter() - begin
            if args.max_jobs is not None and len(job_s) >= args.max_jobs:
                break
            if (len(pass_s) >= args.passes) if args.passes else (done >= args.seconds):
                break
            pending = workloads.make_pass(args.workload, args.seed, len(pass_s))
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
        result.update(
            pass_s=pass_s,
            latency=client.latency,
            job_s=job_s,
            attempted=client.attempted,
            failed=client.failed,
            errors=client.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
