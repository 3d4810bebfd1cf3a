"""Tests of the benchmark's own helpers: inputs, mutations and span arithmetic.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import sys

import pytest

import child
import run
import spans
import workloads
from heffter import construct4p, shifted
from heffter.gridio import grid_from_text, grid_to_text
from heffter.verify import verify_globally_simple, verify_heffter, verify_support_shifted

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_pass(workload, 7, 2) == workloads.make_pass(workload, 7, 2)
    assert workloads.make_pass(workload, 7, 2) != workloads.make_pass(workload, 8, 2)
    assert workloads.make_pass(workload, 7, 2) != workloads.make_pass(workload, 7, 3)


def test_certify_slots_keep_their_work_targets():
    for seed in range(20):
        jobs = workloads.certify_pass(seed, 0)[1:]
        for job, (family, work) in zip(jobs, workloads.CERTIFY_SLOTS):
            opts = dict(zip(job.construct[::2], job.construct[1::2]))
            n, p = int(opts["--n"]), int(opts["--p"])
            assert opts["--family"] == family
            assert 150 <= n <= 400
            assert abs(n * n * 4 * p / work - 1) < 0.05


@pytest.mark.parametrize("kind", workloads.MUTATIONS)
@pytest.mark.parametrize("seed", range(5))
def test_every_mutation_is_rejected(kind, seed):
    arrays = [
        (construct4p.build_h4p(13, 3), lambda g: verify_heffter(g).overall
         and verify_globally_simple(g).overall),
        (shifted.build_shifted(11, 2, 3, 5), lambda g: verify_support_shifted(g, 2, 3).overall),
    ]
    for grid, accepts in arrays:
        text = grid_to_text(grid)
        assert accepts(grid_from_text(text))
        mutant = workloads.mutate(text, kind, seed)
        assert mutant != text
        assert not accepts(grid_from_text(mutant))


def _span(sid, parent, start, end, name="x", req=0):
    return {"id": sid, "parent": parent, "req": req, "name": name, "start": start, "end": end,
            "ok": True, "count": None}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),   # overlaps span 1: union of 1 and 2 is [1, 6]
        _span(3, 0, 8.0, 9.0),
        _span(4, 1, 1.5, 2.0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(0.5)


def test_self_times_add_up_to_the_request_without_overlap():
    tree = [_span(0, None, 0.0, 5.0), _span(1, 0, 1.0, 2.0), _span(2, 1, 1.2, 1.4),
            _span(3, 0, 3.0, 4.5)]
    assert spans.request_balance(tree, spans.self_times(tree)) == pytest.approx(0.0)


def test_tracer_records_nested_spans_and_restores_functions():
    tracer = spans.Tracer()
    original = construct4p.build_h4p
    tracer.install({"construct4p.build_h4p": (["heffter.construct4p.build_h4p"], None),
                    "grid.line_cells": (["heffter.grid:HeffterGrid.line_cells"], None)})
    try:
        grid = tracer.request(0, "cli.construct", lambda: construct4p.build_h4p(12, 3))
        grid.line_cells("row", 0)
    finally:
        tracer.uninstall()
    assert construct4p.build_h4p is original
    names = [(s[3], s[1]) for s in tracer.spans]
    assert names == [("cli.construct", None), ("construct4p.build_h4p", 0),
                     ("grid.line_cells", None)]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _fake_cli(decompose_out, decompose_code, orthogonality_out, orthogonality_code):
    """A stand-in for ``heffter.cli.main`` whose cycle commands answer as given."""
    def main(argv):
        command = argv[0]
        if command == "construct":
            with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
                fh.write("grid\n")
            print("PARAMS family=h4p n=13 p=3", file=sys.stderr)
            return 0
        if command == "decompose":
            print(decompose_out, end="")
            return decompose_code
        if command == "orthogonality":
            print(orthogonality_out, end="")
            return orthogonality_code
        return 0
    return main


COMPLETE = ("rows: 20 cycles of length 3 on Z_61, complete\n"
            "cols: 20 cycles of length 3 on Z_61, complete\n")
CYCLES_JOB = workloads.Job(("--family", "h4p", "--n", "13", "--p", "3"),
                           ("--level", "globally-simple"), cycles=True)


def test_client_accepts_two_orthogonal_systems(tmp_path):
    answers = (COMPLETE, 0, "ORTHOGONAL max-shared-edges=1 worst-pair=0,0\n", 0)
    client = child.Client(_fake_cli(*answers), str(tmp_path), {})
    client.run_job(CYCLES_JOB, workloads.mutate)
    assert client.errors == [] and client.failed == []


@pytest.mark.parametrize("answers", [
    (COMPLETE, 0, "NOT ORTHOGONAL max-shared-edges=2 worst-pair=3,5\n", 1),
    (COMPLETE, 0, "", 2),
    ("rows: 20 cycles of length 3 on Z_61, missing 6 edges\n" + COMPLETE.splitlines()[1],
     1, "", 0),
    ("", 1, "", 0),
])
def test_client_counts_a_wrong_cycle_answer_as_an_error(tmp_path, answers):
    client = child.Client(_fake_cli(*answers), str(tmp_path), {})
    client.run_job(CYCLES_JOB, workloads.mutate)
    assert len(client.errors) == 1


def test_replay_takes_the_jobs_that_fit():
    margin, slowdown = run.REPLAY_MARGIN_S, run.REPLAY_SLOWDOWN
    assert run.replay_jobs([1.0, 2.0, 3.0], margin + 6.0 * slowdown) == 3
    assert run.replay_jobs([1.0, 2.0, 3.0], margin + 5.0 * slowdown) == 2
    assert run.replay_jobs([10.0], margin) == 0
