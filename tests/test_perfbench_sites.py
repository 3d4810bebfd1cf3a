"""Every function the benchmark's tracer wraps must still exist where it looks.

``perfbench/spans.py`` patches names where their callers look them up, so a
rename or a dropped import in the package would break ``--trace 1`` only when
the benchmark runs.  The same holds for its work counters, which read the
arguments and results of the wrapped calls.  The module is imported by path,
as the benchmark does.
"""

import importlib.util
import pathlib
import sys

import pytest

from heffter import merge
from heffter.cli import main
from heffter.decompose import develop, write_system
from heffter.gridio import grid_from_text

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_resolves():
    spans = _load_spans()
    sites = [site for names, _ in spans.PATCHES.values() for site in names]
    assert sites
    for site in sites:
        owner, attr = spans._resolve(site)
        assert callable(getattr(owner, attr, None)), site


def test_every_work_counter_reads_a_real_result(tmp_path, data_dir):
    spans = _load_spans()
    grid_text = (data_dir / "h17_12.txt").read_text(encoding="utf-8")
    grid = grid_from_text(grid_text)
    cycle_file = tmp_path / "cycles.txt"
    write_system(cycle_file, develop([(0, 1, 3)], 7))
    real_args = {
        "verify.verify_heffter": (grid,),
        "verify.verify_integer": (grid,),
        "verify.verify_globally_simple": (grid,),
        "verify.verify_support_shifted": (grid, 3, 0),
        "gridio.grid_to_text": (grid,),
        "gridio.grid_from_text": (grid_text,),
        "h3.build_h3_base": (9,),
        "decompose.develop": ([(0, 1, 3)], 7),
        "decompose.read_system": (cycle_file,),
    }
    counted = {name: count for name, (_, count) in spans.PATCHES.items() if count}
    assert set(counted) == set(real_args)
    for name, count in counted.items():
        owner, attr = spans._resolve(spans.PATCHES[name][0][0])
        args = real_args[name]
        result = getattr(owner, attr)(*args)
        assert isinstance(count(args, result), int), name
        assert isinstance(count(args, None), int), name  # what the tracer passes when a call raises
    develop_args = real_args["decompose.develop"]
    assert counted["decompose.develop"](develop_args, develop(*develop_args)) == 21


def test_one_merge_calls_each_traced_merge_site_once(monkeypatch):
    # merge.full_verify_calls and h3.cyclic_shift.s count these calls
    spans = _load_spans()
    attrs = [site.split(".")[-1] for names, _ in spans.PATCHES.values() for site in names
             if site.startswith("heffter.merge.")]
    assert "cyclic_shift" in attrs and "verify_globally_simple" in attrs
    calls = dict.fromkeys(attrs, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in attrs:
        monkeypatch.setattr(merge, attr, counted(attr, getattr(merge, attr)))
    merge.build_h4p3(28, 3)
    assert calls == dict.fromkeys(attrs, 1)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", SPANS.parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_requests_keep_their_exit_codes(tmp_path, capsys, seed):
    # a CLI change that turns benchmark traffic into failures must fail here,
    # not only in the benchmark's failed share
    workloads = _load_workloads()
    path = str(tmp_path / "grid.txt")
    for workload in workloads.WORKLOADS:
        for job in workloads.make_pass(workload, seed, 0):
            flags = dict(zip(job.construct[::2], job.construct[1::2]))
            # H(4p+4;4p+3) has no admissible (eps, alpha), a usage error
            refused = flags["--family"] == "h4p3" and int(flags["--n"]) == 4 * int(flags["--p"]) + 4
            code = main(["construct", *job.construct, "--out", path])
            out, _ = capsys.readouterr()
            assert (code, out) == ((2, "") if refused else (0, "")), (workload, job.construct)
            if not refused:
                assert main(["verify", path, *job.verify]) == 0, (workload, job.construct)
                capsys.readouterr()
            if job.cycles:
                rows, cols = str(tmp_path / "rows.cyc"), str(tmp_path / "cols.cyc")
                code = main(["decompose", path, "--rows-out", rows, "--cols-out", cols])
                out, _ = capsys.readouterr()
                assert code == 0 and out.count(", complete\n") == 2, job.construct
                code = main(["orthogonality", rows, cols])
                out, _ = capsys.readouterr()
                assert code == 0 and out.startswith("ORTHOGONAL max-shared-edges=1 "), job.construct
