"""Every function the benchmark's tracer wraps must still exist where it looks.

``perfbench/spans.py`` patches names where their callers look them up, so a
rename or a dropped import in the package would break ``--trace 1`` only when
the benchmark runs.  The same holds for its work counters, which read the
arguments and results of the wrapped calls.  The module is imported by path,
as the benchmark does.
"""

import importlib.util
import pathlib

from heffter import merge
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
