"""Every function the benchmark's tracer wraps must still exist where it looks.

``perfbench/spans.py`` patches names where their callers look them up, so a
rename or a dropped import in the package would break ``--trace 1`` only when
the benchmark runs.  The module is imported by path, as the benchmark does.
"""

import importlib.util
import pathlib

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

