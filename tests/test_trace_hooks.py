"""The benchmark tracer (bench/spans.py) rebinds package names; they must exist."""

import importlib.util
from pathlib import Path

from conftest import crown_curve
from rhombidome import surface
from rhombidome.cobordism import reduce_to_rhombi

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("rhombidome_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_restore():
    spans = _load_spans()
    hooks = list(spans.SPANNED) + [(module, attr) for module, attr, _ in spans.COUNTED]
    originals = [getattr(module, attr) for module, attr in hooks]
    curve = crown_curve()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(hooks, originals))
        # the crown's reduction, which takes the fallback, calls ``dist``;
        # the checker alone does not
        report = tracer.item_span(
            0, lambda: surface.validate_ledger(reduce_to_rhombi(curve)))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(hooks, originals))
    assert report.passed
    names = {span[0] for span in tracer.spans}
    assert {"surface.validate_ledger", "surface.assemble_from_ledger",
            "surface.signed_segment_counts"} <= names
    assert tracer.counts["geom.dist.calls"] > 0
    assert "surface.seam_pairs" in tracer.counts
