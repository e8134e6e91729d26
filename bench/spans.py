"""In-memory span tracer that instruments rhombidome by rebinding module names.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces public
module attributes (``cobordism.pentagon_split``, ``surface.assemble_from_ledger``,
``moduli.pairing_gram``, ...) with timing wrappers and :meth:`Tracer.uninstall`
puts the originals back.  Callers inside the package look these names up in
their module's globals at call time, so the wrappers see every internal call.

Hot tiny functions (``geom.dist`` at its import sites in ``cobordism`` and
``surface``, and ``moduli.symplectic_pairing``) get counter-only wrappers:
timing each ``dist`` call would add more time than it measures.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from rhombidome import cli, cobordism, files, moduli, surface

# (module, attribute) pairs that get a span; the span name is "<layer>.<attr>".
SPANNED = [
    (cli, "main"),
    (cobordism, "reduce_to_rhombi"),
    (cobordism, "steinitz_order"),
    (cobordism, "pentagon_split"),
    (surface, "validate_ledger"),
    (surface, "assemble_from_ledger"),
    (surface, "signed_segment_counts"),
    (files, "write_ledger"),
    (files, "read_ledger"),
    (files, "ledger_to_obj"),
    (files, "ledger_from_obj"),
    (files, "dump_json"),
    (moduli, "isotropy_certificate"),
    (moduli, "realize_surface"),
    (moduli, "surface_tangent_basis"),
    (moduli, "polygon_tangent_basis"),
    (moduli, "pairing_gram"),
]

# (module, attribute, counter name): counted, never timed.
COUNTED = [
    (cobordism, "dist", "geom.dist.calls"),
    (surface, "dist", "geom.dist.calls"),
    (moduli, "symplectic_pairing", "moduli.symplectic_pairing.calls"),
]

# Per-span extras derived from the return value.
RESULT_COUNTS = {
    "surface.assemble_from_ledger": ("surface.seam_pairs", lambda chain: len(chain.seams)),
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans (name, start, end, parent, item) kept in memory until :meth:`dump`.

    ``item`` is set by the caller before each unit of work, so every span of
    one item shares that identifier.
    """

    def __init__(self) -> None:
        self.item = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def item_span(self, item: int, fn, *args):
        """Run one item of work under a root span; only items are traced."""
        self.item = item
        return self._span("item", fn, *args)

    def _span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = perf_counter()
        extra = RESULT_COUNTS.get(name)
        if extra is not None:
            self.counts[extra[0]] += extra[1](result)
        return result

    def _timed(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside an item, e.g. the harness's own checks
                return fn(*args, **kwargs)
            return self._span(name, fn, *args, **kwargs)
        return traced

    def _counted(self, name: str, fn):
        stack, counts = self._stack, self.counts

        def counted(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr in SPANNED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._timed(f"{_layer(module)}.{attr}", original))
        for module, attr, name in COUNTED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._counted(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per-name inclusive time, self time and call count; per-layer self time.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another, so they never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        layer_self = defaultdict(float)
        for index, (name, start, end, _parent, _item) in enumerate(self.spans):
            duration = end - start
            self_time = duration - child_time[index]
            inclusive[name] += duration
            own[name] += self_time
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += self_time
        return inclusive, own, calls, layer_self

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
