"""In-memory spans around the calls the benchmark makes into secrid.

A span records name, layer, start, end, parent span and op id.  Spans are
kept in a list while the benchmark runs and written out once at the end.
A layer's self time is the sum of its spans' durations minus the time
their child spans cover; the benchmark is single-threaded, so children of
one span never overlap and that cover is just the sum of their durations.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

# The package's modules are the layers.  Each entry lists the public names
# the benchmark calls; only these calls get spans, never calls the program
# makes internally.
LAYER_API = {
    "ff": ("secrid.ff", ("field_for", "Field")),
    "rmid": (
        "secrid.rmid",
        ("Identity", "IdCodeParams", "generate_multi", "verify_multi", "evaluate_tag"),
    ),
    "wiretap": (
        "secrid.wiretap",
        ("SecrecyParams", "sample_seed", "encrypt_tags", "decrypt_tags"),
    ),
    "analysis": ("secrid.analysis", ("exact_leakage", "exact_id_error")),
    "planner": ("secrid.planner", ("plan",)),
    "rsid": ("secrid.rsid", ("epsilon_2rs",)),
}
# The layers the workloads' ops call, plus "cli", whose spans cover whole CLI
# processes, and "bench", whose spans cover a whole op, so that its self time
# is the benchmark's own bookkeeping.  Ops reach ff, planner and rsid only
# inside other layers' calls or in set-up, so those layers get no self time.
OP_LAYERS = ("rmid", "wiretap", "analysis", "cli", "bench")


class Tracer:
    def __init__(self) -> None:
        # [name, layer, start_ns, end_ns, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0, 0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- derived numbers -------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_ns_by_layer(self) -> dict[str, int]:
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            out[layer] += end - start - child_ns[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start_ns": start,
                         "end_ns": end, "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def load_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The secrid functions the benchmark calls, one flat namespace.

    Untraced, every attribute is the function itself, so the loop pays one
    attribute lookup and nothing else.  Traced, every attribute is wrapped in
    a span named `<layer>.<function>`.  `count` adds to a tracer counter and
    is a no-op untraced."""
    api = SimpleNamespace()
    for layer, (module_name, names) in LAYER_API.items():
        module = importlib.import_module(module_name)
        for name in names:
            fn = getattr(module, name)
            setattr(api, name, fn if tracer is None else tracer.wrap(layer, f"{layer}.{name}", fn))
    from secrid.rmid import Identity

    load = Identity.from_json_dict
    api.identity_from_json = (
        load if tracer is None else tracer.wrap("rmid", "rmid.Identity.from_json_dict", load)
    )
    api.count = (lambda name, amount=1: None) if tracer is None else tracer.count
    api.tracer = tracer
    return api
