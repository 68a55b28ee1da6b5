"""Span tracing by wrapping layer functions where their callers import them.

Nothing inside ``src/`` is changed: while a traced operation runs, the
names below are replaced in the modules that import them and restored
afterwards.  A refactor that stops calling one of these names makes its
layer read zero, and a name that no longer exists is reported as missing.

Each span keeps its name, start, end, parent span and operation id; self
time is its duration minus the time of its child spans.  Rank evaluations
are far too many to keep one record each, so they are aggregated per
backend (calls, self time, distinct subsets) and per calling layer, while
still counting as child time of the span that called them.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter
from types import SimpleNamespace

from fairsic import decode_sequence

# (module, imported name, layer).  Covers every call from one layer into
# another; the ordering module has no span, its time counts in the caller.
PATCHES = (
    ("fairsic.cli", "load_scenario", "scenario"),
    ("fairsic.cli", "greedy_profile", "greedy"),
    ("fairsic.cli", "rate_vector", "rates"),
    ("fairsic.cli", "certify", "oracle"),
    ("fairsic.cli", "validate_rank_axioms", "axioms"),
    ("fairsic.greedy", "validate_rank_axioms", "axioms"),
    ("fairsic.greedy", "rate_vector", "rates"),
    ("fairsic.greedy", "rank_value", "channels"),
    ("fairsic.rates", "rank_value", "channels"),
    ("fairsic.axioms", "rank_value", "channels"),
    ("fairsic.oracle", "greedy_profile", "greedy"),
    ("fairsic.oracle", "brute_force_maxmin", "oracle"),
    ("fairsic.oracle", "receiver_rate_bounds", "rates"),
)
# The benchmark's own in-process call sites.
API_LAYERS = {
    "load_scenario": "scenario",
    "greedy_profile": "greedy",
    "validate_rank_axioms": "axioms",
}
BACKENDS = ("gaussian", "dmc", "tabulated")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end, self s)
        self.ops = 0
        self._op = 0
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 1
        self._saved: list[tuple] = []
        self.missing = [f"{m}.{a}" for m, a, _ in PATCHES
                        if not hasattr(importlib.import_module(m), a)]
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)

    # -- wrappers ----------------------------------------------------------

    def _layer(self, name: str, fn):
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += end - start
                self.spans.append(
                    (self._op, span_id, parent, name, start, end, end - start - frame[2])
                )
            if on_result is not None:
                on_result(self, fn, args, result)
            return result

        return traced

    def _rank(self, fn):
        def traced(ranks, receiver, users):
            users = frozenset(users)
            start = perf_counter()
            value = fn(ranks, receiver, users)
            elapsed = perf_counter() - start
            caller = self._stack[-1]
            caller[2] += elapsed
            kind = ranks.kind
            self.counts[f"channels.{kind}.calls"] += 1
            self.counts[f"channels.{kind}.self_s"] += elapsed
            self.counts[f"{caller[1]}.rank_calls"] += 1
            self._seen[kind].add((id(ranks), receiver, users))
            return value

        return traced

    def api(self, base) -> SimpleNamespace:
        """The benchmark's own call sites, traced."""
        return SimpleNamespace(
            **{attr: self._layer(layer, getattr(base, attr)) for attr, layer in API_LAYERS.items()}
        )

    # -- one traced operation ------------------------------------------------

    def run(self, root: str, fn, *args):
        """Run ``fn`` as one operation under a root span, with patches in place."""
        self.ops += 1
        self._op = self.ops
        self._install()
        try:
            return self._layer(root, fn)(*args)
        finally:
            self._uninstall()
            for kind, seen in self._seen.items():
                self.counts[f"channels.{kind}.distinct"] += len(seen)
            self._seen.clear()

    def _install(self) -> None:
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                wrapper = self._rank if layer == "channels" else partial(self._layer, layer)
                setattr(module, attr, wrapper(original))

    def _uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- summary -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer and root, rank evaluation under channels."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[6]
        totals["channels"] = sum(self.counts[f"channels.{b}.self_s"] for b in BACKENDS)
        return dict(totals)

    def per_layer(self) -> dict[str, float]:
        """Per-operation means of the layer metrics (zero where nothing ran)."""
        ops = max(self.ops, 1)
        selfs = self.self_seconds()
        spans = Counter(span[3] for span in self.spans)
        metrics = {
            "scenario.self_s": selfs.get("scenario", 0.0) / ops,
            "scenario.bytes": self.counts["scenario.bytes"] / ops,
        }
        for backend in BACKENDS:
            calls = self.counts[f"channels.{backend}.calls"]
            distinct = self.counts[f"channels.{backend}.distinct"]
            metrics[f"channels.{backend}.calls"] = calls / ops
            metrics[f"channels.{backend}.self_s"] = self.counts[f"channels.{backend}.self_s"] / ops
            metrics[f"channels.{backend}.hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
        slots = self.counts["greedy.slots"]
        metrics.update({
            "greedy.self_s": selfs.get("greedy", 0.0) / ops,
            "greedy.slots": slots / ops,
            "greedy.evals_per_slot": self.counts["greedy.rank_calls"] / slots if slots else 0.0,
            "rates.self_s": selfs.get("rates", 0.0) / ops,
            "rates.calls": spans["rates"] / ops,
            "axioms.self_s": selfs.get("axioms", 0.0) / ops,
            "axioms.runs": spans["axioms"] / ops,
            "oracle.self_s": selfs.get("oracle", 0.0) / ops,
            "oracle.configs": self.counts["oracle.configs"] / ops,
        })
        return metrics


def _count_bytes(tracer, fn, args, result) -> None:
    tracer.counts["scenario.bytes"] += os.path.getsize(args[0])


def _count_slots(tracer, fn, args, result) -> None:
    tracer.counts["greedy.slots"] += sum(len(decode_sequence(o)) for o in result.profile.orders)


def _count_configs(tracer, fn, args, result) -> None:
    if fn.__name__ == "brute_force_maxmin":
        tracer.counts["oracle.configs"] += result.num_configs


_ON_RESULT = {"scenario": _count_bytes, "greedy": _count_slots, "oracle": _count_configs}
