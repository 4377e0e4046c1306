"""Spans and counters recorded around calls into the hens modules.

Nothing inside the package is edited: while a traced pass runs, each function
in TARGETS is replaced, in the namespace of the module that calls it, by a
wrapper that records a span (name, start, end, parent, pass id) and the work
counters named below.  ``Tracer.installed()`` restores every original name on
exit, so untraced passes run the unmodified code.

A span's layer is the part of its name before the dot.  A span's self time is
its duration minus that of its direct children; a layer's self time sums the
self times of its spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

import hens.cli
import hens.ensemble
import hens.inversion

LAYERS = ("cli", "dephasing", "inversion", "ensemble", "qdyn")

# (module whose namespace holds the name, attribute, span name)
TARGETS = (
    (hens.cli, "write_table", "cli.write_table"),
    (hens.cli, "write_json", "cli.write_json"),
    (hens.cli, "dephasing_conventional", "dephasing.conventional"),
    (hens.cli, "dephasing_extended", "dephasing.extended"),
    (hens.cli, "master_coeffs", "dephasing.master_coeffs"),
    (hens.cli, "propagate_master", "dephasing.propagate_master"),
    (hens.cli, "inverse_ft", "inversion.inverse_ft"),
    (hens.cli, "forward_ft", "inversion.forward_ft"),
    (hens.cli, "bochner_search", "inversion.bochner_search"),
    (hens.cli, "negativity_landscape", "inversion.negativity_landscape"),
    (hens.cli, "sample_frequencies", "ensemble.sample_frequencies"),
    (hens.cli, "dilate", "ensemble.dilate"),
    (hens.cli, "joint_evolve_reduce", "ensemble.joint_evolve_reduce"),
    (hens.cli, "he_average", "ensemble.he_average"),
    (hens.cli, "dephase_qubit", "ensemble.dephase_qubit"),
    (hens.cli, "_coherence_factor", "ensemble.coherence_factor"),
    (hens.cli, "trace_distance", "qdyn.trace_distance"),
    (hens.ensemble.SpectralEnsemble, "discretize", "ensemble.discretize"),
    (hens.inversion, "ohmic_series", "dephasing.ohmic_series"),
    (hens.inversion, "bochner_witness", "inversion.bochner_witness"),
    (hens.ensemble, "unitary_at", "qdyn.unitary_at"),
    (hens.ensemble, "partial_trace", "qdyn.partial_trace"),
)

# span name -> counter name, for spans whose call count is reported
CALL_COUNTERS = {
    "inversion.bochner_witness": "inversion.gram_calls",
    "ensemble.joint_evolve_reduce": "ensemble.joint_evolve_calls",
    "ensemble.dephase_qubit": "ensemble.dephase_qubit_calls",
    "qdyn.unitary_at": "qdyn.unitary_at_calls",
    "qdyn.partial_trace": "qdyn.partial_trace_calls",
    "qdyn.trace_distance": "qdyn.trace_distance_calls",
}

COUNTERS = (
    "cli.rows_written", "cli.bytes_written", "dephasing.series_points",
    "inversion.landscape_columns", "inversion.witness_best_at_frac", "ensemble.draws",
    *CALL_COUNTERS.values(),
)

# per-pass span totals reported as "<layer>.<name>_s"
SPAN_TIMES = {
    "cli.write_table": "cli.write_s",
    "cli.write_json": "cli.write_s",
    "dephasing.conventional": "dephasing.conventional_s",
    "dephasing.extended": "dephasing.extended_s",
    "dephasing.ohmic_series": "dephasing.ohmic_series_s",
    "dephasing.master_coeffs": "dephasing.master_coeffs_s",
    "dephasing.propagate_master": "dephasing.propagate_master_s",
    "inversion.inverse_ft": "inversion.inverse_ft_s",
    "inversion.forward_ft": "inversion.forward_ft_s",
    "inversion.bochner_search": "inversion.bochner_search_s",
    "inversion.bochner_witness": "inversion.gram_s",
    "inversion.negativity_landscape": "inversion.negativity_landscape_s",
    "ensemble.sample_frequencies": "ensemble.sample_frequencies_s",
    "ensemble.discretize": "ensemble.discretize_s",
    "ensemble.dilate": "ensemble.dilate_s",
    "ensemble.joint_evolve_reduce": "ensemble.joint_evolve_reduce_s",
    "ensemble.he_average": "ensemble.he_average_s",
    "qdyn.unitary_at": "qdyn.unitary_at_s",
    "qdyn.partial_trace": "qdyn.partial_trace_s",
    "qdyn.trace_distance": "qdyn.trace_distance_s",
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, pass]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []
        self._search = None

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        self._count(name, args, result)
        return result

    def _count(self, name, args, result) -> None:
        c = self.counts[self.pass_id]
        if name in CALL_COUNTERS:
            c[CALL_COUNTERS[name]] += 1
        if name == "cli.write_table":
            c["cli.rows_written"] += len(args[3][0])
        if name in ("cli.write_table", "cli.write_json"):
            c["cli.bytes_written"] += os.path.getsize(result)
        elif name in ("dephasing.conventional", "dephasing.extended"):
            c["dephasing.series_points"] += result.n
        elif name == "inversion.negativity_landscape":
            c["inversion.landscape_columns"] += result[2].shape[1]
        elif name == "ensemble.sample_frequencies":
            c["ensemble.draws"] += result.size
        elif name == "inversion.bochner_witness" and self._search is not None:
            s = self._search
            s["calls"] += 1
            if result.min_eigenvalue < s["best"]:
                s["best"], s["best_at"] = result.min_eigenvalue, s["calls"]

    def _wrap(self, name: str, fn):
        if name == "inversion.bochner_search":
            def search(*args, **kwargs):
                self._search = {"calls": 0, "best": float("inf"), "best_at": 0}
                try:
                    report, used = self.span(name, fn, *args, **kwargs)
                finally:
                    s, self._search = self._search, None
                # share of the restarts spent before the best floor was found
                self.counts[self.pass_id]["inversion.witness_best_at_frac"] += s["best_at"] / used
                return report, used
            return search
        return lambda *args, **kwargs: self.span(name, fn, *args, **kwargs)

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Wrap every target for the duration of one traced pass."""
        self.pass_id = pass_id
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Span totals, layer self times and counters of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({m: 0.0 for m in SPAN_TIMES.values()})
        for i, s in spans:
            dur = s[2] - s[1]
            out[s[0].split(".")[0] + ".self_s"] += dur - child_time[i]
            if s[0] in SPAN_TIMES:
                out[SPAN_TIMES[s[0]]] += dur
        for name in COUNTERS:
            out[name] = self.counts[pass_id][name]
        return out

