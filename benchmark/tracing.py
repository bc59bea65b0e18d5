"""Timing wrappers installed from outside the library, and the per-layer
metrics read off the spans they record.

Each wrapper replaces a public function on every ``twochar`` module that
holds it, so calls between layers (``cochains`` calling
``smith_normal_form``, ``characters`` calling ``mark``, ...) pass through
it.  A span is ``[name, start, end, parent]``; spans stay in memory until
the pass ends.  Self time is a span's duration minus the time its direct
child spans cover.  Cache hit/miss counts are ``cache_info()`` deltas over
the pass.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute); attribute "Class.method" patches a method.
SPAN_TARGETS = (
    ("snf.smith_normal_form", "snf", "smith_normal_form"),
    ("snf.solve_mod", "snf", "solve_mod"),
    ("cochains.schur_classes", "cochains", "schur_classes"),
    ("cochains.h2", "cochains", "h2"),
    ("cochains.is_coboundary", "cochains", "is_coboundary"),
    ("cochains.cohomologous_over_Cx", "cochains", "cohomologous_over_Cx"),
    ("cochains.differential", "cochains", "differential"),
    ("groups.all_subgroups", "groups", "all_subgroups"),
    ("groups.subgroup_conjugacy_classes", "groups", "subgroup_conjugacy_classes"),
    ("groups.commuting_pair_classes", "groups", "commuting_pair_classes"),
    ("groups.normalizer", "groups", "normalizer"),
    ("groups.centralizer", "groups", "centralizer"),
    ("reps.canonical_orbit", "reps", "canonical_orbit"),
    ("reps.tensor", "reps", "tensor"),
    ("reps.to_perm_cocycle", "reps", "to_perm_cocycle"),
    ("burnside.mark", "burnside", "mark"),
    ("burnside.determinant", "burnside", "determinant"),
    ("burnside.mul", "burnside", "mul"),
    ("characters.gk_as_mark", "characters", "gk_as_mark"),
    ("characters.gk_rep", "characters", "gk_rep"),
    ("characters.gk_osorno", "characters", "gk_osorno"),
    ("cyclo.inverse", "cyclo", "CycloRat.inverse"),
    ("shapiro.psi", "shapiro", "psi"),
    ("shapiro.phi", "shapiro", "phi"),
    ("shapiro.homotopy_varpi", "shapiro", "homotopy_varpi"),
    ("crossed.vertical_compose", "crossed", "vertical_compose"),
    ("crossed.horizontal_compose", "crossed", "horizontal_compose"),
)

# (metric prefix, module, lru_cache'd function): misses are read from cache_info().
CACHE_TARGETS = (
    ("cochains.machine", "cochains", "_machine_for"),
    ("reps.linear_classes", "reps", "linear_classes"),
    ("burnside.pair_product", "burnside", "_pair_product"),
    ("characters.twisted_regular", "characters", "twisted_regular"),
)

GROUP_SPANS = tuple(name for name, module, _ in SPAN_TARGETS if module == "groups")
COMPOSE_SPANS = ("crossed.vertical_compose", "crossed.horizontal_compose")


def _module(short: str):
    return sys.modules["twochar." + short]


def _resolve(short: str, attr: str):
    owner = _module(short)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Records spans for the wrapped functions between ``install`` and
    ``uninstall``, timed by ``clock()``.  Single-threaded: the span stack
    is the call stack."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.snf_results: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn, keep_result: list | None = None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep_result is not None:
                keep_result.append(out)
            return out

        return traced

    def install(self):
        """Wrap every target on every loaded ``twochar`` module (and class)
        that refers to it, and snapshot the cache counters."""
        modules = [m for n, m in list(sys.modules.items()) if n == "twochar" or n.startswith("twochar.")]
        for name, short, attr in SPAN_TARGETS:
            owner, attr = _resolve(short, attr)
            original = getattr(owner, attr)
            keep = self.snf_results if name == "snf.smith_normal_form" else None
            wrapped = self._wrap(name, original, keep)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        for name, short, attr in CACHE_TARGETS:
            info = getattr(_module(short), attr).cache_info()
            self._cache_start[name] = (info.hits, info.misses)

    def uninstall(self):
        """Put the original functions back and return the cache deltas."""
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()
        deltas = {}
        for name, short, attr in CACHE_TARGETS:
            info = getattr(_module(short), attr).cache_info()
            hits0, misses0 = self._cache_start[name]
            deltas[name] = (info.hits - hits0, info.misses - misses0)
        return deltas

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) - covered
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def write_spans(self, path: str):
        """Tab-separated: span index, name, start and end in microseconds
        from the first span, parent index (-1 for none)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id\tname\tstart_us\tend_us\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\n")


def _max_bits(snf) -> int:
    best = max((abs(d).bit_length() for d in snf.diag), default=0)
    for mat in (snf.U, snf.V, snf.Uinv, snf.Vinv):
        if mat is not None:
            for row in mat:
                for v in row:
                    b = abs(v).bit_length()
                    if b > best:
                        best = b
    return best


def layer_metrics(tracer: Tracer, cache_deltas: dict, cli_times: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  Every name is present; a
    layer the workload never reaches reads zero.  ``cli_times`` maps each
    CLI label to the seconds its command took (zero when not run)."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    snfs = tracer.snf_results
    out = {
        "snf.calls": calls("snf.smith_normal_form"),
        "snf.self_s": secs("snf.smith_normal_form", "snf.solve_mod"),
        "snf.max_rows": max((r.rows for r in snfs), default=0),
        "snf.max_cols": max((r.cols for r in snfs), default=0),
        "snf.cells": sum(r.rows * r.cols for r in snfs),
        "snf.max_entry_bits": max((_max_bits(r) for r in snfs), default=0),
        "snf.solve_mod.calls": calls("snf.solve_mod"),
        "snf.solve_mod.self_s": secs("snf.solve_mod"),
        "cochains.schur_classes.self_s": secs("cochains.schur_classes"),
        "cochains.h2.self_s": secs("cochains.h2"),
        "cochains.is_coboundary.calls": calls("cochains.is_coboundary"),
        "cochains.cohomologous_over_Cx.calls": calls("cochains.cohomologous_over_Cx"),
        "cochains.differential.calls": calls("cochains.differential"),
        "cochains.differential.self_s": secs("cochains.differential"),
        "cochains.machine.misses": cache_deltas["cochains.machine"][1],
        "groups.self_s": secs(*GROUP_SPANS),
        "reps.canonical_orbit.calls": calls("reps.canonical_orbit"),
        "reps.canonical_orbit.self_s": secs("reps.canonical_orbit"),
        "reps.linear_classes.misses": cache_deltas["reps.linear_classes"][1],
        "reps.tensor.self_s": secs("reps.tensor"),
        "reps.to_perm_cocycle.self_s": secs("reps.to_perm_cocycle"),
        "burnside.mark.calls": calls("burnside.mark"),
        "burnside.mark.self_s": secs("burnside.mark"),
        "burnside.determinant.self_s": secs("burnside.determinant"),
        "burnside.mul.self_s": secs("burnside.mul"),
        "burnside.pair_product.misses": cache_deltas["burnside.pair_product"][1],
        "characters.gk_as_mark.self_s": secs("characters.gk_as_mark"),
        "characters.gk_rep.self_s": secs("characters.gk_rep"),
        "characters.gk_osorno.self_s": secs("characters.gk_osorno"),
        "characters.twisted_regular.misses": cache_deltas["characters.twisted_regular"][1],
        "cyclo.inverse.calls": calls("cyclo.inverse"),
        "cyclo.inverse.self_s": secs("cyclo.inverse"),
        "shapiro.psi.self_s": secs("shapiro.psi"),
        "shapiro.phi.self_s": secs("shapiro.phi"),
        "shapiro.homotopy_varpi.self_s": secs("shapiro.homotopy_varpi"),
        "crossed.compose.calls": sum(calls(n) for n in COMPOSE_SPANS),
        "crossed.compose.self_s": secs(*COMPOSE_SPANS),
    }
    for label, seconds in cli_times.items():
        out[f"cli.{label}.time_s"] = seconds
    return out
