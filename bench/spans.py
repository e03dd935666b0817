"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the purcat modules from outside:
each wrapper opens a span (name, start, end, parent) around the call.
Spans live in flat in-memory arrays for the whole item and are reduced
to per-layer metrics when the item ends; nothing is written while the
item runs.  Every span of one item carries that item's id.

Modules bind each other's functions with ``from ... import f``, so a
wrapper replaces every module-level binding of the original object in
every loaded purcat module; methods are replaced on their class.  The
lru_cache'd functions are wrapped outside the cache, so a cache hit is
still a call, and hit rates come from ``cache_info()`` deltas.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# purcat module -> names to wrap; "Class.method" names a method.  The
# metric name is "<module>.<name>", with "__matmul__" shown as "matmul".
TARGETS = {
    "exact_linalg": ("smith_normal_form", "solve_linear", "kernel_basis",
                     "LinearSystem.solve", "IntMatrix.__matmul__"),
    "fpmod": ("FpModule.decomposition", "kernel", "cokernel", "hom_modules",
              "hom_post", "hom_pre", "tensor_map", "MapSolver.solve"),
    "complexes": ("hom_complex", "tensor_complex", "tensor_module_complex",
                  "homology", "cone", "minimize_complex"),
    "homotopy": ("null_homotopy", "contract_complex", "hom_k", "hom_dpur"),
    "purity": ("default_battery", "is_pure_acyclic", "failing_probe_for_acyclic"),
    "resolutions": ("resolve", "injective_tower", "projective_tower", "limit_tower",
                    "colimit_tower", "validate_certificate",
                    "validate_inverse_tower", "validate_direct_tower"),
    "monoidal": ("check_dpur_adjunction", "adjunction_iso",
                 "validate_adjunction_witness", "phom"),
    "serialize": ("parse_input", "encode_certificate", "decode_certificate"),
    "cli": ("serialize_report", "main"),
}


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__matmul__', 'matmul')}"


class Recorder:
    """Spans of one item: parallel arrays indexed by span number."""

    def __init__(self, item_id: str):
        self.item_id = item_id
        self.names: list = []
        self._index: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # per metric name: counts and maxima taken at the boundary,
        # e.g. {"none": 3, "max_cells": 120}
        self.quantities: dict = {}
        # per cached name: (its cache_info, hits before the wrapper went in)
        self.caches: dict = {}

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx: int) -> int:
        sid = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, key: str, value) -> None:
        q = self.quantities.setdefault(name, {})
        q[key] = q.get(key, 0) + value

    def bump_max(self, name: str, key: str, value) -> None:
        q = self.quantities.setdefault(name, {})
        q[key] = max(q.get(key, 0), value)

    def spans(self) -> list:
        """(name, start, end, parent) tuples in opening order."""
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self.name, self.start, self.end, self.parent)]


def aggregate(spans) -> dict:
    """Per name: calls, self_s and inclusive incl_s from a span list.

    spans are (name, start, end, parent) in opening order, parent being
    the index of the enclosing span or -1.  Self time is a span's length
    minus the lengths of its direct children; inclusive time counts a
    span only when no enclosing span has the same name, so recursion is
    not counted twice.
    """
    out: dict = {}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stack: list = []
    on_stack: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        while stack and stack[-1] != parent:
            on_stack[spans[stack.pop()][0]] -= 1
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        if not on_stack.get(name):
            row["incl_s"] += end - start
        stack.append(i)
        on_stack[name] = on_stack.get(name, 0) + 1
    return out


# ---------------------------------------------------------------------------
# quantities measured at the boundaries


def _max_bits(snf) -> int:
    best = 0
    for mat in (snf.u, snf.d, snf.v):
        for row in mat.data:
            for x in row:
                b = x.bit_length() if x >= 0 else (-x).bit_length()
                if b > best:
                    best = b
    return best


def _after_hooks():
    """Per metric name: hook(recorder, args, result) run after the span."""

    def snf(rec, args, out, miss):
        a = args[0]
        rec.bump_max("exact_linalg.smith_normal_form", "max_cells", a.rows * a.cols)
        if miss:
            rec.bump_max("exact_linalg.smith_normal_form", "max_bits", _max_bits(out))

    def none_count(name):
        def hook(rec, args, out, miss):
            if out is None:
                rec.add(name, "none", 1)
        return hook

    def unknowns(rec, args, out, miss):
        total = sum(r * c for r, c in args[0]._shapes.values())
        rec.bump_max("exact_linalg.LinearSystem.solve", "max_unknowns", total)
        none_count("exact_linalg.LinearSystem.solve")(rec, args, out, miss)

    def mults(rec, args, out, miss):
        a, b = args
        rec.add("exact_linalg.IntMatrix.matmul", "mults", a.rows * a.cols * b.cols)

    def hom_slots(rec, args, out, miss):
        rec.add("fpmod.hom_modules", "slots", len(out.slots))

    def complex_slots(name):
        def hook(rec, args, out, miss):
            rec.add(name, "slots", sum(m.generators for m in out.complex.modules))
        return hook

    def probes(rec, args, out, miss):
        rec.add("purity.default_battery", "probes", len(out.probes))

    def levels(name):
        def hook(rec, args, out, miss):
            rec.add(name, "levels", len(out[0].levels))
        return hook

    def false_count(rec, args, out, miss):
        if not out:
            rec.add("resolutions.validate_certificate", "false", 1)

    def report_bytes(rec, args, out, miss):
        rec.add("cli.serialize_report", "bytes", len(out.encode("utf-8")))

    return {
        "exact_linalg.smith_normal_form": snf,
        "exact_linalg.solve_linear": none_count("exact_linalg.solve_linear"),
        "exact_linalg.LinearSystem.solve": unknowns,
        "exact_linalg.IntMatrix.matmul": mults,
        "fpmod.hom_modules": hom_slots,
        "fpmod.MapSolver.solve": none_count("fpmod.MapSolver.solve"),
        "complexes.hom_complex": complex_slots("complexes.hom_complex"),
        "complexes.tensor_complex": complex_slots("complexes.tensor_complex"),
        "homotopy.null_homotopy": none_count("homotopy.null_homotopy"),
        "homotopy.contract_complex": none_count("homotopy.contract_complex"),
        "purity.default_battery": probes,
        "resolutions.injective_tower": levels("resolutions.injective_tower"),
        "resolutions.projective_tower": levels("resolutions.projective_tower"),
        "resolutions.validate_certificate": false_count,
        "cli.serialize_report": report_bytes,
    }


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap(rec: Recorder, name: str, fn, hook):
    idx = rec.intern(name)
    info = getattr(fn, "cache_info", None)
    if info is not None:
        rec.caches[name] = (info, info().hits)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = info().misses if info is not None else 0
        sid = rec.open(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if hook is not None:
            hook(rec, args, out, info is None or info().misses != before)
        return out

    return wrapper


def install(item_id: str) -> Recorder:
    """Wrap every target in every loaded purcat module; returns the recorder.

    Meant for a process that runs one item and exits: the wrappers are
    never removed.
    """
    rec = Recorder(item_id)
    hooks = _after_hooks()
    loaded = [m for n, m in sys.modules.items() if n.startswith("purcat") and m is not None]
    for module, attrs in TARGETS.items():
        home = sys.modules[f"purcat.{module}"]
        for attr in attrs:
            name = metric_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, _wrap(rec, name, cls.__dict__[meth], hooks.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = _wrap(rec, name, original, hooks.get(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return rec


def item_summary(rec: Recorder) -> dict:
    """Reduce one item's spans and quantities to plain per-name numbers."""
    table = aggregate(rec.spans())
    for name, q in rec.quantities.items():
        table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}).update(q)
    for name, (info, start) in rec.caches.items():
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["hits"] = info().hits - start
    return {"item": rec.item_id, "spans": len(rec.name), "layers": table}


# ---------------------------------------------------------------------------
# the per-layer metric table

# metric name -> {quantity: unit} reported beside calls and self_s; the
# *_frac ratios divide a recorded count (hits, none, false) by calls
QUANTITIES = {
    "exact_linalg.smith_normal_form": {"cache_hit_frac": "ratio", "max_cells": "cells",
                                       "max_bits": "bits"},
    "exact_linalg.solve_linear": {"none_frac": "ratio"},
    "exact_linalg.LinearSystem.solve": {"max_unknowns": "count"},
    "exact_linalg.IntMatrix.matmul": {"mults": "count"},
    "fpmod.hom_modules": {"slots": "count"},
    "fpmod.MapSolver.solve": {"none_frac": "ratio"},
    "complexes.hom_complex": {"slots": "count"},
    "complexes.tensor_complex": {"slots": "count"},
    "homotopy.null_homotopy": {"none_frac": "ratio"},
    "homotopy.contract_complex": {"none_frac": "ratio"},
    "homotopy.hom_k": {"cache_hit_frac": "ratio"},
    "purity.default_battery": {"probes": "count"},
    "resolutions.injective_tower": {"levels": "count"},
    "resolutions.projective_tower": {"levels": "count"},
    "resolutions.validate_certificate": {"false_frac": "ratio"},
    "cli.serialize_report": {"bytes": "B"},
}
RATIO_OF = {"cache_hit_frac": "hits", "none_frac": "none", "false_frac": "false"}

# layers whose inclusive share of cli.main time tells the workloads apart
SHARES = ("purity.default_battery", "complexes.tensor_module_complex",
          "homotopy.contract_complex", "complexes.hom_complex")


def layer_table(totals: dict) -> dict:
    """{metric: (value, unit)} from item summaries summed over a run."""
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    out = {}
    for module, attrs in TARGETS.items():
        for attr in attrs:
            name = metric_name(module, attr)
            row = totals.get(name, empty)
            if name != "cli.main":
                out[f"{name}.calls"] = (row["calls"], "count")
            out[f"{name}.self_s"] = (row["self_s"], "s")
            for key, unit in QUANTITIES.get(name, {}).items():
                if key in RATIO_OF:
                    count = row.get(RATIO_OF[key], 0)
                    value = count / row["calls"] if row["calls"] else 0.0
                else:
                    value = row.get(key, 0)
                out[f"{name}.{key}"] = (value, unit)
    main = totals.get("cli.main", empty)["incl_s"]
    for name in SHARES:
        share = totals.get(name, empty)["incl_s"] / main if main else 0.0
        out[f"{name}.incl_frac"] = (share, "ratio")
    return out
