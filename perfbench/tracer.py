"""Span tracer that wraps ordsplit's public functions and methods from outside.

Nothing in ``src/ordsplit`` knows about it: at run time the tracer replaces
each listed function or method with a wrapper that records one span per call
(name, start, end, parent span, query id).  A module-level function is
replaced in every ordsplit module that bound it by name (``from .cones import
cone_subset`` in ``points`` and ``extensions`` included), so no caller keeps
the unwrapped original.  Spans stay in memory; the runner folds them into
per-pass counts and self times and writes the last pass out at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# GeneratedCone verdict routes, read from the note of the returned verdict.
ROUTES = (
    "source", "conjugator", "saturation", "separating",
    "residue", "finite", "structural", "unknown",
)


def generated_route(verdict) -> str:
    note = verdict.note or ""
    if verdict.is_unknown:
        return "unknown"
    if note.startswith("conjugator"):
        return "conjugator"
    if note == "finite saturation":
        return "finite"
    if note.startswith("saturation"):
        return "saturation"
    if note.startswith(("separating functional", "outside the rational span", "no generators")):
        return "separating"
    if note.startswith(("fibre residue", "action is trivial")):
        return "residue"
    if note.startswith(("kernel part", "kernel reflects", "base part outside")):
        return "structural"
    # "source element", the zero element, and verdicts delegated to an
    # already-closed source cone.
    return "source"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.queries: list[str] = []
        self.counters: Counter = Counter()
        self.items_by_query: Counter = Counter()  # window elements handed out
        # One span per index, kept in typed arrays so that a pass of a few
        # million calls stays within tens of megabytes.
        self.nid = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._qidx = -1
        self._current = -1
        self._current_nid = -1
        self._undo: list = []

    def set_query(self, qid: str) -> None:
        self.queries.append(qid)
        self._qidx = len(self.queries) - 1

    # --- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, post=None):
        nid = self._name_id(name)
        nids, parents, queries = self.nid, self.parent, self.query
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            parent, parent_nid = self._current, self._current_nid
            idx = len(nids)
            nids.append(nid)
            parents.append(parent)
            queries.append(self._qidx)
            ends.append(0.0)
            self._current, self._current_nid = idx, nid
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                self._current, self._current_nid = parent, parent_nid
            if post is not None:
                post(self, result, args, parent_nid == nid)
            return result

        return traced

    def patch_function(self, module: str, attr: str, name: str, post=None):
        """Wrap module.attr and rebind it wherever an ordsplit module imported it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, name, post)
        for modname, mod in list(sys.modules.items()):
            if modname != "ordsplit" and not modname.startswith("ordsplit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_methods(self, base: type, module: str, attr: str, name: str, post=None):
        """Wrap attr on base and each subclass defined in module that defines it."""
        classes = [base]
        i = 0
        while i < len(classes):
            classes.extend(c for c in classes[i].__subclasses__() if c not in classes)
            i += 1
        wrapped = 0
        for cls in classes:
            fn = cls.__dict__.get(attr)
            if cls.__module__ != module or not callable(fn):
                continue
            if getattr(fn, "__isabstractmethod__", False):
                continue
            self.patch(cls, attr, name, post)
            wrapped += 1
        if not wrapped:
            raise LookupError(f"no {module} class defines {attr}")

    def patch(self, owner, attr: str, name: str, post=None):
        """Wrap one attribute of a class or module."""
        fn = vars(owner)[attr]
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, post))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # --- folding ------------------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded spans and counters and start a new pass."""
        for col in (self.nid, self.parent, self.query, self.start, self.end):
            del col[:]
        self.queries.clear()
        self.counters.clear()
        self.items_by_query.clear()
        self._qidx = -1

    def fold(self) -> tuple[dict, dict]:
        """Calls and self seconds per span name over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        calls = [0] * len(self.names)
        selft = [0.0] * len(self.names)
        nids, parents = self.nid, self.parent
        for nid, parent, start, end in zip(nids, parents, self.start, self.end):
            dur = end - start
            calls[nid] += 1
            selft[nid] += dur
            if parent >= 0:
                selft[nids[parent]] -= dur
        return dict(zip(self.names, calls)), dict(zip(self.names, selft))

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzipped tab-separated text; returns the count.

        Names and query ids are written once in the header and referenced by
        index; times are nanoseconds from the first span's start.
        """
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# names {json.dumps(self.names)}\n")
            fh.write(f"# queries {json.dumps(self.queries)}\n")
            fh.write("span\tparent\tname\tquery\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{i}\t{parent}\t{nid}\t{q}\t{int((start - t0) * 1e9)}\t{int((end - t0) * 1e9)}\n"
                for i, (nid, parent, q, start, end) in enumerate(
                    zip(self.nid, self.parent, self.query, self.start, self.end)
                )
            )
        return len(self.nid)


# --- what the benchmark wraps -------------------------------------------------


def _count_items(tracer: Tracer, result, args, nested: bool):
    # Only elements handed to callers outside the layer: a product window
    # built from factor windows counts its own pairs, not the factors'.
    if not nested:
        tracer.counters["groups.window_elements.items"] += len(result)
        tracer.items_by_query[tracer.queries[tracer._qidx]] += len(result)


def _count_rows(tracer: Tracer, result, args, nested: bool):
    nonneg, strict_neg = args[0], args[1]
    tracer.counters["linalg.feasible_strict.rows"] += len(nonneg) + len(strict_neg)


def _count_route(tracer: Tracer, result, args, nested: bool):
    tracer.counters[f"cones.GeneratedCone.route.{generated_route(result)}"] += 1


# (module, function) pairs wrapped as module-level functions.
FUNCTIONS = (
    ("document", "parse_document"),
    ("document", "execute_query"),
    ("document", "render_report_json"),
    ("cones", "cone_subset"),
    ("cones", "cones_equal"),
    ("cones", "is_monotone"),
    ("cones", "check_cone_axioms"),
    ("cones", "units_subgroup"),
    ("points", "hom_leq"),
    ("linalg", "feasible_strict"),
    ("linalg", "solve"),
    ("extensions", "compatible_exists"),
    ("extensions", "minimal_cone"),
    ("extensions", "enumerate_compatible_cones"),
    ("points", "pullback"),
    ("points", "is_strong"),
    ("points", "is_rali"),
    ("points", "stably_strong_over"),
    ("classifiers", "monotone_aut"),
    ("classifiers", "aut_cone"),
    ("classifiers", "build_classifier"),
    ("classifiers", "admissible_check"),
    ("classifiers", "sclass_membership"),
)

GROUP_METHODS = ("add", "neg", "conjugate", "check", "window_elements")

# (module, class) pairs whose own contains() is wrapped under its class name.
CONE_CLASSES = (
    ("cones", "GeneratedCone"),
    ("cones", "ProductCone"),
    ("cones", "OrthantCone"),
    ("cones", "LexCone"),
    ("cones", "ExtensionalCone"),
    ("points", "PullbackCone"),
    ("extensions", "FamilyCone"),
)

_POST = {
    "groups.window_elements": _count_items,
    "linalg.feasible_strict": _count_rows,
    "cones.GeneratedCone.contains": _count_route,
}


def span_names() -> list[str]:
    """Every span name the tracer records, in report order."""
    names = [f"groups.{m}" for m in GROUP_METHODS]
    names += ["actions.apply", "homs.apply"]
    names += [f"{mod}.{cls}.contains" for mod, cls in CONE_CLASSES]
    names += [f"{mod}.{fn}" for mod, fn in FUNCTIONS]
    return names


# Spans whose self time goes into the result line: those every workload
# reaches, so that none of these times reads a constant zero.  The others'
# self times are printed in the run's table.
SELF_TIME_SPANS = (
    "groups.add", "groups.neg", "groups.conjugate", "groups.check", "groups.window_elements",
    "actions.apply", "homs.apply",
    "cones.GeneratedCone.contains", "cones.ProductCone.contains",
    "document.parse_document", "document.execute_query", "document.render_report_json",
    "cones.cone_subset", "cones.is_monotone", "cones.units_subgroup", "linalg.solve",
    "extensions.compatible_exists", "extensions.minimal_cone", "points.is_strong",
)
# Layers (modules) whose summed self time goes into the result line; the
# classifiers layer is reached by the catalog only and is printed instead.
SELF_TIME_LAYERS = (
    "document", "groups", "actions", "homs", "cones", "linalg", "extensions", "points",
)


def counter_names() -> list[str]:
    return (
        ["groups.window_elements.items", "linalg.feasible_strict.rows"]
        + [f"cones.GeneratedCone.route.{r}" for r in ROUTES]
    )


def install(tracer: Tracer) -> None:
    import ordsplit  # noqa: F401  (loads every submodule the patches touch)
    from ordsplit import actions, groups, homs

    for meth in GROUP_METHODS:
        name = f"groups.{meth}"
        tracer.patch_methods(groups.Group, "ordsplit.groups", meth, name, _POST.get(name))
    tracer.patch_methods(actions.Action, "ordsplit.actions", "apply", "actions.apply")
    # ActionHom (the automorphism phi_b) lives in actions and is a Homomorphism.
    tracer.patch_methods(homs.Homomorphism, "ordsplit.actions", "apply", "actions.apply")
    tracer.patch_methods(homs.Homomorphism, "ordsplit.homs", "apply", "homs.apply")
    for mod, cls_name in CONE_CLASSES:
        cls = getattr(sys.modules[f"ordsplit.{mod}"], cls_name)
        name = f"{mod}.{cls_name}.contains"
        tracer.patch(cls, "contains", name, _POST.get(name))
    for mod, fn in FUNCTIONS:
        name = f"{mod}.{fn}"
        tracer.patch_function(f"ordsplit.{mod}", fn, name, _POST.get(name))
