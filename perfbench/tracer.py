"""Outside-in tracer: spans around the boundary functions of finspace's layers.

``install`` replaces each listed function with a wrapper, in its own module
and wherever another finspace module bound the same function object by name
(``persistence.classify_cover``, ``covers.order_complex``, the package's
re-exports, ...).  Methods are replaced on their class.  Hot accessors such
as ``FinitePoset.lt`` or ``down_set`` are left alone, so their time counts as
self time of the caller.

A span is (function, op, start, end, child time); the op index is shared by
all spans of one op.  Spans stay in flat arrays until the run ends.  When a
span ends, its whole wall time, including the tracer's bookkeeping, is added
to the child time of the span that called it, so a span's self time
(duration minus child time) holds no tracer cost.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import faces

# layer -> boundary functions ("Class.method" for methods)
LAYERS = {
    "posets": (
        "build_poset", "FinitePoset.__init__", "FinitePoset.restrict",
        "FinitePoset.remove", "FinitePoset.opposite", "FinitePoset.linear_extension",
    ),
    "complexes": (
        "SimplicialComplex.__init__", "SimplicialComplex.all_simplices",
        "SimplicialComplex.simplices_of_dim", "SimplicialComplex.euler_characteristic",
        "SimplicialComplex.without", "SimplicialComplex.union",
        "SimplicialComplex.intersection", "SimplicialComplex.full_subcomplex",
        "SimplicialComplex.face_poset", "order_complex", "cone",
    ),
    "homology": (
        "boundary_matrices", "smith_normal_form", "rank_fraction_free", "rank_gf2",
        "reduced_homology", "betti_numbers_oracle", "betti_numbers_gf2",
        "homology_of_poset", "homology_equal",
    ),
    "collapse": (
        "beat_point_kind", "weak_point_kind", "core", "is_contractible_space",
        "greedy_collapse_space", "replay_space_certificate", "free_faces",
        "greedy_collapse_complex", "staged_union_collapse", "replay_complex_certificate",
        "is_homotopically_trivial_poset", "is_homotopically_trivial_complex",
    ),
    "covers": (
        "Cover.__post_init__", "Cover.intersection", "Cover.subunion",
        "Cover.intersection_is_empty", "nerve", "non_hausdorff_nerve", "reduced_nerve",
        "reduced_nerve_complex", "classify_cover", "n_zero_subspace", "n_zero_complex",
        "check_nerve_theorem",
    ),
    "cylinders": (
        "Relation.__post_init__", "compose_relations", "relation_cylinder",
        "graph_relation", "underline_preimage", "overline_image", "check_collapse_left",
        "check_collapse_right", "check_intermediate",
    ),
    "persistence": ("persistence_over_chain", "check_truncation_theorem"),
}


def _search_counts(args, res):
    if res.verdict != "yes":
        return {"collapse.searches": 1}
    return {"collapse.searches": 1, "collapse.yes": 1, "collapse.steps": len(res.certificate.steps)}


def _complex_search_counts(args, res):
    counts = _search_counts(args, res)
    counts["collapse.free_pair_steps"] = counts.get("collapse.steps", 0)
    return counts


def _snf_counts(args, res):
    M = args[0]
    return {
        "homology.snf_entries": len(M) * (len(M[0]) if M else 0),
        "homology.snf_nnz": sum(1 for row in M for v in row if v),
    }


# counters taken from a call's arguments and result, after its span has ended
HOOKS = {
    "FinitePoset.__init__": lambda a, r: {"posets.elements_built": len(a[0].elements)},
    "SimplicialComplex.all_simplices": lambda a, r: {"complexes.simplices_listed": len(r)},
    "order_complex": lambda a, r: {"complexes.order_complex_simplices": len(faces(r.facets))},
    "smith_normal_form": _snf_counts,
    "greedy_collapse_space": _search_counts,
    "greedy_collapse_complex": _complex_search_counts,
    "Cover.intersection": lambda a, r: {"covers.nonempty": int(bool(getattr(r, "facets", r)))},
    "check_truncation_theorem": lambda a, r: {"persistence.subunions_checked": r["subsets_checked"]},
    "persistence_over_chain": lambda a, r: {"persistence.subunions_checked": len(a[1])},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []  # function index -> qualified name
        self.layer_of: list[str] = []
        self.fn = array("H")
        self.ops = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.wrapped = 0
        self.missing: list[str] = []  # listed functions this version of finspace lacks
        self.hook_errors = 0

    def install(self, package) -> None:
        """Wrap every function in LAYERS in the loaded finspace modules.

        A listed function that no longer exists is recorded in ``missing``
        and its counts stay 0, so the benchmark keeps running across
        refactors of the program.
        """
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"{prefix}.{layer}")
            for qual in names:
                owner, _, attr = qual.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = vars(holder).get(attr) if holder is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{qual}")
                    continue
                wrapper = self._wrap(layer, qual, original)
                setattr(holder, attr, wrapper)
                self.wrapped += 1
                if not owner:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapper)

    def _wrap(self, layer, qual, fn):
        index = len(self.names)
        self.names.append(qual)
        self.layer_of.append(layer)
        hook = HOOKS.get(qual)
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            span = len(t.fn)
            t.fn.append(index)
            t.ops.append(t.op)
            t.start.append(0.0)
            t.end.append(0.0)
            t.child.append(0.0)
            t.stack.append(span)
            ok = False
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                ended = perf_counter()
                t.stack.pop()
                t.start[span] = began
                t.end[span] = ended
                t.counters[qual] += 1
                if ok and hook:
                    try:
                        t.counters.update(hook(args, result))
                    except Exception:  # a counter must never fail the op it observes
                        t.hook_errors += 1
                if t.stack:
                    t.child[t.stack[-1]] += perf_counter() - entered

        return wrapper

    # -- results ---------------------------------------------------------------

    def functions(self) -> dict:
        """Per wrapped function: calls, inclusive seconds, self seconds."""
        out = {q: {"layer": l, "calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for q, l in zip(self.names, self.layer_of)}
        for i, f in enumerate(self.fn):
            row = out[self.names[f]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["incl_s"] += duration
            row["self_s"] += duration - self.child[i]
        return {q: row for q, row in out.items() if row["calls"]}

    def self_by_op(self) -> dict[int, Counter]:
        """Per op index: self seconds per layer."""
        out: dict[int, Counter] = {}
        for i, f in enumerate(self.fn):
            layers = out.setdefault(self.ops[i], Counter())
            layers[self.layer_of[f]] += self.end[i] - self.start[i] - self.child[i]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as plain numbers."""
        funcs = self.functions()
        c = self.counters

        def total(field, layer=None, names=()):
            return sum(r[field] for q, r in funcs.items() if r["layer"] == layer or q in names)

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"{layer}.self_s": total("self_s", layer) for layer in LAYERS}
        m.update({
            "homology.snf_s": total("incl_s", names=("smith_normal_form",)),
            "homology.boundary_s": total("incl_s", names=("boundary_matrices",)),
            "homology.snf_calls": c["smith_normal_form"],
            "homology.snf_entries": c["homology.snf_entries"],
            "homology.snf_nnz": c["homology.snf_nnz"],
            "complexes.order_complex_simplices": c["complexes.order_complex_simplices"],
            "complexes.enumerations": c["SimplicialComplex.all_simplices"],
            "complexes.simplices_listed": c["complexes.simplices_listed"],
            "complexes.rebuilds": c["SimplicialComplex.__init__"],
            "collapse.calls": total("calls", "collapse"),
            "collapse.searches": c["collapse.searches"],
            "collapse.yes_ratio": ratio(c["collapse.yes"], c["collapse.searches"]),
            "collapse.steps": c["collapse.steps"],
            "collapse.scans_per_step": ratio(c["free_faces"], c["collapse.free_pair_steps"]),
            "collapse.point_tests": c["beat_point_kind"] + c["weak_point_kind"],
            "collapse.replay_s": total(
                "incl_s", names=("replay_space_certificate", "replay_complex_certificate")
            ),
            "posets.builds": c["FinitePoset.__init__"],
            "posets.elements_built": c["posets.elements_built"],
            "covers.calls": total("calls", "covers"),
            "covers.intersections": c["Cover.intersection"],
            "covers.nonempty_ratio": ratio(c["covers.nonempty"], c["Cover.intersection"]),
            "covers.classify_s": total("incl_s", names=("classify_cover",)),
            "persistence.subunions_checked": c["persistence.subunions_checked"],
            "trace.spans": len(self.fn),
        })
        return m
