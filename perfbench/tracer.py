"""Spans around the calls into fermarkov's modules, recorded from outside.

The tracer replaces each listed function at every module binding that holds
it (``subalgebra.invariant_subalgebra`` as well as the copy ``markov`` got
through ``from .subalgebra import ...``), so calls made inside the library are
caught too.  ``QuantumChannel.choi`` is replaced on the class.  Nothing under
``src/`` is edited: ``install`` and ``uninstall`` swap module attributes, and
the untraced runs never install the wrappers at all.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the operation id the span belongs to.  Spans are
kept in memory and written out once, by the worker, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer (module) -> functions whose calls are spanned; "Class.method" names
# are wrapped on the class
LAYERS = {
    "spectral": ("eig_hermitian", "mat_log", "mat_pow"),
    "hs": ("project_stack", "orthonormalize", "residual_norms"),
    "car": ("cond_expect", "matrix_units", "region_orthobasis", "parity_automorphism"),
    "subalgebra": (
        "invariant_subalgebra",
        "invariant_subspace_under",
        "span_closure",
        "commutant",
        "minimal_central_projections",
        "membership",
    ),
    "entropy": ("ssa_gap", "restrict_density", "rel_entropy"),
    "sufficiency": ("is_sufficient", "petz_map", "factor_through", "QuantumChannel.choi"),
    "markov": ("analyze_triplet", "factorize", "central_structure", "decompose_even"),
    "report": ("emit", "parse_document"),
    "cli": ("build_document",),
    "states": ("generate", "make_product_markov", "make_block_markov"),
}

# generators run while inputs are built, so their numbers are totals over the
# set-up phase rather than per timed operation
SETUP_LAYERS = ("states",)

ISU = "subalgebra.invariant_subspace_under"


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    units: dict[str, tuple[str, str]] = {}
    for name in span_names():
        setup = name.split(".")[0] in SETUP_LAYERS
        units[f"{name}.calls"] = ("calls" if setup else "calls/op", "lower")
        units[f"{name}.s"] = ("s" if setup else "s/op", "lower")
        units[f"{name}.self_s"] = ("s" if setup else "s/op", "lower")
    for mod in LAYERS:
        units[f"{mod}.self_s"] = ("s" if mod in SETUP_LAYERS else "s/op", "lower")
    units["other.self_s"] = ("s/op", "lower")
    units["car.matrix_units.hit_ratio"] = ("ratio", "higher")
    units[f"{ISU}.rounds"] = ("calls/op", "lower")
    units[f"{ISU}.kept_frac"] = ("ratio", "higher")
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.op: object = None
        self.rounds = 0          # calls of invariant_subspace_under's apply_map
        self.ambient_rows = 0
        self.kept_rows = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        import fermarkov.cli  # noqa: F401  (loads the package and every layer's module)

        modules = [m for n, m in sys.modules.items() if n == "fermarkov" or n.startswith("fermarkov.")]
        patches = []
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"fermarkov.{mod_name}"]
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig, self._wrap(name, orig)))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            patches.append((mod, attr, orig, wrapper))
        return patches

    def _wrap(self, name: str, orig):
        tracer = self
        counted = name == ISU

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if counted:
                args = (tracer._count_rounds(args[0]),) + args[1:]
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if counted:
                tracer.ambient_rows += int(args[1].shape[0])
                tracer.kept_rows += int(out.shape[0])
            return out

        if hasattr(orig, "cache_info"):
            # matrix_units is an lru_cache; its counters stay reachable
            wrapper.cache_info = orig.cache_info
            wrapper.cache_clear = orig.cache_clear
        return wrapper

    def _count_rounds(self, apply_map):
        def counted(stack):
            self.rounds += 1
            return apply_map(stack)

        return counted


def aggregate(spans, ops: set, n_ops: int, op_time: float, setup_op) -> dict[str, float]:
    """Per-layer numbers from the spans.

    Spans of the timed operations in ``ops`` are summed and divided by
    ``n_ops``; spans tagged ``setup_op`` feed the set-up layers as totals.
    A span's self time is its duration minus its direct children's; the
    module self times and ``other.self_s`` (operation time outside every
    span) then add up to ``op_time`` per operation.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    top = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name.split(".")[0] in SETUP_LAYERS:
            if op != setup_op:
                continue
        elif op in ops:
            if parent < 0:
                top += end - start
        else:
            continue
        calls[name] += 1
        incl[name] += end - start
        excl[name] += end - start - child[i]

    out: dict[str, float] = {}
    for name in span_names():
        scale = 1 if name.split(".")[0] in SETUP_LAYERS else n_ops
        out[f"{name}.calls"] = calls[name] / scale
        out[f"{name}.s"] = incl[name] / scale
        out[f"{name}.self_s"] = excl[name] / scale
    for mod, fns in LAYERS.items():
        out[f"{mod}.self_s"] = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)
    out["other.self_s"] = (op_time - top) / n_ops
    return out
