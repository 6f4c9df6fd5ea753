"""Span recorder for the traced benchmark runs.

Wrappers are installed from here, never inside ``nalg``: each one replaces
a stage function on every ``nalg`` module namespace that holds it, so the
wrapper sits on the name the calling module looks up (``nalg.algebras``
calling ``kernel``, ``nalg.catalog`` calling ``gi_check``, and so on).
A span records its group name, the calling module, start, end, the index
of the enclosing span and the op id.  Spans stay in memory until the run
ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import sys
import time

def _nnz(args, result):
    return (len(result.entries),)


def _permute_terms(args, result):
    T, v = args[0], args[1]
    coords = getattr(v, "coords", None)
    return (len(T.entries) * (1 if coords is None else sum(1 for c in coords if c)),)


def _kernel_size(args, result):
    rows, ncols = args[0], args[1]
    return (len(rows), ncols - result.dim)


def _text_in(args, result):
    return (len(args[0].encode("utf-8")),)


def _text_out(args, result):
    return (len(result.encode("utf-8")),)


def _products_nnz(args, result):
    return (len(result.products),)


# (module, attribute, span group, size function).  The size function gets
# the call's arguments and result and returns the numbers kept on the span.
STAGES = (
    ("nalg.algebras", "classify", "algebras.classify", None),
    ("nalg.algebras", "associator", "algebras.associator", _nnz),
    ("nalg.algebras", "phi_precompose", "algebras.permute", _permute_terms),
    ("nalg.algebras", "gi_check", "algebras.gi_check", None),
    ("nalg.algebras", "gi_bang_check", "algebras.bang", None),
    ("nalg.algebras", "annihilator", "algebras.annihilator", None),
    ("nalg.algebras", "jacobi_check", "algebras.table_check", None),
    ("nalg.algebras", "is_antisymmetric", "algebras.table_check", None),
    ("nalg.algebras", "is_commutative", "algebras.table_check", None),
    ("nalg.linalg", "kernel", "linalg.kernel", _kernel_size),
    ("nalg.linalg", "span", "linalg.span", None),
    ("nalg.cogebras", "classify_cogebra", "cogebras.classify", None),
    ("nalg.cogebras", "coassoc_left", "cogebras.defect", None),
    ("nalg.cogebras", "coassoc_right", "cogebras.defect", None),
    ("nalg.cogebras", "gi_cocheck", "cogebras.check", None),
    ("nalg.cogebras", "gi_bang_cocheck", "cogebras.check", None),
    ("nalg.cogebras", "coannihilator", "cogebras.coannihilator", None),
    ("nalg.formats", "parse_document", "formats.parse", _text_in),
    ("nalg.formats", "parse_algebra", "formats.parse", _text_in),
    ("nalg.formats", "parse_cogebra", "formats.parse", _text_in),
    ("nalg.formats", "print_document", "formats.print", _text_out),
    ("nalg.formats", "format_ga_expr", "formats.print", _text_out),
    ("nalg.products", "tensor_algebras", "products.tensor", _products_nnz),
    ("nalg.products", "convolution_algebra", "products.convolve", _products_nnz),
    ("nalg.duality", "dualize_algebra", "duality.dualize", None),
    ("nalg.duality", "dualize_cogebra", "duality.dualize", None),
    ("nalg.catalog", "regenerate", "catalog.regenerate", None),
    ("nalg.catalog", "build", "catalog.build", None),
    ("nalg.catalog", "data_text", "catalog.data_text", None),
    ("nalg.sym3", "special_vector", "sym3", None),
    ("nalg.sym3", "inverse", "sym3", None),
    ("nalg.sym3", "sign", "sym3", None),
)

# Span fields, kept as plain lists so a run's spans dump straight to JSON.
NAME, CALLER, START, END, PARENT, OP, OUTER, SIZE = range(8)


class Tracer:
    """Records one span per call of a wrapped stage function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def _span(self, name, caller, fn, size, args, kwargs):
        spans, stack, depth = self.spans, self._stack, self._depth
        level = depth.get(name, 0)
        span = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, self.op, level == 0, None]
        stack.append(len(spans))
        spans.append(span)
        depth[name] = level + 1
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            depth[name] = level
            stack.pop()
        if size is not None:
            span[SIZE] = size(args, result)
        return result

    def wrap(self, name, caller, fn, size=None):
        def wrapper(*args, **kwargs):
            return self._span(name, caller, fn, size, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every stage function on every ``nalg`` namespace holding it.

        All of ``nalg`` must already be imported (``nalg.cli`` imports it).
        """
        modules = {n: m for n, m in sys.modules.items() if n.startswith("nalg.")}
        for home, attr, name, size in STAGES:
            original = getattr(modules[home], attr)
            for mod_name, mod in modules.items():
                caller = mod_name.split(".", 1)[1]
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, self.wrap(name, caller, original, size))
        cogebras, catalog = modules["nalg.cogebras"], modules["nalg.catalog"]
        cogebras.CubeMap.phi = self.wrap("cogebras.phi", "cogebras", cogebras.CubeMap.phi)
        catalog._first = self._wrap_search(catalog._first)

    def _wrap_search(self, first):
        """The catalog's first-hit search, with its predicate calls counted."""

        def search(candidates, predicate, name):
            counts = [0, 0]  # predicate calls, instances found

            def counted(A):
                counts[0] += 1
                return predicate(A)

            index = len(self.spans)
            try:
                result = self._span("catalog.search", "catalog", first, None, (candidates, counted, name), {})
                counts[1] = 1
                return result
            finally:
                self.spans[index][SIZE] = tuple(counts)

        return search

    def run_op(self, op: int, fn, *args):
        """Run one op under a root ``cli.main`` span."""
        self.op = op
        return self._span("cli.main", "perfbench", fn, None, args, {})


def layer_metrics(span_lists) -> dict[str, float]:
    """Per-layer metrics from the spans of every op of a run.

    ``*_self_s`` is the self time of a stage (its duration minus the time
    its wrapped children cover), summed over calls; any other ``*_s`` is the
    time spent inside a stage, counted once when the stage recurses.
    """
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    sizes: dict[tuple[str, str, int], int] = {}
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            name, duration = span[NAME], span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + duration - covered[index]
            if span[OUTER]:
                inclusive[name] = inclusive.get(name, 0.0) + duration
                for k, value in enumerate(span[SIZE] or ()):
                    key = (name, span[CALLER], k)
                    sizes[key] = sizes.get(key, 0) + value

    def size(name, k=0, caller=None):
        return sum(v for (n, c, i), v in sizes.items() if n == name and i == k and caller in (None, c))

    rows, rank = size("linalg.kernel"), size("linalg.kernel", 1)
    tested, found = size("catalog.search"), size("catalog.search", 1)
    return {
        "algebras.classify_self_s": own.get("algebras.classify", 0.0),
        "algebras.associator_s": inclusive.get("algebras.associator", 0.0),
        "algebras.associator_calls": calls.get("algebras.associator", 0),
        "algebras.associator_nnz": size("algebras.associator"),
        "algebras.permute_s": inclusive.get("algebras.permute", 0.0),
        "algebras.permute_calls": calls.get("algebras.permute", 0),
        "algebras.permute_terms": size("algebras.permute"),
        "algebras.annihilator_self_s": own.get("algebras.annihilator", 0.0),
        "algebras.system_rows": size("linalg.kernel", caller="algebras"),
        "algebras.bang_s": inclusive.get("algebras.bang", 0.0),
        "algebras.bang_calls": calls.get("algebras.bang", 0),
        "algebras.gi_check_calls": calls.get("algebras.gi_check", 0),
        "linalg.kernel_s": inclusive.get("linalg.kernel", 0.0),
        "linalg.kernel_calls": calls.get("linalg.kernel", 0),
        "linalg.kernel_rows": rows,
        "linalg.kernel_rank": rank,
        "linalg.rank_row_ratio": rank / rows if rows else 0.0,
        "linalg.span_s": inclusive.get("linalg.span", 0.0),
        "cogebras.classify_self_s": own.get("cogebras.classify", 0.0),
        "cogebras.defect_s": inclusive.get("cogebras.defect", 0.0),
        "cogebras.defect_calls": calls.get("cogebras.defect", 0),
        "cogebras.phi_s": inclusive.get("cogebras.phi", 0.0),
        "cogebras.phi_calls": calls.get("cogebras.phi", 0),
        "cogebras.coannihilator_self_s": own.get("cogebras.coannihilator", 0.0),
        "cogebras.kernel_rows": size("linalg.kernel", caller="cogebras"),
        "formats.parse_s": own.get("formats.parse", 0.0),
        "formats.print_s": own.get("formats.print", 0.0),
        "formats.bytes_in": size("formats.parse"),
        "formats.bytes_out": size("formats.print"),
        "products.tensor_s": inclusive.get("products.tensor", 0.0),
        "products.convolve_s": inclusive.get("products.convolve", 0.0),
        "products.out_nnz": size("products.tensor") + size("products.convolve"),
        "duality.dualize_s": inclusive.get("duality.dualize", 0.0),
        "catalog.build_s": inclusive.get("catalog.build", 0.0),
        "catalog.build_calls": calls.get("catalog.build", 0),
        "catalog.predicate_calls": tested,
        "catalog.hit_ratio": found / tested if tested else 0.0,
        "sym3.s": own.get("sym3", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }
