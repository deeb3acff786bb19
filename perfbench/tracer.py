"""Span wrappers installed on sgdist's layer entry points from outside.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover; self times are summed per layer (the module that
defines the function).  Wrappers replace the function in every loaded
``sgdist`` module that holds a reference to it, so intra-package calls such
as ``spectra.distance_matrix`` or ``products.incompatible_pairs`` are traced
too.  Names that a module no longer defines are skipped.

Only layer entry points are wrapped, not per-element helpers such as
``pair_index`` or ``net_degree``, whose wrapper cost would swamp the work.
The wrapper's own bookkeeping (including the counter hooks) is charged to
the benchmark, not to the calling layer.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("core", "distance", "products", "spectra", "catalog", "cli")

ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "core": (
        "parse_edge_list", "serialize_edge_list", "switch", "balance_potential", "is_balanced",
        "cycle_sign", "structural_predicates", "is_connected", "is_two_connected", "is_geodetic",
        "has_odd_cycle", "net_degrees", "is_net_regular",
    ),
    "distance": (
        "signed_bfs", "distance_matrix", "is_compatible", "incompatible_pairs",
        "least_incompatible_witness", "associated_complete", "brute_force_summary",
    ),
    "products": (
        "cartesian", "lexicographic", "tensor", "tensor_is_connected", "odd_even_distance",
        "tensor_distance", "uniform_sign", "check_product_compatibility_theorems",
        "random_signed_gnp", "conjecture_search",
    ),
    "spectra": (
        "adjacency_matrix", "compatible_distance_matrix", "cartesian_distance_formula",
        "lexicographic_distance_formula", "char_poly", "char_poly_batch", "jacobi_eigenvalues",
        "cluster_eigenvalues", "eig_symmetric", "lex_k2_spectrum",
    ),
    "catalog": (
        "path_graph", "cycle_graph", "complete_graph", "petersen_signing", "petersen_graph",
        "generate", "enumerate_petersen_signings",
    ),
    "cli": ("run",),
}

_GRAPH_CONSTRUCTORS = {"cartesian", "lexicographic", "tensor", "random_signed_gnp"}
_FORMULAS = {"cartesian_distance_formula", "lexicographic_distance_formula"}


class Tracer:
    """Aggregated spans and counters for one traced phase."""

    def __init__(self):
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.installed: list[str] = []
        self._stack: list[list[int]] = []  # per open span: [child ns]
        self._batch_depth = 0
        self._census_polys: set | None = None
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- install

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "sgdist" or name.startswith("sgdist.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules.get(f"sgdist.{layer}")
            if home is None:
                continue
            for name in names:
                fn = getattr(home, name, None)
                if fn is None or not callable(fn) or isinstance(fn, type):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, fn))
                self.installed.append(f"{layer}.{name}")

    def end_op(self) -> None:
        """Drop per-call state a raising operation may have left behind."""
        self._batch_depth = 0
        self._census_polys = None

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # ------------------------------------------------------------------- spans

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        layer_self = self.layer_self_ns
        hook = self._hooks(layer, name)

        def wrapper(*args, **kwargs):
            t_enter = perf_counter_ns()
            frame = [0]
            stack.append(frame)
            if hook[0]:
                hook[0](args, kwargs)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            dur = t1 - t0
            layer_self[layer] += dur - frame[0]
            if hook[1]:
                hook[1](args, kwargs, result, dur)
            if stack:
                # The parent is charged only for the wrapped call itself; the
                # wrapper's bookkeeping around it goes to the benchmark.
                stack[-1][0] += perf_counter_ns() - t_enter
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _hooks(self, layer: str, name: str):
        """(before, after) counter hooks for one entry point; either may be None."""
        c = self.counters
        before = after = None

        if layer == "core":
            def after(args, kwargs, result, dur):
                c["core.calls"] += 1
                if name == "parse_edge_list":
                    c["core.edges_parsed"] += len(result.edges)
        elif name == "signed_bfs":
            def after(args, kwargs, result, dur):
                c["distance.bfs_sources"] += 1
        elif name == "brute_force_summary":
            def after(args, kwargs, result, dur):
                c["distance.oracle_calls"] += 1
                c["distance.oracle_ns"] += dur
        elif name in _GRAPH_CONSTRUCTORS:
            def after(args, kwargs, result, dur):
                c["products.graphs_built"] += 1
        elif name == "conjecture_search":
            def after(args, kwargs, result, dur):
                c["products.trials"] += kwargs.get("trials", args[0] if args else 0)
                c["products.candidates"] += len(result)
                c["products.reported_pairs"] += sum(len(cand.product_pairs) for cand in result)
        elif name == "char_poly":
            def after(args, kwargs, result, dur):
                if self._batch_depth:
                    c["spectra.batch_fallbacks"] += 1
                    return
                c["spectra.charpoly_calls"] += 1
                c["spectra.charpoly_ns"] += dur
                if self._census_polys is not None:
                    c["catalog.polys_computed"] += 1
                    self._census_polys.add(result.coeffs)
        elif name == "char_poly_batch":
            def before(args, kwargs):
                self._batch_depth += 1

            def after(args, kwargs, result, dur):
                self._batch_depth -= 1
                c["spectra.batch_ns"] += dur
                c["spectra.batch_matrices"] += len(result)
                if self._census_polys is not None:
                    c["catalog.polys_computed"] += len(result)
                    self._census_polys.update(p.coeffs for p in result)
        elif name == "eig_symmetric":
            def after(args, kwargs, result, dur):
                c["spectra.eig_ns"] += dur
        elif name in _FORMULAS:
            def after(args, kwargs, result, dur):
                c["spectra.formula_ns"] += dur
        elif name == "enumerate_petersen_signings":
            def before(args, kwargs):
                self._census_polys = set()

            def after(args, kwargs, result, dur):
                c["catalog.distinct_polys"] += len(self._census_polys)
                self._census_polys = None
        return before, after


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted (the base is reported too)."""
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    ops: int,
    passes: int,
    output_bytes: int,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced phase, by name.

    Times (``_s``) and counts are per pass over the workload's operations,
    so they do not depend on how many passes fit in the run; ratios and
    shares are taken over the whole phase.
    """
    c = tracer.counters
    self_s = {layer: tracer.layer_self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    bench_s = wall_s - sum(self_s.values())
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] / passes
        m[f"{layer}.self_share"] = _ratio(self_s[layer], wall_s)
    m["bench.self_s"] = bench_s / passes
    m["bench.self_share"] = _ratio(bench_s, wall_s)
    m["core.calls"] = c["core.calls"] / passes
    m["core.edges_parsed"] = c["core.edges_parsed"] / passes
    m["distance.bfs_sources"] = c["distance.bfs_sources"] / passes
    m["distance.bfs_sources_per_op"] = _ratio(c["distance.bfs_sources"], ops)
    m["distance.oracle_s"] = c["distance.oracle_ns"] / 1e9 / passes
    m["distance.oracle_calls"] = c["distance.oracle_calls"] / passes
    m["products.graphs_built"] = c["products.graphs_built"] / passes
    m["products.trials"] = c["products.trials"] / passes
    m["products.candidates_per_trial"] = _ratio(c["products.candidates"], c["products.trials"])
    m["products.oracle_confirm_ratio"] = _ratio(c["products.reported_pairs"], c["distance.oracle_calls"])
    m["spectra.charpoly_s"] = c["spectra.charpoly_ns"] / 1e9 / passes
    m["spectra.charpoly_calls"] = c["spectra.charpoly_calls"] / passes
    m["spectra.batch_s"] = c["spectra.batch_ns"] / 1e9 / passes
    m["spectra.batch_matrices"] = c["spectra.batch_matrices"] / passes
    m["spectra.batch_fastpath_ratio"] = _ratio(
        c["spectra.batch_matrices"] - c["spectra.batch_fallbacks"], c["spectra.batch_matrices"]
    )
    m["spectra.eig_s"] = c["spectra.eig_ns"] / 1e9 / passes
    m["spectra.formula_s"] = c["spectra.formula_ns"] / 1e9 / passes
    m["catalog.polys_computed"] = c["catalog.polys_computed"] / passes
    m["catalog.distinct_poly_ratio"] = _ratio(c["catalog.distinct_polys"], c["catalog.polys_computed"])
    m["cli.output_bytes"] = output_bytes / passes
    m["trace.overhead_ratio"] = _ratio(untraced_ops_per_s, traced_ops_per_s)
    m["trace.wall_s"] = wall_s / passes
    m["trace.ops"] = ops
    m["trace.passes"] = passes
    return m
