"""Per-layer tracing from outside the library.

``Tracer`` wraps every public function of the fcclib layer modules and puts
the wrapper in place of the original wherever a module or the package holds
it, so calls from other modules and from the benchmark pass through it and
spans nest by caller.  ``fields`` is left alone: its helpers run millions of
times per workload, so wrapping them would measure the tracer; their time
shows as the callers' self time.  Nothing under ``src/`` changes, and
``restore`` puts every original back.
"""

from __future__ import annotations

import inspect
import os
import sys
from time import perf_counter

LAYERS = ("functions", "distance", "mis", "graph", "spectrum", "cosets", "bounds", "formats", "cli")

# Public functions the per-layer metrics are derived from; one that cannot be
# found is counted in trace.missing, so a rename shows instead of a layer
# silently reading zero.
EXPECTED = {
    "functions": ("coset_decomposition", "function_distance"),
    "distance": ("build_drm", "build_fdm", "n_q_exact", "binary_plotkin_bound"),
    "mis": ("max_independent_set",),
    "graph": ("build_graph", "extract_fcc", "verify_fcc", "find_fcc_violation", "decode"),
    "spectrum": ("eigenvalue_redundancy_bound",),
    "cosets": ("cosetwise_requirements", "build_cosetwise_encoder"),
    "bounds": ("bound_report", "fdm_upper_bound", "optimality_check", "a_q_exact"),
    "formats": ("read_encoder_file", "read_function_file", "render_encoder_file", "render_function_file"),
    "cli": ("main",),
}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    """Aggregated spans: per function calls, total and self seconds, per
    (caller, callee) edge calls and seconds, plus work counters."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack = [["<bench>", 0.0]]

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        stack, stats, edges = self._stack, self.stats, self.edges
        after = self._after(name)
        stats[name] = [0, 0.0, 0.0]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                rec = stats[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                edge = edges.setdefault((parent[0], name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
                if after is not None:
                    after(args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [m for key, m in sys.modules.items() if key == prefix or key.startswith(prefix + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{prefix}.{layer}")
            if module is None:
                self.missing += [f"{layer}.{fn}" for fn in EXPECTED[layer]]
                continue
            for attr in EXPECTED[layer]:
                if not callable(getattr(module, attr, None)):
                    self.missing.append(f"{layer}.{attr}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrapper = self._wrap(name, obj)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, obj))

    def restore(self) -> None:
        for holder, key, obj in reversed(self._patched):
            setattr(holder, key, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- work counters, taken after each call --------------------------------

    def _after(self, name: str):
        for family in ("formats.render", "formats.read"):
            if name.startswith(family + "_"):
                name = family
        return getattr(self, "_after_" + name.replace(".", "_"), None)

    def _after_distance_build_drm(self, args, kwargs, result, error):
        f = _arg(args, kwargs, 0, "f")
        self._count("drm_entries", (f.q**f.k) ** 2)

    def _after_distance_n_q_exact(self, args, kwargs, result, error):
        if result is None:
            return
        start = _arg(args, kwargs, 0, "D").max_entry()
        last = result.n if result.found else result.r_cap
        self._count("nq_lengths", max(0, last - start + 1))

    def _after_mis_max_independent_set(self, args, kwargs, result, error):
        if result is not None:
            self._count("mis_nodes", result.nodes)
            self._count("mis_complete", result.complete)
        elif isinstance(error, self.package.BudgetExceededError):
            budget = _arg(args, kwargs, 2, "node_budget", self.package.mis.DEFAULT_NODE_BUDGET)
            self._count("mis_nodes", budget + 1)
            self._count("mis_budget_exits")

    def _after_graph_build_graph(self, args, kwargs, result, error):
        f, r = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "r")
        self._count("graph_vertices", f.q ** (f.k + r))

    def _after_graph_find_fcc_violation(self, args, kwargs, result, error):
        E = _arg(args, kwargs, 0, "E")
        m = E.f.q**E.f.k
        self._count("verify_pairs", m * (m - 1) // 2)

    def _after_spectrum_eigenvalue_redundancy_bound(self, args, kwargs, result, error):
        if result is None:
            return
        f = _arg(args, kwargs, 0, "f")
        r_max = _arg(args, kwargs, 2, "r_max")
        last = r_max if result.exhausted else result.value
        self._count("spectrum_points", sum(f.q ** (f.k + r) for r in range(last + 1)))

    def _after_formats_render(self, args, kwargs, result, error):
        if isinstance(result, str):
            self._count("formats_bytes", len(result.encode()))

    def _after_formats_read(self, args, kwargs, result, error):
        if error is None:
            self._count("formats_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    # -- per-layer metrics ----------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def _calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def _hit_ratio(self, name: str) -> float:
        info = getattr(self.originals.get(name), "cache_info", None)
        if info is None:
            return 0.0
        ci = info()
        return ci.hits / (ci.hits + ci.misses) if ci.hits + ci.misses else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as name -> (value, unit); 0 where the
        workload does not reach the layer."""
        c = self.counts.get
        mis_calls = self._calls("mis.max_independent_set")
        mis_s = self._self("mis.max_independent_set")
        fmt = [n for n in self.stats if n.startswith("formats.")]
        return {
            "functions.coset_decomposition.self_s": (self._self("functions.coset_decomposition"), "s"),
            "functions.coset_decomposition.hit_ratio": (self._hit_ratio("functions.coset_decomposition"), "ratio"),
            "functions.function_distance.calls": (self._calls("functions.function_distance"), "count"),
            "functions.function_distance.self_s": (self._self("functions.function_distance"), "s"),
            "distance.build_drm.self_s": (self._self("distance.build_drm"), "s"),
            "distance.build_drm.entries": (c("drm_entries", 0), "count"),
            "distance.binary_plotkin_bound.self_s": (self._self("distance.binary_plotkin_bound"), "s"),
            "distance.build_fdm.calls": (self._calls("distance.build_fdm"), "count"),
            "distance.build_fdm.self_s": (self._self("distance.build_fdm"), "s"),
            "distance.n_q_exact.self_s": (self._self("distance.n_q_exact"), "s"),
            "distance.n_q_exact.lengths": (c("nq_lengths", 0), "count"),
            "mis.max_independent_set.self_s": (mis_s, "s"),
            "mis.nodes": (c("mis_nodes", 0), "count"),
            "mis.nodes_per_s": (c("mis_nodes", 0) / mis_s if mis_s else 0.0, "1/s"),
            "mis.budget_exits": (c("mis_budget_exits", 0), "count"),
            "mis.complete_ratio": (c("mis_complete", 0) / mis_calls if mis_calls else 0.0, "ratio"),
            "graph.build_graph.self_s": (self._self("graph.build_graph"), "s"),
            "graph.build_graph.vertices": (c("graph_vertices", 0), "count"),
            "graph.extract_fcc.self_s": (self._self("graph.extract_fcc"), "s"),
            "graph.verify.self_s": (self._self("graph.verify_fcc", "graph.find_fcc_violation"), "s"),
            "graph.verify.pairs": (c("verify_pairs", 0), "count"),
            "graph.decode.calls": (self._calls("graph.decode"), "count"),
            "graph.decode.self_s": (self._self("graph.decode"), "s"),
            "spectrum.eigenvalue_redundancy_bound.self_s": (self._self("spectrum.eigenvalue_redundancy_bound"), "s"),
            "spectrum.points": (c("spectrum_points", 0), "count"),
            "cosets.cosetwise_requirements.self_s": (self._self("cosets.cosetwise_requirements"), "s"),
            "cosets.build_cosetwise_encoder.self_s": (self._self("cosets.build_cosetwise_encoder"), "s"),
            "bounds.bound_report.self_s": (self._self("bounds.bound_report"), "s"),
            "bounds.fdm_upper_bound.self_s": (self._self("bounds.fdm_upper_bound"), "s"),
            "bounds.optimality_check.self_s": (self._self("bounds.optimality_check"), "s"),
            "bounds.a_q_exact.self_s": (self._self("bounds.a_q_exact"), "s"),
            "bounds.a_q_exact.hit_ratio": (self._hit_ratio("bounds.a_q_exact"), "ratio"),
            "formats.read.self_s": (self._self(*[n for n in fmt if n.startswith("formats.read_")]), "s"),
            "formats.render.self_s": (
                self._self(*[n for n in fmt if n.startswith(("formats.render_", "formats.write_"))]), "s"),
            "formats.bytes": (c("formats_bytes", 0), "count"),
            # main and the command handlers it dispatches to
            "cli.main.self_s": (self._self(*[n for n in self.stats if n.startswith("cli.")]), "s"),
            "trace.missing": (len(self.missing), "count"),
        }

    def call_tree(self) -> list[str]:
        """Caller -> callee lines, slowest first."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        return [f"{caller} -> {callee}: {n} calls, {s:.4f} s" for (caller, callee), (n, s) in rows]
