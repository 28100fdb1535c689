"""Span recording around the public entry points of each blvoa layer.

Tracing lives in the benchmark, not in the program: ``install`` replaces
each traced function with a wrapper in every ``blvoa`` module that binds it
(``blvoa.cli`` imports ``p0_basis`` by name, ``zero_weight`` calls its own
``generate_module``), and each traced method on its class.  A span records
its name, its parent span and its start and end; spans stay in memory and
are written out once, when the traced pass ends.  Engine state such as memo
tables is only read, after each job.

Layers are the modules: rootsys, liealg, uea, affine, zero_weight,
classify, cli.  ``LAYER_METRICS`` lists every per-layer metric with the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

CLI_SPAN = "cli.main"

# (span name, module, qualified attribute) of every traced entry point
ENTRY_POINTS = (
    ("rootsys.build_root_system", "blvoa.rootsys", "build_root_system"),
    ("rootsys.weyl_dim", "blvoa.rootsys", "RootSystem.weyl_dim"),
    ("liealg.LieAlgebra", "blvoa.liealg", "LieAlgebra.__init__"),
    ("liealg.structure_constants", "blvoa.liealg", "LieAlgebra.structure_constants"),
    ("uea.multiply", "blvoa.uea", "UEA.multiply"),
    ("uea.ad", "blvoa.uea", "UEA.ad"),
    ("uea.weight_of", "blvoa.uea", "UEA.weight_of"),
    ("uea.identity_suite", "blvoa.uea", "identity_suite"),
    ("uea.poly_echelon", "blvoa.uea", "poly_echelon"),
    ("affine.apply", "blvoa.affine", "VacuumModule.apply"),
    ("affine.check_singular", "blvoa.affine", "check_singular"),
    ("affine.is_admissible", "blvoa.affine", "is_admissible"),
    ("zero_weight.generate_module", "blvoa.zero_weight", "generate_module"),
    ("zero_weight.p0_basis", "blvoa.zero_weight", "p0_basis"),
    ("classify.classify_category_o", "blvoa.classify", "classify_category_o"),
    ("classify.certify", "blvoa.classify", "certify"),
)

# classes whose instances are kept for the length of one job, so that their
# tables can be read when it ends
WATCHED = (
    ("liealg", "blvoa.liealg", "LieAlgebra"),
    ("uea", "blvoa.uea", "UEA"),
    ("affine", "blvoa.affine", "VacuumModule"),
)

# name -> (unit, better, which end-to-end metric on which workload it moves)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "liealg.LieAlgebra.s": ("s", "lower", "wall_s, slowest_job_s on rank4; small on oracle"),
    "liealg.structure_constants.s": ("s", "lower", "wall_s, slowest_job_s on rank4; small on oracle"),
    "liealg.structure_constants.entries": ("count", "lower", "wall_s, slowest_job_s on rank4; small on oracle"),
    "uea.multiply.calls": ("count", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.multiply.self_s": ("s", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.multiply.term_pairs": ("count", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.ad.calls": ("count", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.weight_of.calls": ("count", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.weight_of.s": ("s", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.memo_entries": ("count", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.memo_new_per_pair": ("ratio", "lower", "wall_s, peak_rss_mb on oracle; wall_s on rank4; none on vacuum"),
    "uea.identity_suite.s": ("s", "lower", "wall_s on rank4; none on vacuum"),
    "uea.poly_echelon.s": ("s", "lower", "wall_s on oracle; none on vacuum"),
    "zero_weight.generate_module.s": ("s", "lower", "wall_s, slowest_job_s on oracle only"),
    "zero_weight.generate_module.self_s": ("s", "lower", "wall_s, slowest_job_s on oracle only"),
    "zero_weight.module_dim": ("count", "lower", "wall_s, slowest_job_s on oracle only"),
    "zero_weight.useful_ratio": ("ratio", "higher", "wall_s, slowest_job_s on oracle only"),
    "zero_weight.p0_basis.s": ("s", "lower", "wall_s, slowest_job_s on oracle only"),
    "affine.apply.calls": ("count", "lower", "wall_s, peak_rss_mb on vacuum"),
    "affine.apply.s": ("s", "lower", "wall_s, peak_rss_mb on vacuum"),
    "affine.apply_cache_entries": ("count", "lower", "wall_s, peak_rss_mb on vacuum"),
    "affine.check_singular.s": ("s", "lower", "wall_s, peak_rss_mb on vacuum"),
    "affine.is_admissible.calls": ("count", "lower", "wall_s on rank4"),
    "affine.is_admissible.s": ("s", "lower", "wall_s on rank4"),
    "classify.classify_category_o.s": ("s", "lower", "wall_s on rank4"),
    "classify.certify.s": ("s", "lower", "wall_s on rank4"),
    "classify.entries": ("count", "lower", "wall_s on rank4"),
    "rootsys.build_root_system.s": ("s", "lower", "floor on every workload; not expected to move"),
    "rootsys.weyl_dim.calls": ("count", "lower", "floor on every workload; not expected to move"),
    "cli.self_s": ("s", "lower", "floor on every workload; not expected to move"),
    "trace.wall_s": ("s", "lower", "wall_s of the traced pass"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s"),
}


class Tracer:
    """In-memory span recorder.

    ``spans[i]`` is ``(name, parent index or -1, start_ns, end_ns)``; a span
    is filled in when it ends, so ``None`` marks one still open.
    """

    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, int, int, int]]] = []
        self.counts: Counter = Counter()
        self.jobs: list[tuple[list[str], int]] = []   # (argv, root span index)
        self.instances: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end)

    def run_job(self, argv: list[str], fn: Callable, *args):
        """Run one CLI job as a root span, then read the engine tables of
        every watched instance it created."""
        self.jobs.append((list(argv), len(self.spans)))
        try:
            return self.span(CLI_SPAN, fn, args, {})
        finally:
            self._read_tables()

    def _read_tables(self) -> None:
        for lie in self.instances.pop("liealg", []):
            table = getattr(lie, "_brackets", None) or {}
            self.counts["liealg.structure_constants.entries"] += sum(
                len(row) for row in table.values()
            )
        for engine in self.instances.pop("uea", []):
            self.counts["uea.memo_entries"] += len(engine._mono_cache)
        for module in self.instances.pop("affine", []):
            self.counts["affine.apply_cache_entries"] += len(module._apply_cache)

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for name, modname, attr in ENTRY_POINTS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = sys.modules[modname]
            if owner_name:
                cls = getattr(owner, owner_name)
                setattr(cls, fn_name, self._wrap(name, getattr(cls, fn_name)))
            else:
                original = getattr(owner, fn_name)
                wrapped = self._wrap(name, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("blvoa"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
        for layer, modname, clsname in WATCHED:
            cls = getattr(sys.modules[modname], clsname)
            cls.__init__ = self._watch(layer, cls.__init__)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        if name == "uea.multiply":
            @functools.wraps(fn)
            def wrapper(engine, a, b):
                counts["uea.multiply.term_pairs"] += len(a.terms) * len(b.terms)
                return self.span(name, fn, (engine, a, b), {})
        elif name == "zero_weight.generate_module":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                module = self.span(name, fn, args, kwargs)
                counts["zero_weight.module_dim"] += module.dim
                return module
        elif name == "classify.certify":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, args, kwargs)
                counts["classify.entries"] += len(result.entries)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        return wrapper

    def _watch(self, layer: str, init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.instances[layer].append(obj)
        return wrapper

    # -- results ---------------------------------------------------------------

    def totals(self, first_span: int = 0, last_span: Optional[int] = None) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, over
        the spans in [first_span, last_span); also the calls per
        (parent name, child name) pair."""
        spans = self.spans[first_span:last_span]
        child_ns = [0] * len(spans)
        by_name: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        pairs: Counter = Counter()
        for name, parent, start, end in spans:
            if parent >= first_span:
                child_ns[parent - first_span] += end - start
                pairs[(spans[parent - first_span][0], name)] += 1
        for (name, _, start, end), inner in zip(spans, child_ns):
            row = by_name[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {
            "names": {n: (c, t / 1e9, s / 1e9) for n, (c, t, s) in by_name.items()},
            "pairs": pairs,
        }

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``LAYER_METRICS`` except the two
        ``trace.*`` ones, which need the untraced run."""
        t = self.totals()
        names, pairs, counts = t["names"], t["pairs"], self.counts

        def calls(n):
            return names.get(n, (0, 0.0, 0.0))[0]

        def incl(n):
            return names.get(n, (0, 0.0, 0.0))[1]

        def own(n):
            return names.get(n, (0, 0.0, 0.0))[2]

        pairs_done = counts["uea.multiply.term_pairs"]
        gm_ads = pairs[("zero_weight.generate_module", "uea.ad")]
        return {
            "liealg.LieAlgebra.s": incl("liealg.LieAlgebra"),
            "liealg.structure_constants.s": incl("liealg.structure_constants"),
            "liealg.structure_constants.entries": counts["liealg.structure_constants.entries"],
            "uea.multiply.calls": calls("uea.multiply"),
            "uea.multiply.self_s": own("uea.multiply"),
            "uea.multiply.term_pairs": pairs_done,
            "uea.ad.calls": calls("uea.ad"),
            "uea.weight_of.calls": calls("uea.weight_of"),
            "uea.weight_of.s": incl("uea.weight_of"),
            "uea.memo_entries": counts["uea.memo_entries"],
            "uea.memo_new_per_pair": counts["uea.memo_entries"] / pairs_done if pairs_done else 0.0,
            "uea.identity_suite.s": incl("uea.identity_suite"),
            "uea.poly_echelon.s": incl("uea.poly_echelon"),
            "zero_weight.generate_module.s": incl("zero_weight.generate_module"),
            "zero_weight.generate_module.self_s": own("zero_weight.generate_module"),
            "zero_weight.module_dim": counts["zero_weight.module_dim"],
            "zero_weight.useful_ratio": counts["zero_weight.module_dim"] / gm_ads if gm_ads else 0.0,
            "zero_weight.p0_basis.s": incl("zero_weight.p0_basis"),
            "affine.apply.calls": calls("affine.apply"),
            "affine.apply.s": incl("affine.apply"),
            "affine.apply_cache_entries": counts["affine.apply_cache_entries"],
            "affine.check_singular.s": incl("affine.check_singular"),
            "affine.is_admissible.calls": calls("affine.is_admissible"),
            "affine.is_admissible.s": incl("affine.is_admissible"),
            "classify.classify_category_o.s": incl("classify.classify_category_o"),
            "classify.certify.s": incl("classify.certify"),
            "classify.entries": counts["classify.entries"],
            "rootsys.build_root_system.s": incl("rootsys.build_root_system"),
            "rootsys.weyl_dim.calls": calls("rootsys.weyl_dim"),
            "cli.self_s": own(CLI_SPAN),
        }

    def job_breakdown(self) -> list[dict]:
        """Inclusive seconds per span name within each job."""
        out = []
        bounds = [idx for _, idx in self.jobs] + [len(self.spans)]
        for (argv, first), last in zip(self.jobs, bounds[1:]):
            names = self.totals(first, last)["names"]
            out.append({"argv": argv, "s": {n: v[1] for n, v in names.items()}})
        return out

    def write(self, path) -> None:
        """Write every span, and the job each root span belongs to.  Names
        are indices into ``names``; times are nanoseconds from the first
        span's start."""
        names: dict[str, int] = {}
        t0 = self.spans[0][2] if self.spans else 0
        rows = [
            [names.setdefault(name, len(names)), parent, start - t0, end - t0]
            for name, parent, start, end in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_ns", "end_ns"],
                    "names": list(names),
                    "jobs": [{"argv": argv, "span": idx} for argv, idx in self.jobs],
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
