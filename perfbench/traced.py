"""Run one workload's CLI commands inside a single interpreter.

    python3 perfbench/traced.py SPEC_JSON OUT_JSON --trace 0|1

SPEC_JSON holds {"commands": [[argv...], ...]}.  Every command goes through
`ringwalk.cli.main(argv)` with stdout captured, so the report bytes are the
ones the CLI would print.  With --trace 1 every public function of every
`ringwalk` module (plus the few methods and cached properties named in
EXTRA_TARGETS) is replaced, from here, by a wrapper that records a span:
name, start, end and parent.  Nothing inside the program changes.  The
spans stay in memory and are written to OUT_JSON's sibling `.spans.json`
when the run ends, together with their per-layer aggregation in OUT_JSON.

With --trace 0 the same commands run with no wrappers installed; the
difference between the two walls is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import traceback
from collections import Counter, defaultdict

MODULES = ("fields", "rings", "exact", "chain", "gl2", "spectrum",
           "stationary", "mixing", "checks", "reports", "cli", "_kernels")

# (module, class, attribute) targets that are not module-level functions.
EXTRA_TARGETS = (
    ("exact", "ScaledMatrix", "__matmul__"),
    ("rings", "FiniteRing", "units"),
    ("rings", "FiniteRing", "similarity"),
    ("rings", "FiniteRing", "ideals"),
)

# per-layer time metric -> the span whose self time it is (unnamed helper
# spans below it count as its own time; see Tracer.layer_times)
LAYER_SPANS = {
    "rings.build_s": ("rings.zn_ring", "rings.matrix_ring",
                      "rings.upper_triangular_ring", "rings.product_ring"),
    "rings.units_s": ("rings.FiniteRing.units",),
    "rings.similarity_s": ("rings.FiniteRing.similarity",),
    "rings.ideals_s": ("rings.FiniteRing.ideals",),
    "chain.build_B_s": ("chain.build_B",),
    "chain.build_M_s": ("chain.build_M",),
    "exact.matmul_s": ("exact.ScaledMatrix.__matmul__",),
    "exact.stationary_nullspace_s": ("exact.stationary_nullspace",),
    "stationary.solve_s": ("stationary.stationary_solve",),
    "stationary.recursive_s": ("stationary.stationary_recursive",),
    "stationary.uniform_s": ("stationary.stationary_uniform",),
    "stationary.gl2_s": ("stationary.stationary_gl2",),
    "spectrum.eig_numeric_s": ("spectrum.eig_numeric",),
    "spectrum.block_spectrum_s": ("spectrum.block_spectrum",),
    "spectrum.gl2_spectrum_s": ("spectrum.gl2_spectrum",),
    "spectrum.multisets_match_s": ("spectrum.multisets_match",),
    "spectrum.mult_free_s": ("spectrum.is_multiplicity_free_nonunit",),
    "gl2.character_table_s": ("gl2.character_table",),
    "mixing.d_of_t_s": ("mixing.d_of_t",),
    "mixing.simulate_s": ("mixing.simulate",),
    "kernels.run_chain_s": ("_kernels.run_chain",),
    "kernels.matrix_mul_table_s": ("_kernels.matrix_mul_table",),
    "reports.render_s": ("reports.render_text", "reports.render_json"),
}
CALL_METRICS = {
    "chain.build_B.calls": "chain.build_B",
    "chain.build_M.calls": "chain.build_M",
    "exact.matmul.calls": "exact.ScaledMatrix.__matmul__",
    "stationary.solve.calls": "stationary.stationary_solve",
    "spectrum.eig_numeric.calls": "spectrum.eig_numeric",
}
# checks.<entry>_s is the inclusive time of the function behind each
# full_suite entry, so a verify change can be traced to one cross-check
# ("ring-axioms" is validated during ring construction and has none).
CHECK_FUNCTIONS = {
    "orbit-stabilizer": "check_orbit_stabilizer",
    "s-partition": "check_s_partition",
    "rxy-annihilator": "check_rxy_sizes",
    "unit-transitivity": "check_witnesses",
    "multiplicity-free": "check_mult_free_expectations",
    "conjugation-invariance": "check_conjugation_invariance",
    "spectrum-two-way": "check_spectrum_two_way",
    "spectrum-gl2": "check_spectrum_gl2",
    "spectrum-m-shift": "check_m_shift",
    "stationary-agreement": "check_stationary_agreement",
    "mixing-bound": "check_mixing",
}
COUNT_METRICS = {"rings.n": "count", "rings.classes": "count",
                 "rings.ideals": "count", "chain.M_den_bits": "bits",
                 "mixing.sim_steps": "count"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in LAYER_SPANS}
    units.update({name: "count" for name in CALL_METRICS})
    units.update({f"checks.{entry}_s": "s" for entry in CHECK_FUNCTIONS})
    units.update(COUNT_METRICS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index], plus exact counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.ring_sizes = {}      # ring label -> {"n", "classes", "ideals"}

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def layer_times(self, targets):
        """Self time per target span name, in seconds.

        A span that is not a target (an unnamed helper) counts as self time
        of its nearest target ancestor, so a metric is the time spent in that
        function and its helpers, minus the time in other targets.  Spans
        with no target ancestor are attributed to their top-level span.
        """
        owner = [0] * len(self.spans)
        for i, (name, _, _, parent) in enumerate(self.spans):
            owner[i] = i if name in targets or parent < 0 else owner[parent]
        own_ns = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and owner[parent] != owner[i]:
                own_ns[owner[parent]] -= end - start
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            if owner[i] == i:
                out[span[0]] += own_ns[i] / 1e9
        return dict(out)

    def call_counts(self):
        return dict(Counter(span[0] for span in self.spans))

    def inclusive_times(self):
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += (end - start) / 1e9
        return dict(out)


def _after_ring(tracer, args, ring):
    tracer.ring_sizes.setdefault(ring.label, {})["n"] = ring.n


def _after_similarity(tracer, args, part):
    tracer.ring_sizes.setdefault(args[0].label, {})["classes"] = len(part)


def _after_ideals(tracer, args, poset):
    tracer.ring_sizes.setdefault(args[0].label, {})["ideals"] = len(poset)


def _after_build_M(tracer, args, M):
    bits = M.matrix.den.bit_length()
    tracer.counts["chain.M_den_bits"] = max(tracer.counts["chain.M_den_bits"],
                                            bits)


def _after_simulate(tracer, args, res):
    tracer.counts["mixing.sim_steps"] += res.samples * res.steps


AFTER = {
    "rings.zn_ring": _after_ring,
    "rings.matrix_ring": _after_ring,
    "rings.upper_triangular_ring": _after_ring,
    "rings.product_ring": _after_ring,
    "rings.FiniteRing.similarity": _after_similarity,
    "rings.FiniteRing.ideals": _after_ideals,
    "chain.build_M": _after_build_M,
    "mixing.simulate": _after_simulate,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every ringwalk module.

    A function imported by name into another module (`from .rings import
    matrix_ring`) is replaced there too, so every call site is traced.
    """
    mods = {m: importlib.import_module(f"ringwalk.{m}") for m in MODULES}
    namespaces = list(mods.values()) + [importlib.import_module("ringwalk")]
    replaced = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, AFTER.get(name))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in replaced and callable(obj):
                setattr(ns, attr, replaced[id(obj)])
    for short, cls_name, attr in EXTRA_TARGETS:
        cls = getattr(mods[short], cls_name)
        name = f"{short}.{cls_name}.{attr}"
        current = cls.__dict__[attr]
        if isinstance(current, functools.cached_property):
            prop = functools.cached_property(
                tracer.wrap(name, current.func, AFTER.get(name)))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, tracer.wrap(name, current, AFTER.get(name)))


def run(commands, trace: bool):
    import ringwalk.cli

    tracer = Tracer() if trace else None
    if trace:
        install(tracer)
    results = []
    t0 = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        call = functools.partial(ringwalk.cli.main, argv)
        if trace:
            call = tracer.wrap(f"command.{argv[0]}", call)
        error = ""
        with contextlib.redirect_stdout(buf):
            try:
                rc = call()
            except SystemExit as exc:        # argparse rejected the argv
                rc = exc.code
            except Exception:                # a crash fails this command only
                rc, error = 1, traceback.format_exc()
        results.append({"argv": argv, "rc": rc, "stdout": buf.getvalue(),
                        "stderr": error})
    wall = time.perf_counter() - t0
    return tracer, results, wall


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics (all but trace.overhead_s) and accounting totals."""
    targets = {name for names in LAYER_SPANS.values() for name in names}
    layer = tracer.layer_times(targets)
    calls = tracer.call_counts()
    inclusive = tracer.inclusive_times()
    metrics = {metric: sum(layer.get(name, 0.0) for name in names)
               for metric, names in LAYER_SPANS.items()}
    metrics.update({metric: calls.get(name, 0)
                    for metric, name in CALL_METRICS.items()})
    metrics.update({f"checks.{entry}_s": inclusive.get(f"checks.{fn}", 0.0)
                    for entry, fn in CHECK_FUNCTIONS.items()})
    for key in ("n", "classes", "ideals"):
        metrics[f"rings.{key}"] = sum(sizes.get(key, 0)
                                      for sizes in tracer.ring_sizes.values())
    metrics["chain.M_den_bits"] = tracer.counts["chain.M_den_bits"]
    metrics["mixing.sim_steps"] = tracer.counts["mixing.sim_steps"]
    return {"metrics": metrics, "spans": len(tracer.spans),
            "self_time_sum_s": sum(layer.values()),
            "top_level_s": sum((end - start) / 1e9 for _, start, end, parent
                               in tracer.spans if parent < 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    tracer, results, wall = run(commands, bool(args.trace))
    out = {"wall_s": wall, "results": results}
    if tracer is not None:
        out.update(summarize(tracer))
        spans_path = args.out[:-len(".json")] + ".spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": tracer.spans}, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
