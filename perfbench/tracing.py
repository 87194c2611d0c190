"""Span and count tracing of lattice_lab, installed from outside the package.

``install(tracer)`` replaces public functions with wrappers and returns a
function that puts the originals back.  Each wrapper is rebound in every
``lattice_lab`` module namespace that holds the original: ``cli``,
``harness`` and ``martingales`` import their callees with ``from ...
import``, so patching only the defining module would miss those calls.

Coarse entry points record spans (name, start, end, parent, op id).  The
fine-grained ``apply``, ``norm``, ``operator_norm``, ``trial_rng`` and the
``LatticeVector`` / ``Filtration`` constructors only bump counters, because
they run once per (n, m) pair and a span each would dominate the run.

``Tracer.raw()`` gives additive totals that can be summed across processes
with ``merge``; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

CHECK_IDS = (
    "nesting",
    "closed-limits",
    "limit-defect",
    "tail-approx",
    "eventual-not-closed",
    "abs-closure",
    "band-lattice",
    "abs-alignment",
)

# module -> public functions recorded as spans named "<module>.<function>"
SPANNED = {
    "martingales": (
        "classify",
        "defect_profile",
        "is_martingale",
        "eventual_witness",
        "eventual_witness_pairwise",
        "one_step_defects",
        "tail_verdict",
        "check_lattice_closure",
        "haar_example",
        "pairing_example",
        "harmonic_tail_example",
    ),
    "filtration": (
        "build_truncation",
        "build_pairing",
        "build_dyadic",
        "build_random_nested",
        "validate",
        "is_contractive_filtration",
    ),
    "jsonio": ("load_instance", "dump_instance"),
    "harness": ("run_check",),
    "cli": ("main",),
}
EXAMPLES = ("haar_example", "pairing_example", "harmonic_tail_example")
BUILDERS = ("build_truncation", "build_pairing", "build_dyadic", "build_random_nested")


class Tracer:
    """Spans and counters of one process; the spans stay in memory until ``raw``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.stack_bytes = 0
        self.classify_depth = 0
        self.op_id = 0

    def enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def note_stack(self, filt) -> None:
        """Track the largest dense operator stack, N * d * d float64s, seen by a traced call."""
        self.stack_bytes = max(self.stack_bytes, len(filt.ops) * filt.space.dim ** 2 * 8)

    def raw(self) -> dict:
        """Additive totals: inclusive time and calls per span name, self time per module."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        span_s: Counter = Counter()
        span_calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            span_s[name] += end - start
            span_calls[name] += 1
            self_s[name.split(".", 1)[0]] += end - start - inner
        return {
            "span_s": dict(span_s),
            "span_calls": dict(span_calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "stack_bytes": self.stack_bytes,
            "spans": len(self.spans),
        }


def merge(raws: list[dict]) -> dict:
    out = {"span_s": Counter(), "span_calls": Counter(), "self_s": Counter(),
           "counts": Counter(), "stack_bytes": 0, "spans": 0}
    for r in raws:
        for key in ("span_s", "span_calls", "self_s", "counts"):
            out[key].update(r[key])
        out["stack_bytes"] = max(out["stack_bytes"], r["stack_bytes"])
        out["spans"] += r["spans"]
    return out


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each as (value, unit)."""
    s, calls, c = raw["span_s"], raw["span_calls"], raw["counts"]

    def t(name: str) -> float:
        return float(s.get(name, 0.0))

    pairs = c.get("pairs_needed", 0)
    d2 = c.get("apply_d2", 0)
    m = {
        "martingales.classify_s": (t("martingales.classify"), "s"),
        "martingales.classify_calls": (calls.get("martingales.classify", 0), "count"),
        "martingales.defect_profile_s": (t("martingales.defect_profile"), "s"),
        "martingales.defect_profile_calls": (calls.get("martingales.defect_profile", 0), "count"),
        "martingales.is_martingale_s": (t("martingales.is_martingale"), "s"),
        "martingales.eventual_witness_s": (t("martingales.eventual_witness"), "s"),
        "martingales.tail_verdict_s": (t("martingales.tail_verdict"), "s"),
        "martingales.examples_s": (sum(t(f"martingales.{f}") for f in EXAMPLES), "s"),
        "martingales.pairs_needed": (pairs, "count"),
        "martingales.apply_per_pair": (
            c.get("apply_in_classify", 0) / pairs if pairs else 0.0, "ratio"),
        "martingales.self_s": (float(raw["self_s"].get("martingales", 0.0)), "s"),
        "operators.apply_calls": (c.get("apply", 0), "count"),
        "operators.norm_calls": (c.get("operator_norm", 0), "count"),
        "operators.apply_flops": (2 * d2, "flop"),
        "operators.apply_bytes": (8 * d2, "B"),
        "spaces.norm_calls": (c.get("norm", 0), "count"),
        "spaces.vector_allocs": (c.get("vector_allocs", 0), "count"),
        "filtration.build_s": (sum(t(f"filtration.{f}") for f in BUILDERS), "s"),
        "filtration.validate_s": (t("filtration.validate"), "s"),
        "filtration.validate_matmuls": (c.get("validate_matmuls", 0), "count"),
        "filtration.stack_bytes": (raw["stack_bytes"], "B"),
        "filtration.contractive_checks": (c.get("contractive_checks", 0), "count"),
        "filtration.self_s": (float(raw["self_s"].get("filtration", 0.0)), "s"),
        "jsonio.load_s": (t("jsonio.load_instance"), "s"),
        "jsonio.dump_s": (t("jsonio.dump_instance"), "s"),
        "jsonio.bytes_read": (c.get("bytes_read", 0), "B"),
        "jsonio.bytes_written": (c.get("bytes_written", 0), "B"),
    }
    for check_id in CHECK_IDS:
        m[f"harness.{check_id}_s"] = (t(f"harness.{check_id}"), "s")
    m["harness.trials_drawn"] = (c.get("trial_rng", 0), "count")
    m["harness.results"] = (c.get("results", 0), "count")
    m["harness.self_s"] = (float(raw["self_s"].get("harness", 0.0)), "s")
    m["cli.main_s"] = (t("cli.main"), "s")
    m["cli.self_s"] = (float(raw["self_s"].get("cli", 0.0)), "s")
    m["trace.spans"] = (raw["spans"], "count")
    return m


def _span_name(module: str, fn_name: str, args: tuple, kwargs: dict) -> str:
    if module == "harness" and fn_name == "run_check":
        return "harness." + str(args[0] if args else kwargs["check_id"])
    return f"{module}.{fn_name}"


def _spanned(tracer: Tracer, module: str, fn_name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(_span_name(module, fn_name, args, kwargs))
        is_classify = fn_name == "classify"
        if is_classify:
            n = args[0].horizon
            tracer.counts["pairs_needed"] += n * (n + 1) // 2
            tracer.classify_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            if is_classify:
                tracer.classify_depth -= 1
            tracer.leave(idx)
        _after(tracer, fn_name, args, kwargs, result)
        return result

    return wrapper


def _after(tracer: Tracer, fn_name: str, args: tuple, kwargs: dict, result) -> None:
    """Counts that a spanned call derives from its arguments or result."""
    counts = tracer.counts
    if fn_name == "validate":
        n = args[0].horizon
        counts["validate_matmuls"] += n * n + n
        contractive = args[1] if len(args) > 1 else kwargs.get("require_contractive", False)
        counts["contractive_checks"] += bool(contractive)
        tracer.note_stack(args[0])
    elif fn_name == "is_contractive_filtration":
        counts["contractive_checks"] += 1
        tracer.note_stack(args[0])
    elif fn_name == "load_instance":
        counts["bytes_read"] += os.path.getsize(args[0])
    elif fn_name == "dump_instance":
        counts["bytes_written"] += os.path.getsize(args[1])
    elif fn_name == "run_check":
        counts["results"] += len(result)


def _counted(tracer: Tracer, fn_name: str, fn):
    counts = tracer.counts
    if fn_name == "apply":
        @functools.wraps(fn)
        def wrapper(op, x):
            counts["apply"] += 1
            counts["apply_d2"] += x.space.dim ** 2
            if tracer.classify_depth:
                counts["apply_in_classify"] += 1
            return fn(op, x)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[fn_name] += 1
            return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap lattice_lab's public functions; returns the function that unwraps them."""
    from lattice_lab import cli, filtration, harness, jsonio, martingales, operators, spaces

    modules = {"martingales": martingales, "filtration": filtration, "jsonio": jsonio,
               "harness": harness, "cli": cli, "operators": operators, "spaces": spaces}
    replace = {}
    for module, names in SPANNED.items():
        for fn_name in names:
            fn = getattr(modules[module], fn_name)
            replace[id(fn)] = (fn, _spanned(tracer, module, fn_name, fn))
    for module, fn_name in (("operators", "apply"), ("operators", "operator_norm"),
                            ("spaces", "norm"), ("harness", "trial_rng")):
        fn = getattr(modules[module], fn_name)
        replace[id(fn)] = (fn, _counted(tracer, fn_name, fn))

    namespaces = [mod for name, mod in sys.modules.items()
                  if mod is not None and (name == "lattice_lab" or name.startswith("lattice_lab."))]
    undo = []
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))

    vector_init = spaces.LatticeVector.__post_init__
    filt_init = filtration.Filtration.__post_init__

    def counted_vector_init(self):
        tracer.counts["vector_allocs"] += 1
        vector_init(self)

    def sized_filt_init(self):
        filt_init(self)
        tracer.note_stack(self)

    spaces.LatticeVector.__post_init__ = counted_vector_init
    filtration.Filtration.__post_init__ = sized_filt_init
    undo.append((spaces.LatticeVector, "__post_init__", vector_init))
    undo.append((filtration.Filtration, "__post_init__", filt_init))

    def uninstall() -> None:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return uninstall
