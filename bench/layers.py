"""Per-layer trace of formzeros, recorded from the benchmark's own files.

Each layer (a formzeros module) has its public entry points wrapped.
A wrapper counts calls and, for timed entry points, records a span;
a span's self time is its duration minus the spans nested in it.
Python binds a function once per name, so a wrapper replaces the
original at every binding site: module globals (``from .matrix import
rank as matrix_rank``), the package namespace, and class attributes
(``__rmul__ = __mul__``, ``convert = reduce``).

A traced run makes three passes over one fixed list of operations, each
from a fresh import: untraced, profiled with cProfile on the first
chunk, and traced.  It checks that the traced pass prints the same
bytes as the untraced one, that every binding site was replaced (the
cProfile counts, which see every call, must equal the trace counts),
and that each layer the workload is predicted to stress was called.
"""

from __future__ import annotations

import cProfile
import math
import sys
import time
import warnings
from collections import Counter

# (metric prefix, module, attribute path, timed span or count only)
SITES = [
    ("poly.Poly", "poly", "Poly.__init__", False),
    ("poly.mul", "poly", "Poly.__mul__", True),
    ("poly.divmod", "poly", "Poly.__divmod__", True),
    ("poly.gcd_primitive", "poly", "gcd_primitive", True),
    ("poly.parse", "poly", "Poly.parse", True),
    ("factor.is_irreducible", "factor", "is_irreducible", True),
    ("factor.split_squarefree", "factor", "split_squarefree", True),
    ("fields.AlgebraicNumberSpec", "fields", "AlgebraicNumberSpec.__init__", True),
    ("fields.nf_inverse", "fields", "NumberFieldElement.inverse", True),
    ("fields.nf_reduce", "fields", "NumberField.reduce", False),
    ("matrix.rank", "matrix", "rank", True),
    ("matrix.det", "matrix", "det", True),
    ("matrix.minor_gcd", "matrix", "minor_gcd", True),
    ("matrix.mul", "matrix", "Matrix.mul", True),
    ("complexes.from_json", "complexes", "ChainComplex.from_json", True),
    ("complexes.validate", "complexes", "ChainComplex.validate", True),
    ("complexes.betti", "complexes", "betti", True),
    ("complexes.dominates", "complexes", "dominates", True),
    ("complexes.specialization_order_check", "complexes", "specialization_order_check", True),
    ("deformation.build_deformation", "deformation", "build_deformation", True),
    ("deformation.mapping_torus", "deformation", "mapping_torus", True),
    ("deformation.bott_inequality_check", "deformation", "bott_inequality_check", True),
    ("bounds.zero_bounds", "bounds", "zero_bounds", True),
    ("bounds.jump_points", "bounds", "jump_points", True),
    ("cli.main", "cli", "main", True),
]

# rank is reported per target kind
RANK_KINDS = {
    "RationalFunctionField": "generic",
    "NumberField": "numberfield",
    "Rationals": "rationals",
    "PrimeField": "primefield",
}

# Layers each workload is predicted to stress: their calls must be nonzero.
PREDICTED = {
    "twist-sweep": [
        "poly.Poly", "poly.mul", "poly.divmod", "poly.parse", "factor.is_irreducible",
        "fields.AlgebraicNumberSpec", "fields.nf_inverse", "fields.nf_reduce",
        "matrix.rank.numberfield", "matrix.rank.primefield", "matrix.mul",
        "complexes.from_json", "complexes.validate", "complexes.betti",
        "complexes.dominates", "complexes.specialization_order_check",
        "deformation.build_deformation", "bounds.zero_bounds", "cli.main",
    ],
    "jump-loci": [
        "poly.Poly", "poly.mul", "poly.divmod", "poly.gcd_primitive", "poly.parse",
        "factor.split_squarefree", "matrix.rank.generic", "matrix.rank.numberfield",
        "matrix.det", "matrix.minor_gcd", "complexes.from_json", "complexes.betti",
        "deformation.mapping_torus", "bounds.jump_points", "cli.main",
    ],
    "order-sweep": [
        "poly.Poly", "poly.divmod", "complexes.dominates",
        "deformation.bott_inequality_check",
    ],
}

# Chunks of operations in the traced pass; the first one is also profiled.
TRACE_CHUNKS = {"twist-sweep": 1, "jump-loci": 3, "order-sweep": 3}


# Ratios and maxima reported after a layer's calls and self time.
DERIVED = {
    "factor.is_irreducible": [
        ("factor.is_irreducible.certified_frac", "frac"),
        ("factor.is_irreducible.repeat_frac", "frac"),
    ],
    "factor.split_squarefree": [("factor.split_squarefree.unresolved_frac", "frac")],
    "fields.AlgebraicNumberSpec": [("fields.uncertified_frac", "frac")],
    "matrix.det": [("matrix.det.max_result_bits", "bits")],
    "matrix.minor_gcd": [
        ("matrix.minor_gcd.minors_per_call", "count"),
        ("matrix.minor_gcd.early_exit_frac", "frac"),
    ],
    "bounds.jump_points": [("bounds.jump_points.confirmed_frac", "frac")],
}


def per_layer_metrics() -> list:
    """Names and units of the per-layer metrics, in report order."""
    out = [("poly.Poly.calls", "count"), ("poly.Poly.calls_per_op", "count/op")]
    for prefix, _, _, timed in SITES[1:]:
        if prefix == "matrix.rank":
            for kind in RANK_KINDS.values():
                out += [(f"matrix.rank.{kind}.calls", "count"), (f"matrix.rank.{kind}.self_s", "s")]
            out.append(("matrix.rank.entries", "count"))
            continue
        out.append((f"{prefix}.calls", "count"))
        if timed:
            out.append((f"{prefix}.self_s", "s"))
        out += [(name, unit) for name, unit in DERIVED.get(prefix, ())]
    out.append(("trace.overhead_frac", "frac"))
    return out


def _bits(value) -> int:
    coeffs = getattr(value, "coeffs", None)
    if coeffs is None:
        coeffs = (value,) if isinstance(value, int) else ()
    return max((abs(c).bit_length() for c in coeffs if isinstance(c, int)), default=0)


def _primitive_key(coeffs) -> tuple:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return tuple(c // g for c in coeffs) if g else tuple(coeffs)


class Tracer:
    """Counters and span times, filled by the wrappers.

    The wrappers' own bookkeeping calls nothing in formzeros, so it
    never shows up in the counts.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.stats = Counter()
        self.stack = []  # [span name, seconds spent in nested spans]
        self.certified = set()
        self.warnings = []

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn, label=None, before=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self.stack

        def wrapper(*args, **kwargs):
            key = label(args) if label else name
            token = before(args) if before else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after:
                after(args, result, token)
            return result

        return wrapper

    # -- layer-specific observations ----------------------------------

    def rank_label(self, args) -> str:
        return "matrix.rank." + RANK_KINDS.get(type(args[1]).__name__, "other")

    def rank_after(self, args, result, token) -> None:
        self.stats["matrix.rank.entries"] += args[0].nrows * args[0].ncols

    def det_after(self, args, result, token) -> None:
        bits = _bits(result)
        if bits > self.stats["matrix.det.max_result_bits"]:
            self.stats["matrix.det.max_result_bits"] = bits
        if self.stack and self.stack[-1][0] == "matrix.minor_gcd":
            self.stats["minor_gcd.minors"] += 1

    def minor_gcd_before(self, args):
        return self.stats["minor_gcd.minors"]

    def minor_gcd_after(self, args, result, token) -> None:
        m, r = args[0], args[1]
        total = math.comb(m.nrows, r) * math.comb(m.ncols, r)
        if self.stats["minor_gcd.minors"] - token < total:
            self.stats["minor_gcd.early_exits"] += 1

    def irreducible_before(self, args):
        key = _primitive_key(args[0].coeffs)
        if key in self.certified:
            self.stats["is_irreducible.repeats"] += 1
        return key

    def irreducible_after(self, args, result, key) -> None:
        if result is not None:
            self.stats["is_irreducible.certified"] += 1
            self.certified.add(key)

    def squarefree_after(self, args, result, token) -> None:
        irreducible, unresolved = result
        self.stats["split_squarefree.factors"] += len(irreducible) + len(unresolved)
        self.stats["split_squarefree.unresolved"] += len(unresolved)

    def spec_before(self, args):
        return len(self.warnings)

    def spec_after(self, args, result, token) -> None:
        if len(args) > 1 and args[1] is not None:
            self.stats["spec.algebraic"] += 1
            if any(
                str(w.message).startswith("irreducibility of") for w in self.warnings[token:]
            ):
                self.stats["spec.uncertified"] += 1

    def jumps_after(self, args, result, token) -> None:
        self.stats["jump_points.factors"] += len(result.factors)
        self.stats["jump_points.confirmed"] += sum(
            1 for f in result.factors if f.status == "confirmed"
        )

    def wrapper_for(self, prefix, timed, fn):
        hooks = {
            "matrix.rank": dict(label=self.rank_label, after=self.rank_after),
            "matrix.det": dict(after=self.det_after),
            "matrix.minor_gcd": dict(before=self.minor_gcd_before, after=self.minor_gcd_after),
            "factor.is_irreducible": dict(before=self.irreducible_before, after=self.irreducible_after),
            "factor.split_squarefree": dict(after=self.squarefree_after),
            "fields.AlgebraicNumberSpec": dict(before=self.spec_before, after=self.spec_after),
            "bounds.jump_points": dict(after=self.jumps_after),
        }
        if not timed:
            return self.counted(prefix, fn)
        return self.span(prefix, fn, **hooks.get(prefix, {}))

    def metrics(self, ops: int, overhead: float) -> dict:
        c, s, st = self.calls, self.self_s, self.stats

        def frac(num, den):
            return num / den if den else 0.0

        values = {
            "poly.Poly.calls_per_op": frac(c["poly.Poly"], ops),
            "factor.is_irreducible.certified_frac": frac(st["is_irreducible.certified"], c["factor.is_irreducible"]),
            "factor.is_irreducible.repeat_frac": frac(st["is_irreducible.repeats"], c["factor.is_irreducible"]),
            "factor.split_squarefree.unresolved_frac": frac(
                st["split_squarefree.unresolved"], st["split_squarefree.factors"]
            ),
            "fields.uncertified_frac": frac(st["spec.uncertified"], st["spec.algebraic"]),
            "matrix.rank.entries": st["matrix.rank.entries"],
            "matrix.det.max_result_bits": st["matrix.det.max_result_bits"],
            "matrix.minor_gcd.minors_per_call": frac(st["minor_gcd.minors"], c["matrix.minor_gcd"]),
            "matrix.minor_gcd.early_exit_frac": frac(st["minor_gcd.early_exits"], c["matrix.minor_gcd"]),
            "bounds.jump_points.confirmed_frac": frac(st["jump_points.confirmed"], st["jump_points.factors"]),
            "trace.overhead_frac": overhead,
        }
        out = {}
        for name, unit in per_layer_metrics():
            if name in values:
                out[name] = (values[name], unit)
            elif name.endswith(".calls"):
                out[name] = (c[name[: -len(".calls")]], unit)
            else:
                out[name] = (s[name[: -len(".self_s")]], unit)
        return out


def _originals(fz):
    """(prefix, timed, function) for each site, read from a live import."""
    out = []
    for prefix, modname, path, timed in SITES:
        obj = getattr(fz, modname)
        *owners, attr = path.split(".")
        for owner in owners:
            obj = getattr(obj, owner)
        raw = vars(obj)[attr] if isinstance(obj, type) else getattr(obj, attr)
        out.append((prefix, timed, raw.__func__ if isinstance(raw, classmethod) else raw))
    return out


def _formzeros_namespaces():
    for name, mod in list(sys.modules.items()):
        if name == "formzeros" or name.startswith("formzeros."):
            yield mod, vars(mod)
            for val in list(vars(mod).values()):
                if isinstance(val, type) and val.__module__ == name:
                    yield val, vars(val)


def _rebind(replace: dict) -> int:
    """Replace every binding of a key of ``replace`` (module globals,
    class attributes, classmethods) by its value; returns the count."""
    sites = 0
    for owner, namespace in _formzeros_namespaces():
        for attr, val in list(namespace.items()):
            fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
            new = replace.get(id(fn))
            if new is None:
                continue
            setattr(owner, attr, type(val)(new) if fn is not val else new)
            sites += 1
    return sites


def _bound_ids() -> set:
    """Identities of every function bound in a formzeros namespace."""
    ids = set()
    for _, namespace in _formzeros_namespaces():
        for val in namespace.values():
            fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
            ids.add(id(fn))
    return ids


def install(fz, tracer: Tracer):
    """Wrap every site at every binding; returns (originals, sites)."""
    originals = _originals(fz)
    wrappers = {id(fn): tracer.wrapper_for(prefix, timed, fn) for prefix, timed, fn in originals}
    sites = _rebind(wrappers)
    return originals, sites


class Checks:
    def __init__(self):
        self.ok = True
        self._lines = []

    def add(self, what: str, passed: bool, detail: str) -> None:
        self.ok = self.ok and passed
        self._lines.append(f"trace check {what}: {'ok' if passed else 'FAILED'} ({detail})")

    def lines(self) -> list:
        return self._lines


def _count_key(prefix: str) -> list:
    if prefix == "matrix.rank":
        return [f"matrix.rank.{kind}" for kind in RANK_KINDS.values()] + ["matrix.rank.other"]
    return [prefix]


def traced_run(wl, import_formzeros, attempt, tally_cls):
    """Untraced, profiled and traced passes over the same operations."""
    chunks = [wl.chunk(i) for i in range(TRACE_CHUNKS[wl.name])]
    ops = [op for chunk in chunks for op in chunk]
    first = len(chunks[0])
    checks = Checks()

    fz = import_formzeros()
    untraced = [attempt(fz, op) for op in ops]

    fz = import_formzeros()
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops[:first]:
        attempt(fz, op)
    profiler.disable()
    profiler.create_stats()
    profiled = {}
    for prefix, _, fn in _originals(fz):
        code = fn.__code__
        entry = profiler.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        profiled[prefix] = entry[1] if entry else 0

    fz = import_formzeros()
    tracer = Tracer()
    originals, sites = install(fz, tracer)
    left = [fn for _, _, fn in originals if id(fn) in _bound_ids()]
    checks.add(
        "bindings",
        not left,
        f"{len(originals)} entry points wrapped at {sites} binding sites, {len(left)} left unwrapped",
    )
    traced, tally, at_first = [], tally_cls(), None
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer.warnings = log
        for i, op in enumerate(ops):
            if i == first:
                at_first = Counter(tracer.calls)
            dt, res = attempt(fz, op)
            traced.append((dt, res))
            tally.add(op, res)
    if at_first is None:
        at_first = Counter(tracer.calls)

    same = sum(1 for (_, a), (_, b) in zip(untraced, traced) if a == b)
    checks.add("stdout", same == len(ops), f"{same} of {len(ops)} ops identical to the untraced pass")
    wrong = []
    for prefix, count in profiled.items():
        got = sum(at_first[k] for k in _count_key(prefix))
        if got != count:
            wrong.append(f"{prefix} traced {got} vs cProfile {count}")
    checks.add(
        "cProfile",
        not wrong,
        "; ".join(wrong) or f"call counts of {len(profiled)} entry points agree over {first} ops",
    )
    missing = [p for p in PREDICTED[wl.name] if not tracer.calls[p]]
    checks.add(
        "predicted layers",
        not missing,
        "no calls to " + ", ".join(missing) if missing else f"{len(PREDICTED[wl.name])} layers called",
    )

    busy_untraced = sum(dt for dt, _ in untraced)
    busy_traced = sum(dt for dt, _ in traced)
    checks.add("oracle", tally.failed == 0, f"{tally.attempted - tally.failed} of {tally.attempted} ops correct")
    metrics = tracer.metrics(len(ops), busy_traced / busy_untraced - 1.0)
    return metrics, tally, checks
