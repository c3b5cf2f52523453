"""Spans and counts at the program's layer boundaries, for the traced run.

`Tracer.install()` wraps every public function of the walshcodes modules
the workloads reach (LAYER_MODULES) in each module namespace that binds
it, so calls between modules are seen too (`constructions.rref` as well as
`codes.rref`).  A span records its name, job, start, end, parent and self
time (its duration minus its child spans).  `FieldElement` and `CyclotomicInt` operators are only counted,
so their cost stays in the self time of the caller.  Codewords are
counted as the `codewords()` generator yields them, and the time spent
inside the generator is one span per generator.  Spans stay in memory
until `write()`.  The program is single-threaded: nothing waits, so no
waiting time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# the modules the three workloads reach (`verify apn-ab --field --fn` does not
# enter walshcodes.verify)
LAYER_MODULES = ("algebra", "functions", "codes", "constructions", "conditions", "jsonio", "cli")

ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__pow__", "__neg__")
CYCLO_MULS = ("__mul__", "__rmul__")

BUILD = {
    "constructions.first_generic",
    "constructions.second_generic",
    "constructions.make_skew_set",
    "constructions.make_trace_zero_set",
    "constructions.make_cyclotomic_set",
    "constructions.make_image_set",
}

# metric -> spans whose outermost occurrences are summed (inclusive time)
INCLUSIVE = {
    "functions.parse_s": {"functions.parse_function", "functions.ParyFunction.with_codomain"},
    "functions.walsh_s": {"functions.walsh_transform"},
    "functions.classify_s": {"functions.classify_bent"},
    "functions.diff_uniformity_s": {"functions.differential_uniformity"},
    "codes.intersect_s": {"codes.intersect"},
    "constructions.build_s": BUILD,
    "constructions.closed_dual_s": {
        "constructions.dual_first_closed_form",
        "constructions.dual_second_closed_form",
    },
    "constructions.hull_kernel_s": {"constructions.hull_first_kernel", "constructions.hull_second_kernel"},
    "constructions.restrict_s": {"constructions.restrict_to_subfield", "codes.restrict_to_prime_subfield"},
    "conditions.apn_ab_s": {"conditions.apn_ab_dual_diagnostics"},
    "jsonio.s": "jsonio.",
}
# metric -> spans whose self time is summed
SELF = {
    "codes.rref_s": {"codes.rref"},
    "codes.enum_s": {
        "codes.LinearCode.codewords",
        "codes.codewords.iter",
        "codes.weight_distribution",
        "codes.min_distance",
    },
    "cli.self_s": "cli.",
}
COUNTS = {
    "algebra.elem_ops": "algebra.FieldElement.ops",
    "algebra.trace_calls": "algebra.trace",
    "algebra.cyclo_muls": "algebra.CyclotomicInt.muls",
    "functions.walsh_points": "functions.walsh_points",
    "codes.rref_calls": "codes.rref",
    "codes.rref_cells": "codes.rref_cells",
    "codes.codewords": "codes.codewords",
}
# metric, unit; the order in which they are reported
METRICS = (
    [("algebra.field_build_s", "s")]
    + [(name, "count") for name in COUNTS]
    + [(name, "s") for name in list(INCLUSIVE) + list(SELF)]
)


def _member(name: str, group) -> bool:
    return name.startswith(group) if isinstance(group, str) else name in group


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in LAYER_MODULES] + [package]
        self.spans: list[tuple] = []  # (job, id, parent, name, start, end, self)
        self.counts: dict = defaultdict(Counter)  # job -> name -> count
        self.factors: dict = {}  # job -> host-speed factor
        self.stack: list[list] = []  # [id, child time] of the open spans
        self.job = None
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- jobs ----------------------------------------------------------------

    def start_job(self, job):
        self.job = job

    def end_job(self, job, factor: float):
        self.factors[job] = factor
        self.job = None

    # -- wrappers ------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _enter(self):
        sid = self._new_id()
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame, parent

    def _leave(self, frame, parent, name, t0, t1):
        self.stack.pop()
        d = t1 - t0
        if self.stack:
            self.stack[-1][1] += d
        self.spans.append((self.job, frame[0], parent, name, t0, t1, d - frame[1]))

    def _span(self, name, fn, count=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = counts[self.job]
            c[name] += 1
            if count:
                count(c, *args, **kwargs)
            frame, parent = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, parent, name, t0, time.perf_counter())

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[self.job][key] += 1
            return fn(*args)

        return wrapper

    def _codewords(self, fn):
        tracer = self

        def iterate(gen):
            # one span per generator, summing the time spent inside next()
            sid = tracer._new_id()
            parent = tracer.stack[-1][0] if tracer.stack else None
            job, first, total, own = tracer.job, None, 0.0, 0.0
            try:
                while True:
                    frame = [sid, 0.0]
                    tracer.stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        word = next(gen)
                    except StopIteration:
                        return
                    finally:
                        d = time.perf_counter() - t0
                        tracer.stack.pop()
                        if tracer.stack:
                            tracer.stack[-1][1] += d
                        total += d
                        own += d - frame[1]
                        first = t0 if first is None else first
                    tracer.counts[job]["codes.codewords"] += 1
                    yield word
            finally:
                if first is not None:
                    tracer.spans.append((job, sid, parent, "codes.codewords.iter", first, first + total, own))

        span = self._span("codes.LinearCode.codewords", fn)

        @functools.wraps(fn)
        def wrapper(code, guard=None):
            return iterate(span(code, guard))

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        def rref_cells(c, rows, *_args, **_kw):
            c["codes.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def walsh_points(c, f, *_args, **_kw):
            c["functions.walsh_points"] += f.field.q ** 2

        extra = {"codes.rref": rref_cells, "functions.walsh_transform": walsh_points}
        wrappers = {}
        for mod in self.modules[:-1]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._span(name, obj, extra.get(name))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        algebra, functions, codes = self.package.algebra, self.package.functions, self.package.codes
        for op in ELEMENT_OPS:
            self._set(algebra.FieldElement, op, self._counted("algebra.FieldElement.ops", vars(algebra.FieldElement)[op]))
        for op in CYCLO_MULS:
            self._set(algebra.CyclotomicInt, op, self._counted("algebra.CyclotomicInt.muls", vars(algebra.CyclotomicInt)[op]))
        with_codomain = vars(functions.ParyFunction)["with_codomain"]
        self._set(functions.ParyFunction, "with_codomain", self._span("functions.ParyFunction.with_codomain", with_codomain))
        self._set(codes.LinearCode, "codewords", self._codewords(vars(codes.LinearCode)["codewords"]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, rnd: int) -> dict:
        """Counts and host-speed corrected times over the jobs of one round."""

        def in_round(job):
            return isinstance(job, tuple) and job[0] == rnd

        totals, times = Counter(), Counter()
        for job, c in self.counts.items():
            if in_round(job):
                totals.update(c)
        by_id = {s[1]: s for s in self.spans}
        for job, sid, parent, name, t0, t1, own in self.spans:
            if not in_round(job):
                continue
            f = self.factors[job]
            for metric, group in SELF.items():
                if _member(name, group):
                    times[metric] += own * f
            for metric, group in INCLUSIVE.items():
                if _member(name, group) and not self._has_ancestor(by_id, parent, group):
                    times[metric] += (t1 - t0) * f
        out = {metric: totals[key] for metric, key in COUNTS.items()}
        out.update((metric, times[metric]) for metric in list(INCLUSIVE) + list(SELF))
        return out

    @staticmethod
    def _has_ancestor(by_id, parent, group) -> bool:
        while parent in by_id:
            span = by_id[parent]
            if _member(span[3], group):
                return True
            parent = span[2]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for job, sid, parent, name, t0, t1, own in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self": own}) + "\n")
