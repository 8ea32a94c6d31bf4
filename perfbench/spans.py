"""Spans around partbij's public functions, recorded from outside the program.

Tracer.install wraps every public function of the layer modules and
rebinds the wrapper under each name where partbij looks the function up:
the defining module, every partbij module that imported it with
``from ... import``, and the package namespace. Series-by-series products
are spanned by wrapping TruncatedSeries.__mul__. A span records its name,
start, end and the index of its parent span; a generator gets one span
per resume, so its time is the time spent inside it. Spans stay in memory
until the caller writes them out.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("verify", "_accel", "series", "partitions", "colored", "bijections", "cli")
MUL = "series.TruncatedSeries.__mul__"

# the dedicated verifiers, summed into verify.dedicated.ms
DEDICATED = (
    "verify.verify_schmidt",
    "verify.verify_schmidt_refinement",
    "verify.verify_euler_refinement",
    "verify.verify_table",
    "verify.verify_li_yee",
    "verify.verify_color_conjugate",
    "verify.verify_opposite_schmidt",
    "verify.verify_recurrence",
    "verify.verify_functional_equation",
    "verify.verify_furtherwork",
)
MAPS = (
    "mork",
    "mork_inverse",
    "bessenrodt",
    "bessenrodt_inverse",
    "color_conjugate",
    "color_conjugate_inverse",
    "generalized_hook_map",
    "collision_search",
)


def _tag_args(args, kwargs):
    return json.dumps([list(args), kwargs], default=str, sort_keys=True)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, tag]
        self.parent = -1
        self.created = {}  # generator name -> generators created
        self.yielded = {}  # generator name -> items yielded
        self.cells = 0  # summed size of the histogram output arrays
        self._undo = []

    def _call(self, name, fn, args, kwargs, tag=None):
        rec = [name, 0.0, 0.0, self.parent, tag]
        self.parent = len(self.spans)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.parent = rec[3]

    def _wrap(self, name, fn):
        tagged = name.startswith("verify.verify_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = _tag_args(args, kwargs) if tagged else None
            return self._call(name, fn, args, kwargs, tag)

        return wrapper

    def _wrap_histogram(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._call(name, fn, args, kwargs)
            self.cells += int(out.size)
            return out

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.created[name] = self.created.get(name, 0) + 1
            return self._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name, gen):
        while True:
            try:
                item = self._call(name, next, (gen,), {})
            except StopIteration:
                return
            self.yielded[name] = self.yielded.get(name, 0) + 1
            yield item

    def install(self):
        """Wrap the layers' public functions wherever partbij binds them."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"partbij.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self._wrap_generator(name, obj)
                elif name == "_accel.partition_histogram":
                    wrapped[obj] = self._wrap_histogram(name, obj)
                else:
                    wrapped[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "partbij" and not modname.startswith("partbij."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

        series_cls = getattr(sys.modules.get("partbij.series"), "TruncatedSeries", None)
        for attr in ("__mul__", "__rmul__"):
            orig = vars(series_cls).get(attr) if series_cls else None
            if orig is not None:
                self._undo.append((series_cls, attr, orig))
                setattr(series_cls, attr, self._wrap_mul(series_cls, orig))

    def _wrap_mul(self, series_cls, orig):
        @functools.wraps(orig)
        def mul(a, b):
            if isinstance(b, series_cls):
                return self._call(MUL, orig, (a, b), {})
            return orig(a, b)

        return mul

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    def reset(self):
        self.spans = []
        self.parent = -1
        self.created = {}
        self.yielded = {}
        self.cells = 0

    def summary(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.spans)
        child = [0.0] * n
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = {}, {}, {}
        muls_under = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
            if name == MUL and parent >= 0:
                pname = self.spans[parent][0]
                muls_under[pname] = muls_under.get(pname, 0) + 1

        def ms(name):
            return total.get(name, 0.0) * 1000.0

        m = {
            "accel.histogram.calls": calls.get("_accel.partition_histogram", 0),
            "accel.histogram.ms": ms("_accel.partition_histogram"),
            "accel.histogram.cells": self.cells,
            "accel.convolve.calls": calls.get("_accel.convolve", 0),
            "accel.convolve.ms": ms("_accel.convolve"),
            "series.mul.calls": calls.get(MUL, 0),
            "series.mul.self_ms": own.get(MUL, 0.0) * 1000.0,
            "series.invert.calls": calls.get("series.invert", 0),
            "series.invert.ms": ms("series.invert"),
            "series.invert.rounds": muls_under.get("series.invert", 0),
            "series.pochhammer.calls": calls.get("series.pochhammer", 0),
            "series.pochhammer.ms": ms("series.pochhammer"),
            "series.pochhammer.factors": muls_under.get("series.pochhammer", 0),
            "series.q_binomial.ms": ms("series.q_binomial"),
            "series.first_mismatch.ms": ms("series.first_mismatch"),
            "verify.lhs.ms": ms("verify.lhs_series"),
            "verify.rhs.ms": ms("verify.rhs_series"),
            "verify.dedicated.ms": sum(ms(d) for d in DEDICATED),
            "verify.thm7.self_ms": own.get("verify.verify_color_conjugate", 0.0) * 1000.0,
            "partitions.enumerate.calls": self.created.get("partitions.enumerate_partitions", 0),
            "partitions.enumerate.yielded": self.yielded.get("partitions.enumerate_partitions", 0),
            "partitions.enumerate.ms": ms("partitions.enumerate_partitions"),
            "partitions.conjugate.calls": calls.get("partitions.conjugate", 0),
            "partitions.conjugate.ms": ms("partitions.conjugate"),
            "colored.enumerate.yielded": self.yielded.get("colored.enumerate_colored", 0),
            "colored.enumerate.ms": ms("colored.enumerate_colored"),
        }
        for name in MAPS:
            m[f"bijections.{name}.calls"] = calls.get(f"bijections.{name}", 0)
            m[f"bijections.{name}.ms"] = ms(f"bijections.{name}")
        m["cli.main.calls"] = calls.get("cli.main", 0)
        m["cli.main.ms"] = ms("cli.main")
        return m

    def check_rows(self):
        """One row per verifier call: its arguments and the time of its
        enumeration side, closed-form side and everything else."""
        rows = []
        lhs_rhs = {}
        for name, start, end, parent, _ in self.spans:
            if name in ("verify.lhs_series", "verify.rhs_series") and parent >= 0:
                side = name.split(".")[1].split("_")[0]
                key = (parent, side)
                lhs_rhs[key] = lhs_rhs.get(key, 0.0) + (end - start) * 1000.0
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            if tag is None:
                continue
            total = (end - start) * 1000.0
            lhs = lhs_rhs.get((i, "lhs"), 0.0)
            rhs = lhs_rhs.get((i, "rhs"), 0.0)
            rows.append({"check": name, "args": json.loads(tag), "ms": total,
                         "lhs_ms": lhs, "rhs_ms": rhs})
        return rows

    def dump(self, path):
        """Write the spans recorded since the last reset, with per-check rows."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "checks": self.check_rows()}, fh)
