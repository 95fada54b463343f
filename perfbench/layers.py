"""Per-layer tracing from outside hopfkit.

``Tracer.install()`` replaces chosen hopfkit functions and methods by
wrappers and ``uninstall()`` puts the originals back.  Three kinds of
wrapper keep the cost in proportion to how hot a function is:

* spans (name, parent, start, end) for the layer entry points, kept in
  memory; self time is computed afterwards from the intervals;
* timed leaves for hot functions that call no span
  (``AlgebraPresentation.product``, the ``SparseTensor3`` index builds):
  one self-time total and one count, the time charged to the enclosing
  span as covered by a child; a leaf inside a leaf (an index build
  inside ``product``) is taken out of the outer leaf's total;
* bare call counters for field ``mul`` and ``inv``.

Every binding of a wrapped function in any hopfkit module, class or
module-level container is patched, and install fails if one is left
over.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("fields", "gfpoly", "linalg", "tensors", "algebra", "hopf", "catalog",
           "qt", "splitting", "report", "cli")

# metric name -> (module, qualified name); several functions may share a name
SPANS = [
    ("gfpoly.roots", "gfpoly", "roots"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("algebra.verify_algebra", "algebra", "verify_algebra"),
    ("algebra.characters", "algebra", "characters"),
    ("algebra.center", "algebra", "center"),
    ("hopf.verify_hopf", "hopf", "verify_hopf"),
    ("hopf.solve_antipode", "hopf", "solve_antipode"),
    ("hopf.verify_morphism", "hopf", "verify_morphism"),
    ("hopf.normal_coideal", "hopf", "is_normal_left_coideal_subalgebra"),
    ("hopf.quotient", "hopf", "quotient_by_coideal"),
    ("hopf.coinvariants", "hopf", "coinvariants"),
    ("hopf.grouplikes", "hopf", "grouplikes"),
    ("catalog.build", "catalog", "build_catalog"),
    ("qt.verify_rmatrix", "qt", "verify_rmatrix"),
    ("qt.phi_maps", "qt", "phi_maps"),
    ("qt.lr_maps", "qt", "lr_maps"),
    ("qt.inverse", "qt", "TensorSquareElement.inverse"),
    ("qt.drinfeld_double", "qt", "drinfeld_double"),
    ("qt.verify_twist", "qt", "verify_twist"),
    ("qt.apply_twist", "qt", "apply_twist"),
    ("splitting.double_splitting", "splitting", "double_splitting"),
    ("splitting.build_certificate", "splitting", "build_certificate"),
    ("splitting.theorem_twist", "splitting", "theorem_twist"),
    ("splitting.comparison_map", "splitting", "comparison_map"),
    ("splitting.obstruction_check", "splitting", "obstruction_check"),
    ("splitting.verify_certificate", "splitting", "verify_certificate"),
    ("report.encode", "report", "certificate_to_json"),
    ("report.encode", "report", "hopf_to_json"),
    ("report.decode", "report", "certificate_from_json"),
    ("report.decode", "report", "hopf_from_json"),
    ("report.hash", "report", "structure_hash"),
    ("cli.parse", "cli", "parse_jobspec"),
    # the self time of main is the CLI's own work: argparse, file I/O, report dump
    ("cli.self", "cli", "main"),
]

LEAVES = [
    ("algebra.product", "algebra", "AlgebraPresentation.product", None),
    ("tensors.index", "tensors", "SparseTensor3.pair_index", "_pair_index"),
    ("tensors.index", "tensors", "SparseTensor3.first_index", "_first_index"),
    ("tensors.index", "tensors", "SparseTensor3.third_index", "_third_index"),
]

COUNTERS = [
    (f"fields.{kind}.{op}.calls", "fields", f"{cls}.{op}")
    for kind, cls in (("gfp", "PrimeField"), ("rationals", "Rationals"),
                      ("cyclotomic", "CyclotomicField"))
    for op in ("mul", "inv")
]

ORIGINAL = "__perfbench_original__"


class UnpatchedAlias(RuntimeError):
    pass


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]: time
    covered by overlapping children counts once."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of its child
    spans' intervals minus the time its timed leaves took.

    ``spans`` holds records [name, parent index or -1, start, end,
    leaf seconds, ...]."""
    children = defaultdict(list)
    for rec in spans:
        if rec[1] >= 0:
            children[rec[1]].append((rec[2], rec[3]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[2], rec[3]
        out.append(end - start - covered_length(children.get(i, ()), start, end) - rec[4])
    return out


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def hopfkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopfkit" or name.startswith("hopfkit."))]


def _namespaces():
    """Every dict through which hopfkit code can reach a function: module
    globals, class dicts and module-level dict containers."""
    seen = set()
    for mod in hopfkit_modules():
        yield vars(mod), mod.__name__, None
        for value in list(vars(mod).values()):
            if isinstance(value, type) and (value.__module__ or "").startswith("hopfkit"):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield value.__dict__, mod.__name__, value
            elif isinstance(value, dict) and id(value) not in seen:
                seen.add(id(value))
                yield value, mod.__name__, None


def _resolve(module, qualname):
    obj = sys.modules[f"hopfkit.{module}"]
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def find_bindings(fn):
    """(namespace, key, owner class) for every binding of ``fn``."""
    return [(ns, key, cls) for ns, _modname, cls in _namespaces()
            for key, value in list(ns.items()) if value is fn]


def find_unpatched(originals):
    """Names of places that still hold an original function, including
    sequences at module level, which cannot be patched."""
    left = []
    for ns, modname, cls in _namespaces():
        for key, value in list(ns.items()):
            items = value if isinstance(value, (list, tuple, set, frozenset)) else (value,)
            if any(v is o for v in items for o in originals):
                where = f"{modname}.{cls.__name__}" if cls is not None else modname
                left.append(f"{where}.{key}")
    return left


def find_wrappers():
    """Names of bindings that still hold a tracer wrapper."""
    left = []
    for ns, modname, _cls in _namespaces():
        for key, value in list(ns.items()):
            if callable(value) and hasattr(value, ORIGINAL):
                left.append(f"{modname}.{key}")
    return left


def assert_clean():
    """Raise if any tracer wrapper is still installed."""
    left = find_wrappers()
    if left:
        raise RuntimeError(f"tracer wrappers still installed: {left}")


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.spans = []   # [name, parent, start, end, leaf_s, cells]
        self.stack = []
        self.leaf_stack = []
        self.leaf_s = defaultdict(float)
        self.leaf_calls = defaultdict(int)
        self.counters = {}
        self.verify_hopf_repeats = 0
        self._verified = {}
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        measure = {"linalg.rref": self._rref_cells,
                   "hopf.verify_hopf": self._note_verify_hopf}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0,
                   measure(*args) if measure else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    @staticmethod
    def _rref_cells(matrix, *_):
        # a cached RREF does no elimination
        return 0 if matrix._rref is not None else matrix.nrows * matrix.ncols

    def _note_verify_hopf(self, H, *_):
        if id(H) in self._verified:
            self.verify_hopf_repeats += 1
        self._verified[id(H)] = H  # holding H keeps its id from being reused
        return 0

    def _leaf(self, name, fn, cache_attr):
        spans, stack, leaves = self.spans, self.stack, self.leaf_stack
        leaf_s, leaf_calls = self.leaf_s, self.leaf_calls

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if cache_attr is not None and getattr(obj, cache_attr) is not None:
                return fn(obj, *args, **kwargs)
            nested = [0.0]  # seconds of leaves called inside this one
            leaves.append(nested)
            t0 = perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                leaves.pop()
                leaf_s[name] += dt - nested[0]
                leaf_calls[name] += 1
                if leaves:
                    leaves[-1][0] += dt
                elif stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    def _counter(self, name, fn):
        n = 0

        @functools.wraps(fn)
        def wrapper(*args):
            nonlocal n
            n += 1
            return fn(*args)

        def count():
            return n

        self.counters[name] = count
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self):
        assert_clean()
        originals = [self._patch(m, q, lambda f: self._span(n, f)) for n, m, q in SPANS]
        originals += [self._patch(m, q, lambda f: self._leaf(n, f, c)) for n, m, q, c in LEAVES]
        originals += [self._patch(m, q, lambda f: self._counter(n, f)) for n, m, q in COUNTERS]
        left = find_unpatched(originals)
        if left:
            self.uninstall()
            raise UnpatchedAlias(f"hopfkit bindings left unwrapped: {left}")
        return self

    def _patch(self, module, qualname, make_wrapper):
        """Bind a wrapper of hopfkit.<module>.<qualname> wherever the
        original is bound; returns the original."""
        fn = _resolve(module, qualname)
        wrapper = make_wrapper(fn)
        setattr(wrapper, ORIGINAL, fn)
        for ns, key, cls in find_bindings(fn):
            if cls is not None:
                setattr(cls, key, wrapper)
            else:
                ns[key] = wrapper
            self._patches.append((ns, key, cls, fn))
        return fn

    def uninstall(self):
        for ns, key, cls, fn in reversed(self._patches):
            if cls is not None:
                setattr(cls, key, fn)
            else:
                ns[key] = fn
        self._patches.clear()
        assert_clean()

    def begin_invocation(self):
        self._verified.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """Aggregates over all recorded spans, leaves and counters."""
        selfs = self_times(self.spans)
        t = defaultdict(float)
        for rec, s in zip(self.spans, selfs):
            t[rec[0] + "_s"] += s
            t[rec[0] + ".calls"] += 1
        rref = [rec[5] for rec in self.spans if rec[0] == "linalg.rref"]
        t["linalg.rref.cells"] = sum(rref)
        t["linalg.rref.max_cells"] = max(rref, default=0)
        t["hopf.verify_hopf.repeats"] = self.verify_hopf_repeats
        t["qt.inverse.solves"] = self._inverses_that_solved()
        for name, s in self.leaf_s.items():
            t[name + "_s"] += s
        for name, n in self.leaf_calls.items():
            t[name + ".calls"] += n
        for name, count in self.counters.items():
            t[name] = count()
        return t

    def module_self_s(self):
        """Self seconds per hopfkit module; leaves count for their own module."""
        out = dict.fromkeys(MODULES, 0.0)
        for rec, s in zip(self.spans, self_times(self.spans)):
            out[rec[0].split(".")[0]] += s
        for name, s in self.leaf_s.items():
            out[name.split(".")[0]] += s
        return out

    def _inverses_that_solved(self):
        solved = set()
        for rec in self.spans:
            if rec[0] != "linalg.rref" or not rec[5]:
                continue
            parent = rec[1]
            while parent >= 0 and self.spans[parent][0] != "qt.inverse":
                parent = self.spans[parent][1]
            if parent >= 0:
                solved.add(parent)
        return len(solved)
