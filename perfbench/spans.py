"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each layer's public functions with timing wrappers:
the module attribute, every `from .x import name` copy held by another
whitforge module, and methods on the classes that define them.  `uninstall`
puts every original back.  Nothing under `src/` changes.

A span's self time is its duration minus the wall time of the wrapped calls
nested directly in it, where a nested call's wall time includes the
wrapper's own bookkeeping (argument bit-length scans).  So tracer overhead
is charged to no layer, and the self times of all spans plus the entry
calls' self time plus the overhead add up to the traced wall time.
"""

import functools
import inspect
import time
from fractions import Fraction

MODULES = ("exactq", "partitions", "orbits", "whitpair", "deform", "cli")

# span group -> (module, attribute path) of the wrapped callables
GROUPS = {
    "exactq.subspace": [("exactq", "Subspace.__init__"), ("exactq", "Subspace.sum"),
                        ("exactq", "Subspace.intersect"), ("exactq", "Subspace.member"),
                        ("exactq", "Subspace.contains")],
    "exactq.rref_solve": [("exactq", "rref_solve")],
    "exactq.eigen": [("exactq", "rational_eigenvalues"), ("exactq", "char_poly")],
    "exactq.skew": [("exactq", "skew_tools")],
    "exactq.inverse": [("exactq", "QMatrix.inverse"), ("exactq", "QMatrix.det")],
    "orbits.jordan_partition": [("orbits", "jordan_partition")],
    "orbits.jordan_conjugator": [("orbits", "jordan_conjugator")],
    "orbits.sl2_complete": [("orbits", "sl2_complete")],
    "orbits.is_neutral_pair": [("orbits", "is_neutral_pair")],
    "orbits.sl_class": [("orbits", "sl_class")],
    "orbits.power_class": [("orbits", "power_class")],
    "whitpair.find_Z": [("whitpair", "find_Z")],
    "whitpair.bigrading": [("whitpair", "bigrading")],
    "whitpair.critical_numbers": [("whitpair", "critical_numbers")],
    "whitpair.weight_components": [("whitpair", "weight_components")],
    "whitpair.graded_space": [("whitpair", "graded_space")],
    "whitpair.chain": [("whitpair", "chain")],
    "whitpair.model_data": [("whitpair", "model_data")],
    "deform.deform_gl": [("deform", "deform_gl")],
    "deform.compar_certificate": [("deform", "compar_certificate")],
    "deform.deform_sl": [("deform", "deform_sl")],
    "cli.parse": [("cli", "parse_matrix_spec"), ("cli", "parse_partition")],
    "cli.main": [("cli", "main")],
    # "partitions" (its public functions) and "cli.emit" (canonical_json and
    # every to_json method) are filled in by `targets`
}

# groups whose argument bit lengths feed exactq.max_bits
BITS_GROUPS = ("exactq.subspace", "exactq.rref_solve", "exactq.eigen",
               "exactq.skew", "exactq.inverse")


def _cells(attr, args):
    """Vectors x ambient dimension of the elimination a Subspace call runs;
    sum and contains delegate to the constructor and member."""
    if attr == "Subspace.__init__":
        vectors = args[2] if len(args) > 2 else ()
        return len(vectors) * args[1]
    if attr == "Subspace.intersect":
        return (args[0].dim + args[1].dim) * args[0].ambient_dim
    if attr == "Subspace.member":
        return (args[0].dim + 1) * args[0].ambient_dim
    return 0


def max_bits(obj):
    """Largest numerator or denominator bit length inside obj (QMatrix,
    Subspace, Fraction, int, or nested lists/tuples of them)."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj.bit_length()
    if isinstance(obj, (list, tuple)):
        return max((max_bits(x) for x in obj), default=0)
    entries = getattr(obj, "entries", None)           # QMatrix
    if entries is not None:
        return max_bits(entries)
    basis = getattr(obj, "basis", None)               # Subspace
    if basis is not None:
        return max_bits(basis)
    return 0


class Stat:
    __slots__ = ("calls", "self_s", "cells")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0


def _resolve(owner, path):
    """(holder, attribute name, current value) for 'f' or 'Class.method'."""
    holder = owner
    parts = path.split(".")
    for part in parts[:-1]:
        holder = getattr(holder, part)
    return holder, parts[-1], holder.__dict__[parts[-1]]


def targets(wf):
    """Every (group, holder, attribute, original) the tracer wraps, where wf
    maps module names to the imported whitforge modules."""
    out = []
    for group, entries in GROUPS.items():
        for mod, path in entries:
            holder, attr, fn = _resolve(wf[mod], path)
            out.append((group, path, holder, attr, fn))
    part_mod = wf["partitions"]
    for name, fn in sorted(vars(part_mod).items()):
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == part_mod.__name__
                and not inspect.isgeneratorfunction(fn)):
            out.append(("partitions", name, part_mod, name, fn))
    out.append(("cli.emit", "canonical_json", wf["cli"], "canonical_json",
                wf["cli"].canonical_json))
    for mod_name in MODULES:
        mod = wf[mod_name]
        for cname, cls in sorted(vars(mod).items()):
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                    and "to_json" in cls.__dict__:
                out.append(("cli.emit", f"{cname}.to_json", cls, "to_json",
                            cls.__dict__["to_json"]))
    return out


def is_wrapper(obj):
    return hasattr(obj, "_perfbench_group")


def wrapped_attributes(wf):
    """Names of whitforge module or class attributes that are currently
    tracer wrappers; empty when the program is untouched."""
    found = []
    for mod in wf.values():
        for name, val in vars(mod).items():
            if is_wrapper(val):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(val):
                found.extend(f"{mod.__name__}.{name}.{k}"
                             for k, v in vars(val).items() if is_wrapper(v))
    return sorted(set(found))


class Tracer:
    """Aggregates calls and self time per group; one instance per run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.max_bits = 0
        self.entry_self_s = 0.0
        self.entry_s = 0.0
        self.per_entry = []           # {group: self seconds} of each entry span
        self._stack = []              # per open span: [time of wrapped children]
        self._plan = None
        self._installed = False

    def stat(self, group):
        st = self.stats.get(group)
        if st is None:
            st = self.stats[group] = Stat()
        return st

    def wrap(self, group, path, fn):
        """A wrapper that records fn as a span of `group` while an entry
        span is open, and calls fn directly otherwise."""
        stack, clock = self._stack, self.clock
        st = self.stat(group)
        bits = group in BITS_GROUPS
        cells = group == "exactq.subspace"
        skip_self = path.endswith(".__init__")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t_enter = clock()
            if bits:
                b = max_bits(args[1:] if skip_self else args)
                if b > self.max_bits:
                    self.max_bits = b
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.calls += 1
                st.self_s += (t1 - t0) - frame[0]
                if cells:
                    st.cells += _cells(path, args)
                stack[-1][0] += clock() - t_enter

        wrapper._perfbench_group = group
        return wrapper

    def _plan_for(self, wf):
        """(holder, attribute, original, wrapper) for every binding to
        replace, including the `from .x import name` copies other modules
        hold; built once per tracer."""
        if self._plan is None:
            plan, wrappers = [], {}
            for group, path, holder, attr, fn in targets(wf):
                wrapper = self.wrap(group, path, fn)
                wrappers[id(fn)] = (fn, wrapper)
                plan.append((holder, attr, fn, wrapper))
            for mod in wf.values():
                for name, val in vars(mod).items():
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        plan.append((mod, name, val, hit[1]))
            self._plan = plan
        return self._plan

    def install(self, wf):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for holder, attr, fn, wrapper in self._plan_for(wf):
            setattr(holder, attr, wrapper)
        self._installed = True

    def uninstall(self):
        if self._installed:
            for holder, attr, fn, _ in reversed(self._plan):
                setattr(holder, attr, fn)
        self._installed = False

    def entry(self, fn):
        """Run fn() as the entry span of one item and return its result."""
        if self._stack:
            raise RuntimeError("entry spans do not nest")
        before = {g: st.self_s for g, st in self.stats.items()}
        frame = [0.0]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            return fn()
        finally:
            dt = self.clock() - t0
            self._stack.pop()
            self.entry_s += dt
            self.entry_self_s += dt - frame[0]
            self.per_entry.append({g: st.self_s - before[g]
                                   for g, st in self.stats.items()
                                   if st.self_s != before[g]})


def top_group(self_times):
    """The group with the largest self time in {group: seconds}."""
    return max(self_times.items(), key=lambda kv: kv[1], default=("none", 0.0))


def summed(dicts):
    out = {}
    for d in dicts:
        for g, v in d.items():
            out[g] = out.get(g, 0.0) + v
    return out
