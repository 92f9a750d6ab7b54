"""Span tracing of loomfold from outside the package.

`Tracer.install()` imports every loomfold module, wraps the public functions
and methods of each layer module, and rebinds every name that refers to an
original, in every loaded loomfold module, so that a name brought in with
`from ... import` is wrapped too.  Each wrapper records a span (name, start,
end, parent) in flat arrays that stay in memory until `write()`.

Two kinds of callable get call counters instead of spans, because a span
per call would swamp the run: the `CycNum` operations in `exactnum`, and the
per-term helpers listed in COUNT_ONLY.  Their time falls into the self time
of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cartan", "folding", "polys", "chevalley", "realize", "presentation", "catalog", "cli")

# Called once per vector term, basis element or generator-image lookup.
COUNT_ONLY = frozenset(
    {
        "cartan.RootVec.__init__",
        "cartan.RootVec.scaled",
        "cartan.RootVec.height",
        "cartan.RootVec.is_zero",
        "cartan.Gcm.classify",
        "cartan.Gcm.pairing",
        "folding.DiagramAut.apply",
        "folding.DiagramAut.__init__",
        "polys.LPoly.__init__",
        "polys.LPoly.var_index",
        "polys.LPoly.is_zero",
        "polys.LPoly.scaled",
        "polys.LPoly.total_degree",
        "polys.SerreFamily.arity",
        "polys.SerreFamily.polynomials",
        "chevalley.FiniteAlg.bracket",
        "chevalley.FiniteAlg.pair",
        "chevalley.FiniteAlg.unit",
        "chevalley.FiniteAlg.e",
        "chevalley.FiniteAlg.f",
        "chevalley.FiniteAlg.h",
        "chevalley.FiniteAlg.weight",
        "chevalley.FiniteAlg.x_index",
        "chevalley.apply_linear",
        "realize.vec_add",
        "realize.vec_scale",
        "realize.vec_eq",
        "realize.vec_is_zero",
        "realize.GAlg.bracket",
        "realize.GAlg.pair",
        "realize.GLevelMap.apply",
        "realize.Realization.embed",
        "realize.Realization.theta_x",
        "realize.Realization.theta_h",
        "realize.Realization.theta_c",
        "realize.Realization.block_keys",
        "realize.MuHatClosed.apply",
        "presentation.serialize_elem",
        "presentation.RelationCheck.record_failure",
        "presentation.RelationReport.extend",
    }
)

# Counted calls whose distinct arguments are also recorded.
DISTINCT_ARGS = frozenset({"realize.Realization.theta_x", "realize.Realization.theta_h"})

# Counted calls whose truthy results are also tallied.
TALLY_TRUE = frozenset({"chevalley.FractionPropagator.insert"})

# CycNum method -> counter name
EXACTNUM_COUNTED = {"__mul__": "exactnum.mul", "__rmul__": "exactnum.mul", "inverse": "exactnum.inverse"}


# Inclusive-time groups read by the per-layer metrics.
GROUPS = {
    "build": {"chevalley.chevalley"},
    "assert_structure": {"chevalley.FiniteAlg.assert_structure"},
    "mu_extend": {"chevalley.mu_extend_finite"},
    "propagator": {"chevalley.FractionPropagator.insert", "chevalley.FractionPropagator.apply"},
    "realize_init": {"realize.Realization.__init__"},
    "bracket": {"realize.Realization.bracket"},
    "fixed_dims": {"realize.Realization.fixed_subalgebra_dims"},
    "muhat": {
        "realize.Realization.mu_hat",
        "realize.MuHat.__init__",
        "realize.MuHat.apply",
        "realize.MuHat.order_check",
        "realize.MuHat.bracket_check",
        "realize.MuHat.fixes",
    },
    "cartan_rel": {"presentation.Verifier.verify_cartan_relations"},
    "locality": {"presentation.Verifier.verify_locality_all", "presentation.Verifier.verify_locality"},
    "serre": {
        "presentation.Verifier.verify_serre_all",
        "presentation.Verifier.verify_serre",
        "presentation.Verifier.verify_AS",
        "presentation.Verifier.verify_P1_at_window",
    },
    "report_json": {"presentation.RelationReport.to_json", "presentation.RelationCheck.to_json"},
}


def _is_plain_callable(obj, modname: str) -> bool:
    """A function defined in `modname`, bare or behind functools.lru_cache."""
    fn = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(fn) and fn.__module__ == modname


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.true_results: Counter = Counter()
        self.distinct: dict[str, set] = {n: set() for n in DISTINCT_ARGS}
        self.relation_checks: list = []
        self.import_s = 0.0
        self._originals: dict[int, object] = {}

    # -- wrappers ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        stack, starts, ends = self._stack, self.start, self.end
        names, parents, errors = self.name_of, self.parent, self.errors
        calls, trues = self.calls, self.true_results
        tally = name in TALLY_TRUE
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally and out:
                trues[name] += 1
            return out

        return wrapper

    def _counter(self, fn, name: str):
        calls = self.calls
        seen = self.distinct.get(name)

        if seen is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(self_, *args):
                calls[name] += 1
                seen.add((id(self_),) + args)
                return fn(self_, *args)

        return wrapper

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            return self._counter(fn, name)
        return self._span(fn, name)

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        t0 = time.perf_counter()
        importlib.import_module("loomfold.cli")
        self.import_s = time.perf_counter() - t0
        import click

        from loomfold import exactnum
        from loomfold.presentation import RelationCheck

        for attr, counter in EXACTNUM_COUNTED.items():
            setattr(exactnum.CycNum, attr, self._counter(exactnum.CycNum.__dict__[attr], counter))

        for layer in LAYERS:
            mod = sys.modules["loomfold." + layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _is_plain_callable(obj, mod.__name__):
                    self._originals[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif isinstance(obj, click.Command) and obj.callback is not None:
                    obj.callback = self._span(obj.callback, f"{layer}.{name}")
            if layer == "cli":
                group = mod.main
                group.main = self._span(group.main, "cli.invoke")

        wrapped_init = RelationCheck.__init__
        checks = self.relation_checks

        def register(chk, *args, **kwargs):
            wrapped_init(chk, *args, **kwargs)
            checks.append(chk)

        RelationCheck.__init__ = register

        for modname, mod in list(sys.modules.items()):
            if modname != "loomfold" and not modname.startswith("loomfold."):
                continue
            for name, obj in list(vars(mod).items()):
                replacement = self._originals.get(id(obj))
                if replacement is not None and not inspect.isclass(obj):
                    setattr(mod, name, replacement)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, f"{layer}.{cls.__name__}.{attr}"))

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span duration and self time (duration minus child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return dur, [dur[i] - covered[i] for i in range(n)]

    def group_time(self, names: set, dur: list[float]) -> float:
        """Time inside spans of `names`, not counting a span nested in another."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for i, nid in enumerate(self.name_of):
            if nid in ids:
                p = self.parent[i]
                if p < 0 or self.name_of[p] not in ids:
                    total += dur[i]
        return total

    def summary(self) -> dict:
        dur, own = self.self_times()
        layer_self: Counter = Counter()
        name_self: Counter = Counter()
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            layer_self[name.split(".", 1)[0]] += own[i]
            name_self[name] += own[i]
        return {
            "spans": len(self.start),
            "import_s": self.import_s,
            "calls": dict(self.calls),
            "errors": {f"{n}:{e}": c for (n, e), c in self.errors.items()},
            "true_results": dict(self.true_results),
            "distinct": {n: len(s) for n, s in self.distinct.items()},
            "relation_checked": sum(c.checked for c in self.relation_checks),
            "layer_self_s": dict(layer_self),
            "name_self_s": dict(name_self),
            "groups": {key: self.group_time(names, dur) for key, names in GROUPS.items()},
        }

    def write(self, path: str, **extra) -> dict:
        """Write the summary, every span and `extra` to `path` as one JSON
        object; return the summary."""
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "summary": summary,
                    "names": self.names,
                    "spans": {
                        "name": self.name_of.tolist(),
                        "parent": self.parent.tolist(),
                        "start": self.start.tolist(),
                        "end": self.end.tolist(),
                    },
                },
                fh,
            )
        return summary
