"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``staralg`` module and
the class attributes of ``Poly``, ``USeries`` and ``WeylOp`` (dunders
included), replacing every reference where callers look the name up: the
defining module, every module that imported the name, and the class.  Each
wrapped call is a span in a *group* (``poly.mul``, ``deform.star``, ...);
nothing is added to the program's source.

Per group the tracer keeps:

* ``calls``: outermost calls, i.e. calls with no enclosing span of the same
  group (``d_multi`` calling ``d_z`` is one ``poly.deriv`` call);
* ``self_s``: span time minus the time covered by child spans, summed over
  every span of the group, so it is the time spent in the group's own code;
* ``incl_s``: inclusive time of the outermost calls;
* counters read from the arguments and result of outermost calls.

Spans (group, start, end, parent span) are also kept in memory, the first
SPAN_CAP of them, and written out with the run's raw results.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# module -> {public function -> group}
FUNCTIONS = {
    "deform": {"cross_laplacian": "deform.phi", "phi": "deform.phi",
               "star": "deform.star", "star_pow": "deform.star_pow",
               "star_via_subst_xi": "deform.star_subst", "star_via_subst_z": "deform.star_subst",
               "star_monomial": "deform.star_monomial", "star_ev0": "deform.star_ev0",
               "star_taylor": "deform.star_taylor"},
    "weyl": {"right_symbol": "weyl.symbol", "from_right_symbol": "weyl.symbol",
             "left_symbol": "weyl.symbol", "from_left_symbol": "weyl.symbol",
             "interchange_check": "weyl.check"},
    "laguerre": {**{name: "laguerre.build" for name in (
                     "laguerre1", "laguerre", "laguerre_star", "laguerre_star_zside",
                     "laguerre_from_star_at_one", "laguerre_genfun")},
                 "integrate_weight": "laguerre.integrate",
                 "integrate_weight_xi": "laguerre.integrate",
                 **{name: "laguerre.check" for name in (
                     "generating_check", "identity_dk_check", "recurrence_check", "ode_check",
                     "star_exp_check", "even_identity_check", "even_identity_report",
                     "orthogonality_check", "xi_orthogonality_check")}},
    "linalg": {"solve": "linalg.solve"},
    "mathieu": {"in_image_ev0": "mathieu.image_ev0", "in_image_linear": "mathieu.image_linear",
                "image_linear_witness": "mathieu.image_linear",
                "in_laguerre_span": "mathieu.laguerre_span",
                "power_experiment": "mathieu.power_experiment",
                "oracle_equivalence_scan": "mathieu.check", "basis_power_scan": "mathieu.check"},
    "syntax": {"parse_poly": "syntax.parse", "parse_weyl": "syntax.parse",
               "parse_expr": "syntax.parse", "format_poly": "syntax.format"},
    "cli": {"main": "cli.main"},
}

# (module, class) -> {attribute -> group}.  Cheap predicates (is_zero, ...)
# stay unwrapped: their cost is their caller's.
METHODS = {
    ("poly", "Poly"): {"__init__": "poly.new", "__eq__": "poly.eq",
                       "__add__": "poly.add", "__sub__": "poly.add", "__neg__": "poly.add",
                       "__mul__": "poly.mul", "__rmul__": "poly.mul",
                       "__truediv__": "poly.mul", "__pow__": "poly.mul",
                       "d_z": "poly.deriv", "d_xi": "poly.deriv", "d_multi": "poly.deriv",
                       "degree": "poly.other", "sorted_terms": "poly.other",
                       "homogeneous_part": "poly.other", "evaluate": "poly.other",
                       "divide_xi_monomial": "poly.other", "divide_z_monomial": "poly.other"},
    ("series", "USeries"): {"__init__": "series.new", "__add__": "series.add",
                            "__mul__": "series.mul", "exp": "series.exp",
                            "scale": "series.scale", "scale_poly": "series.scale"},
    ("weyl", "WeylOp"): {"__init__": "weyl.new", "__add__": "weyl.add", "__sub__": "weyl.add",
                         "__neg__": "weyl.add", "scale": "weyl.add",
                         "compose": "weyl.compose", "compose_pow": "weyl.compose",
                         "apply": "weyl.apply"},
}


def _terms_out(args, result) -> tuple:
    return (len(result.terms),)


def _star_terms(args, result) -> tuple:
    return (len(args[1].terms) + len(args[2].terms), len(result.terms))


def _solve_size(args, result) -> tuple:
    rows = args[0]
    return (len(rows), args[2], sum(len(r) for r in rows), int(result is None))


def _format_bytes(args, result) -> tuple:
    return (len(result.encode()),)


# group -> (counter names, reader of the outermost call's arguments and result)
COUNTERS = {
    "poly.mul": (("terms_out",), _terms_out),
    "deform.star": (("terms_in", "terms_out"), _star_terms),
    "linalg.solve": (("rows", "cols", "nnz", "inconsistent"), _solve_size),
    "syntax.format": (("bytes",), _format_bytes),
}


SPAN_CAP = 20000   # spans kept in full; aggregates cover every span


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.depth: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.span_group = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.spans_seen = 0
        # one frame per open span: [child time, span index or -1]
        self._stack: list[list] = [[0.0, -1]]

    def _group_id(self, name: str) -> int:
        if name not in self.groups:
            self.groups.append(name)
            for column in (self.calls, self.depth):
                column.append(0)
            for column in (self.self_s, self.incl_s):
                column.append(0.0)
        return self.groups.index(name)

    def _wrap(self, fn, group: str):
        g = self._group_id(group)
        keys, reader = COUNTERS.get(group, ((), None))
        totals = self.counters.setdefault(group, dict.fromkeys(keys, 0))
        stack, depth, calls = self._stack, self.depth, self.calls
        self_s, incl_s = self.self_s, self.incl_s
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, tracer._open_span(g, parent[1])]
            stack.append(frame)
            depth[g] += 1
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent[0] += dur
                self_s[g] += dur - frame[0]
                depth[g] -= 1
                if frame[1] >= 0:
                    tracer.span_start[frame[1]] = start
                    tracer.span_end[frame[1]] = start + dur
                if not depth[g]:
                    calls[g] += 1
                    incl_s[g] += dur
                    if reader is not None and returned:
                        for key, value in zip(keys, reader(args, result)):
                            totals[key] += value

        return wrapper

    def _open_span(self, g: int, parent: int) -> int:
        self.spans_seen += 1
        if len(self.span_group) >= SPAN_CAP:
            return -1
        self.span_group.append(g)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        return len(self.span_group) - 1

    def install(self) -> None:
        """Wrap every listed name in the imported ``staralg`` modules."""
        package = [m for name, m in sys.modules.items()
                   if name == "staralg" or name.startswith("staralg.")]
        for mod_name, names in FUNCTIONS.items():
            module = importlib.import_module(f"staralg.{mod_name}")
            for name, group in names.items():
                original = getattr(module, name)
                wrapper = self._wrap(original, group)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(importlib.import_module(f"staralg.{mod_name}"), cls_name)
            for name, group in names.items():
                setattr(cls, name, self._wrap(vars(cls)[name], group))

    def layer(self, group: str) -> dict:
        g = self.groups.index(group)
        return {"calls": self.calls[g], "self_s": self.self_s[g], "incl_s": self.incl_s[g],
                **self.counters[group]}

    def module_self_s(self, module: str) -> float:
        return sum(s for name, s in zip(self.groups, self.self_s)
                   if name.split(".")[0] == module)

    def spans(self) -> list[list]:
        """Recorded spans as [group, start, end, parent index or -1]."""
        return [[self.groups[g], s, e, p] for g, s, e, p in
                zip(self.span_group, self.span_start, self.span_end, self.span_parent)]
