"""Per-module span tracer installed from outside the library.

``Tracer.install()`` wraps the public module-level functions of every
``jetform`` module, plus a few hot methods, and rebinds each wrapper under
every name the package holds for the original, so calls that went through
``from .x import y`` are caught as well.  Spans are aggregated in process
(call count, self time, inclusive time per function) because the scalar
ring is entered about 10^5 times per second of work; keeping every span
is only done on request, for the nesting tests.

Self time is a span's duration minus the time covered by the wrappers of
its children.  The wrappers' own bookkeeping (clock reads, counters, the
property hooks below) lies outside every span and is summed separately as
tracing overhead, so the self times of all spans never exceed wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("symexpr", "multiindex", "forms", "interior_euler", "varmorph",
           "lepage", "parser", "printers", "randomgen", "verify", "cli")

# (module, class, method names sharing one function, metric name)
METHODS = (
    ("symexpr", "Scalar", ("__add__", "__radd__"), "Scalar.add"),
    ("symexpr", "Scalar", ("__mul__", "__rmul__"), "Scalar.mul"),
    ("forms", "Form", ("__add__",), "Form.add"),
    ("interior_euler", "EtaDecomposition", ("recompose",), "EtaDecomposition.recompose"),
    ("varmorph", "VariationalMorphism", ("evaluate",), "VariationalMorphism.evaluate"),
)

# functions whose calls and self time are reported, per module
REPORTED = {
    "symexpr": ("Scalar.add", "Scalar.mul", "partial", "total_derivative",
                "support_coords"),
    "forms": ("Form.add", "wedge", "exterior_d", "total_derivative_form",
              "contract_omega", "d_H", "p_k"),
    "interior_euler": ("eta_decompose", "ibp_expand", "interior_euler",
                       "residual_top", "residual_lower", "split_lower"),
    "varmorph": ("from_contact_form", "to_contact_form",
                 "VariationalMorphism.evaluate", "morphism_from_evaluation",
                 "split_codegree0", "split_like", "split_canonical_codegree_s",
                 "alpha_discrepancy"),
    "lepage": ("poincare_cartan", "rossi_recurrence", "krupka_betounes_first",
               "kb_second_order", "euler_lagrange"),
    "parser": ("parse_form", "parse_lagrangian"),
    "printers": ("form_text", "form_latex", "form_json"),
    "cli": ("main",),
    "verify": ("run_identity",),
}
# reported by call count only
COUNTED = {"multiindex": ("sort_with_sign", "perm_sign", "tuple_multiplicity")}

RECOMPOSE = "interior_euler.EtaDecomposition.recompose"
PC_CLOSED = "lepage.poincare_cartan_closed"
PC = "lepage.poincare_cartan"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod in MODULES:
        for fn in REPORTED.get(mod, ()):
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
        for fn in COUNTED.get(mod, ()):
            units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.self_s"] = "s"
    units.update({
        "symexpr.total_derivative.terms_out": "count",
        "symexpr.total_derivative.atom_repeat_share": "share",
        "symexpr.partial.nonzero_share": "share",
        "forms.wedge.kept_share": "share",
        "forms.exterior_d.terms_out": "count",
        "interior_euler.ibp_expand.xi_terms": "count",
        "selfcheck.eta_recompose.self_s": "s",
        "selfcheck.pc_crosscheck.self_s": "s",
        "selfcheck.share": "share",
        "lepage.rossi_recurrence.terms_out": "count",
        "parser.chars_per_s": "1/s",
        "printers.bytes_out": "bytes",
        "trace.overhead_share": "share",
    })
    return units


class Tracer:
    """Aggregating span recorder; one per traced run."""

    def __init__(self, keep_spans: bool = False):
        self.clock = time.perf_counter
        self.stats: dict = {}      # key -> [calls, self_s, inclusive_s]
        self.counters: dict = {}   # property counters fed by the hooks
        self.overhead = 0.0
        self.on = False            # spans are recorded only while on
        self.keep_spans = keep_spans
        self.spans: list = []      # (key, start, end, parent index) if kept
        self._stack = [[0.0, None, -1]]  # frames: [child_s, key, span index]
        self._seen_pairs: set = set()
        self._undo: list = []

    # -- hooks measuring the properties later optimisations exploit ---------

    def _count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def new_pass(self):
        """Start a new pass: the repeat share counts within one pass."""
        self._seen_pairs = set()

    def _hook_total_derivative(self, args, res):
        e, i = args[0], args[1]
        seen = self._seen_pairs
        pairs = repeats = 0
        for mono in e.terms:
            for atom, _ in mono:
                pairs += 1
                if (atom, i) in seen:
                    repeats += 1
                else:
                    seen.add((atom, i))
        self._count("td.pairs", pairs)
        self._count("td.repeats", repeats)
        self._count("td.terms_out", len(res.terms))

    def _hook_partial(self, args, res):
        self._count("partial.nonzero", 1 if res.terms else 0)

    def _hook_wedge(self, args, res):
        self._count("wedge.pairs", len(args[0].terms) * len(args[1].terms))
        self._count("wedge.kept", len(res.terms))

    def _hook_exterior_d(self, args, res):
        self._count("exterior_d.terms_out", len(res.terms))

    def _hook_ibp(self, args, res):
        self._count("ibp.xi_terms", sum(len(x.terms) for x in res.xi.values()))

    def _hook_rossi(self, args, res):
        self._count("rossi.terms_out", len(res.terminal.terms))

    def _hook_parse(self, args, res):
        self._count("parser.chars", len(args[0]))

    def _hook_print(self, args, res):
        self._count("printers.bytes", len(res.encode()))

    def _hooks(self):
        return {
            "symexpr.total_derivative": self._hook_total_derivative,
            "symexpr.partial": self._hook_partial,
            "forms.wedge": self._hook_wedge,
            "forms.exterior_d": self._hook_exterior_d,
            "interior_euler.ibp_expand": self._hook_ibp,
            "lepage.rossi_recurrence": self._hook_rossi,
            "parser.parse_form": self._hook_parse,
            "parser.parse_lagrangian": self._hook_parse,
            "printers.form_text": self._hook_print,
            "printers.form_latex": self._hook_print,
            "printers.form_json": self._hook_print,
        }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key, fn, hook):
        clock = self.clock
        stack = self._stack
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            enter = clock()
            frame = [0.0, key, len(tracer.spans)]
            stack.append(frame)
            if tracer.keep_spans:
                tracer.spans.append([key, 0.0, 0.0, stack[-2][2]])
            ok = False
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
                if tracer.keep_spans:
                    tracer.spans[frame[2]][1:3] = [t0, t1]
                if key == PC_CLOSED and stack[-1][1] == PC:
                    tracer._count("pc_crosscheck.s", dur)
                if ok and hook is not None:
                    hook(args, res)
                leave = clock()
                stack[-1][0] += leave - enter
                tracer.overhead += (leave - enter) - dur
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap and rebind; ``uninstall`` restores every original binding."""
        mods = {m: importlib.import_module(f"jetform.{m}") for m in MODULES}
        hooks = self._hooks()
        wrappers = {}  # original function -> its wrapper
        for m, mod in mods.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    key = f"{m}.{name}"
                    wrappers[obj] = self._wrap(key, obj, hooks.get(key))
        for owner in list(mods.values()) + [importlib.import_module("jetform")]:
            for name, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((owner, name, obj))
                    setattr(owner, name, wrappers[obj])
        for m, cls_name, names, metric in METHODS:
            cls = getattr(mods[m], cls_name)
            fn = vars(cls)[names[0]]
            wrapped = self._wrap(f"{m}.{metric}", fn, None)
            for name in names:
                self._undo.append((cls, name, vars(cls)[name]))
                setattr(cls, name, wrapped)

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo = []

    # -- results --------------------------------------------------------------

    def module_self(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for key, (_, self_s, _) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out

    def metrics(self, passes: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per pass of the workload's case list.

        ``traced_s`` and ``untraced_s`` are the median pass times with and
        without the wrappers installed.
        """
        units = metric_units()
        stat = self.stats
        c = self.counters.get
        out = {}

        def put(name, value):
            out[name] = _metric(value, units[name])

        module_self = self.module_self()
        for mod in MODULES:
            for fn in REPORTED.get(mod, ()) + COUNTED.get(mod, ()):
                calls, self_s, _ = stat.get(f"{mod}.{fn}", (0, 0.0, 0.0))
                put(f"{mod}.{fn}.calls", calls / passes)
                if fn in REPORTED.get(mod, ()):
                    put(f"{mod}.{fn}.self_s", self_s / passes)
            put(f"{mod}.self_s", module_self[mod] / passes)

        def share(num, den):
            return num / den if den else 0.0

        put("symexpr.total_derivative.terms_out", c("td.terms_out", 0) / passes)
        put("symexpr.total_derivative.atom_repeat_share",
            share(c("td.repeats", 0), c("td.pairs", 0)))
        put("symexpr.partial.nonzero_share",
            share(c("partial.nonzero", 0), stat.get("symexpr.partial", (0,))[0]))
        put("forms.wedge.kept_share", share(c("wedge.kept", 0), c("wedge.pairs", 0)))
        put("forms.exterior_d.terms_out", c("exterior_d.terms_out", 0) / passes)
        put("interior_euler.ibp_expand.xi_terms", c("ibp.xi_terms", 0) / passes)
        recompose_s = stat.get(RECOMPOSE, (0, 0.0, 0.0))[2]
        pc_s = c("pc_crosscheck.s", 0.0)
        put("selfcheck.eta_recompose.self_s", recompose_s / passes)
        put("selfcheck.pc_crosscheck.self_s", pc_s / passes)
        put("selfcheck.share", share((recompose_s + pc_s) / passes, traced_s))
        put("lepage.rossi_recurrence.terms_out", c("rossi.terms_out", 0) / passes)
        parse_s = sum(stat.get(k, (0, 0.0, 0.0))[2]
                      for k in ("parser.parse_form", "parser.parse_lagrangian"))
        put("parser.chars_per_s", share(c("parser.chars", 0), parse_s))
        put("printers.bytes_out", c("printers.bytes", 0) / passes)
        put("trace.overhead_share", share(traced_s - untraced_s, untraced_s))
        return {name: out[name] for name in units}
