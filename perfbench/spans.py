"""Span tracing for one benchmark child process, wired in from outside.

`install()` replaces the entry points of each kirwan layer with wrappers
that record a span per call: its name, its parent span, and its start and
end times.  Each name is replaced where callers look it up (module
attribute, class attribute, or the importing module's own binding), so no
file under src/ changes.  Spans stay in memory in flat arrays and are
folded into per-layer totals by `Tracer.summary()` when the run ends.

A span's self time is its duration minus the durations of its direct
children.  A layer's inclusive time counts only spans with no ancestor of
the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import time
from array import array

POLY_DUNDERS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__pow__", "__truediv__")
RF_DUNDERS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.kind = array("l")     # 2 * name id + 1 when nested in a same-name span
        self.parent = array("l")   # index of the enclosing span, or -1
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._depth: list = []     # open spans per name id
        # counters measured at the layer boundaries
        self.gb_inputs: list = []
        self.gb_reductions = 0
        self.gb_zero_reductions = 0
        self.cert_verify_recursion = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(args, result) runs after each call."""
        nid = self._name_id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(2 * nid + (1 if depth[nid] else 0))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """{name: (calls, inclusive seconds, self seconds)}."""
        n = len(self.kind)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            nid = k >> 1
            dur = end[i] - start[i]
            calls[nid] += 1
            own[nid] += dur - child[i]
            if not k & 1:
                incl[nid] += dur
        return {
            name: (calls[i], incl[i], own[i]) for i, name in enumerate(self.names)
        }

    def summary(self) -> dict:
        """Per-layer counts and times for this process's spans."""
        t = self.totals()

        def calls(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[0] for nm in names)

        def incl(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[1] for nm in names)

        def own(*names):
            return sum(t.get(nm, (0, 0.0, 0.0))[2] for nm in names)

        gb_runs = len(self.gb_inputs)
        poly = [f"rings.Polynomial.{d}" for d in POLY_DUNDERS]
        rf = [f"ratfield.RationalFunction.{d}" for d in RF_DUNDERS]
        linalg = ("linalg.rank", "linalg.det", "linalg.solve")
        verify_calls = calls("hyperpolygon.MembershipCertificate.verify")
        return {
            "kernel.nf_calls": calls("kernel.kp_normal_form"),
            "kernel.nf_self_s": own("kernel.kp_normal_form"),
            "kernel.spoly_self_s": own("kernel.kp_spoly"),
            "kernel.make_self_s": own("kernel.kp_make"),
            "ideals.gb_runs": gb_runs,
            "ideals.gb_distinct_ratio": (
                len(set(self.gb_inputs)) / gb_runs if gb_runs else 0.0
            ),
            "ideals.buchberger_s": incl("ideals._buchberger"),
            "ideals.buchberger_self_s": own("ideals._buchberger"),
            "ideals.gb_reductions": self.gb_reductions,
            "ideals.spair_zero_ratio": (
                self.gb_zero_reductions / self.gb_reductions if self.gb_reductions else 0.0
            ),
            "ideals.verify_runs": calls("ideals._verify_s_criterion"),
            "ideals.verify_s": incl("ideals._verify_s_criterion"),
            "ideals.intersect_s": incl("ideals.Ideal.intersect"),
            "ideals.colon_s": incl("ideals.Ideal.colon"),
            "ideals.normal_form_calls": calls("ideals.Ideal.normal_form"),
            "ideals.normal_form_s": incl("ideals.Ideal.normal_form"),
            "ideals.std_monomials_s": incl("ideals.QuotientRing.std_monomials"),
            "rings.ops": calls(*poly),
            "rings.self_s": own(*poly),
            "hyperpolygon.cert_verify_calls": verify_calls,
            "hyperpolygon.cert_recursion_ratio": (
                self.cert_verify_recursion / verify_calls if verify_calls else 0.0
            ),
            "cofactors.express_calls": calls("cofactors.express_in_ideal"),
            "ratfield.ops": calls(*rf),
            "ratfield.self_s": own(*rf),
            "linalg.calls": calls(*linalg),
            "linalg.s": incl(*linalg),
            "localization.self_s": own("localization.check"),
        }


def _gb_input_key(generators, order) -> tuple:
    # built from the stored terms, so no traced Polynomial method runs here
    return (
        tuple(tuple(g.terms) for g in generators),
        order.table.names,
        tuple(sorted(order.descriptor().items(), key=lambda kv: kv[0])),
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced kirwan entry point in the current process."""
    import kirwan
    from kirwan import _kernel, cofactors, hyperpolygon, ideals, linalg
    from kirwan.ratfield import RationalFunction
    from kirwan.rings import Polynomial

    def after_nf(args, result):
        # reductions made directly by _buchberger: S-pair reductions, then
        # tail reductions of the final basis (which never come to zero)
        stack = tracer._stack
        if stack and tracer.names[tracer.kind[stack[-1]] >> 1] == "ideals._buchberger":
            tracer.gb_reductions += 1
            if not result[2]:
                tracer.gb_zero_reductions += 1

    for attr, hook in (("kp_normal_form", after_nf), ("kp_spoly", None),
                       ("kp_make", None)):
        setattr(_kernel, attr, tracer.wrap(f"kernel.{attr}", getattr(_kernel, attr), hook))

    traced_gb = tracer.wrap("ideals._buchberger", ideals._buchberger)

    def record_gb(generators, order, budgets):
        tracer.gb_inputs.append(_gb_input_key(generators, order))
        return traced_gb(generators, order, budgets)

    ideals._buchberger = record_gb
    ideals._verify_s_criterion = tracer.wrap(
        "ideals._verify_s_criterion", ideals._verify_s_criterion
    )
    for cls, attr in ((ideals.Ideal, "intersect"), (ideals.Ideal, "colon"),
                      (ideals.Ideal, "normal_form"),
                      (ideals.QuotientRing, "std_monomials")):
        setattr(cls, attr, tracer.wrap(f"ideals.{cls.__name__}.{attr}", getattr(cls, attr)))

    express = tracer.wrap("cofactors.express_in_ideal", cofactors.express_in_ideal)
    for module in (cofactors, hyperpolygon, kirwan):
        module.express_in_ideal = express

    def count_recursion(args, result):
        if args[0].method == "recursion":
            tracer.cert_verify_recursion += 1

    cert = hyperpolygon.MembershipCertificate
    cert.verify = tracer.wrap(
        "hyperpolygon.MembershipCertificate.verify", cert.verify, count_recursion
    )

    for cls, module, names in ((Polynomial, "rings", POLY_DUNDERS),
                               (RationalFunction, "ratfield", RF_DUNDERS)):
        for attr in names:
            setattr(cls, attr, tracer.wrap(
                f"{module}.{cls.__name__}.{attr}", cls.__dict__[attr]
            ))

    for attr in ("rank", "det", "solve"):
        setattr(linalg, attr, tracer.wrap(f"linalg.{attr}", getattr(linalg, attr)))
