"""Outside-in tracing of jetfibers: no file of the package changes.

Each traced function is replaced by a wrapper in every namespace that binds
it (the defining module and every module that imported the name), because a
caller looks the name up in its own module.  A method is replaced on its
class.  Spans nest through an explicit stack, so a span's self time is its
duration minus the time covered by the spans it caused.  The hottest kernel
primitives get count-only wrappers without a span, installed in a separate
run (install(counts_only=True)): tens of millions of wrapper calls would
otherwise add to the time of the spans they run in.

    tracer = Tracer()
    tracer.install()
    try:
        ...  # run commands
    finally:
        tracer.restore()
    counters = tracer.metrics()
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import jetfibers.an as an
import jetfibers.cli as cli
import jetfibers.d4 as d4
import jetfibers.groebner as groebner
import jetfibers.jets as jets
import jetfibers.kernel as kernel
import jetfibers.poly as poly

BUCHBERGER = "groebner.buchberger"
NORMAL_FORM = "kernel.normal_form"

# (owner, attribute, span name): owner is where the function is defined.
SPANS = (
    (cli, "main", "cli.main"),
    (an, "verify_decomposition", "an.verify_decomposition"),
    (d4, "d4_ideals", "d4.d4_ideals"),
    (d4, "witness_checks", "d4.witness_checks"),
    (d4, "verify_coordinate_lemma", "d4.verify_coordinate_lemma"),
    (d4, "verify_component_ideals", "d4.verify_component_ideals"),
    (d4, "d4_maximal_intersections", "d4.d4_maximal_intersections"),
    (jets, "jet_coeffs", "jets.jet_coeffs"),
    (jets, "expand_ambient", "jets.expand_ambient"),
    (poly, "substitute_series", "jets.substitute_series"),
    (poly, "format_polynomial", "poly.format_polynomial"),
    (groebner, "buchberger", BUCHBERGER),
    (groebner, "member", "groebner.member"),
    (groebner, "radical_member", "groebner.radical_member"),
    (groebner, "saturate", "groebner.saturate"),
    (groebner, "linear_presolve", "groebner.linear_presolve"),
    (groebner, "ideal_intersect_elim", "groebner.ideal_intersect_elim"),
    (groebner, "krull_dim", "groebner.krull_dim"),
    (groebner.GroebnerBasis, "reduce", "groebner.GroebnerBasis.reduce"),
    (kernel.impl, "normal_form", NORMAL_FORM),
    (kernel.impl, "mul_terms", "kernel.mul_terms"),
)

# Called tens of millions of times: counted, never timed.
COUNTED = (
    (kernel.impl, "mono_cmp", "kernel.mono_cmp"),
    (kernel.impl, "mono_deg", "kernel.mono_deg"),
    (kernel.impl, "mono_div", "kernel.mono_div"),
)

_BUCHBERGER_SIGNATURE = inspect.signature(groebner.buchberger)
# The lru_cache object itself: while tracing, its names are bound to a wrapper.
_JET_COEFFS = jets.jet_coeffs


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, list[int]] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._buchberger_inputs: set = set()
        self.buchberger_repeats = 0
        self.spairs = 0
        self.basis_size_max = 0
        self.spoly_normal_forms = 0
        self.spoly_zero = 0
        self.member_normal_forms = 0
        self._cache_start = None

    # -- installation ------------------------------------------------------

    def install(self, counts_only: bool = False) -> None:
        """Wrap the SPANS functions, or with counts_only the COUNTED ones."""
        if counts_only:
            for owner, attr, name in COUNTED:
                self._wrap(owner, attr, self._counter(name, getattr(owner, attr)))
            return
        after = {BUCHBERGER: self._after_buchberger, NORMAL_FORM: self._after_normal_form}
        for owner, attr, name in SPANS:
            self._wrap(owner, attr, self._span(name, getattr(owner, attr), after.get(name)))
        self._cache_start = _JET_COEFFS.cache_info()

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (module, key)
                for module in _package_modules()
                for key, value in vars(module).items()
                if value is original
            ]
        for target, key in bindings:
            self._restore.append((target, key, original))
            setattr(target, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entry = [name, 0.0]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - entry[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _after_buchberger(self, args, kwargs, basis) -> None:
        bound = _BUCHBERGER_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (bound.arguments["ideal"].generators, bound.arguments["order"])
        if key in self._buchberger_inputs:
            self.buchberger_repeats += 1
        self._buchberger_inputs.add(key)
        self.spairs += basis.spairs_processed
        self.basis_size_max = max(self.basis_size_max, len(basis))

    def _after_normal_form(self, args, kwargs, tail) -> None:
        if any(entry[0] == BUCHBERGER for entry in self._stack):
            self.spoly_normal_forms += 1
            self.spoly_zero += not tail
        else:
            self.member_normal_forms += 1

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every installed counter and timing, keyed by per-layer metric name."""
        out: dict[str, float] = {f"{name}.calls": cell[0] for name, cell in self.counts.items()}
        if self._cache_start is None:  # counts only
            return out
        for name in dict.fromkeys(name for _, _, name in SPANS):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls[BUCHBERGER]
        out[f"{BUCHBERGER}.repeat_share"] = self.buchberger_repeats / calls if calls else 0.0
        out["groebner.spairs"] = self.spairs
        out["groebner.basis_size.max"] = self.basis_size_max
        out[f"{NORMAL_FORM}.spoly.calls"] = self.spoly_normal_forms
        out[f"{NORMAL_FORM}.spoly.zero_share"] = (
            self.spoly_zero / self.spoly_normal_forms if self.spoly_normal_forms else 0.0
        )
        out[f"{NORMAL_FORM}.member.calls"] = self.member_normal_forms
        info = _JET_COEFFS.cache_info()
        out["jets.jet_coeffs.hits"] = info.hits - self._cache_start.hits
        out["jets.jet_coeffs.misses"] = info.misses - self._cache_start.misses
        return out


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "jetfibers" or name.startswith("jetfibers."))
    ]
