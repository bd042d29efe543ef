"""Per-layer tracing installed from outside the package.

`Tracer.install` rebinds every public function of `pencils` (the functions
in `pencils.__all__`, plus `cli.main`, `Pencil.__init__` and
`NineJArray.from_twice`) in every `pencils` module that holds it by name,
so calls between modules go through the wrapper too.  Each call becomes a
span ``[name, start_ns, end_ns, parent, note]`` kept in memory; a layer's
self time is its span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import pencils

# Per-layer metric prefix -> the spans it sums over.
LAYERS = {
    "transvectant": ("transvectant.transvectant",),
    "forms.exact_divide": ("forms.exact_divide",),
    "combinant.sequence": ("combinant.combinant_sequence",),
    "combinant.pencil_init": ("combinant.Pencil.__init__",),
    "syzygy.table": ("syzygy.syzygy_table",),
    "syzygy.evaluate": ("syzygy.evaluate_syzygy",),
    "syzygy.recover": ("syzygy.recover_combinant", "syzygy.recover_from_combinants"),
    "omega.omega": ("omega.omega",),
    "omega.zeta_image": ("omega.zeta_image",),
    "omega.beta_chain": ("omega.beta_chain",),
    "angular.wigner9j": ("angular.wigner9j",),
    "angular.magnetic_sum": ("angular.ninej_magnetic_sum",),
    "angular.array_build": ("angular.NineJArray.from_twice",),
    "parsing.parse": ("parsing.parse_form",),
    "parsing.format": ("parsing.format_form",),
    "serialize": (
        "serialize.form_to_dict",
        "serialize.form_from_dict",
        "serialize.table_to_dict",
        "serialize.table_from_dict",
    ),
    "cli.main": ("cli.main",),
}


def coeff_bits(form) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in form.coeffs),
        default=0,
    )


def _note_transvectant(args, kwargs, result):
    f, g, q = _bound("transvectant", args, kwargs, ("f", "g", "q"))
    products = (q + 1) * (f.order - q + 1) * (g.order - q + 1)
    return (f.order, f.coeffs, g.order, g.coeffs, q), products, coeff_bits(result)


def _note_zeta_image(args, kwargs, result):
    d, r, f = _bound("zeta_image", args, kwargs, ("d", "r", "f"))
    return (d, r, f), len(result.terms)


def _note_form(args, kwargs, result):
    return coeff_bits(result) if isinstance(result, pencils.BinaryForm) else None


_SIGNATURES = {fn.__name__: inspect.signature(fn) for fn in (pencils.transvectant, pencils.zeta_image)}


def _bound(name, args, kwargs, names):
    if not kwargs and len(args) == len(names):
        return args
    bound = _SIGNATURES[name].bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments[n] for n in names)


NOTES = {
    "transvectant.transvectant": _note_transvectant,
    "omega.zeta_image": _note_zeta_image,
    "angular.wigner9j": lambda args, kwargs, result: not result.is_zero(),
}


class Tracer:
    """Spans of the calls into `pencils`, recorded while `active` is true."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._angular = None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = NOTES.get(name, _note_form)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        cli = importlib.import_module("pencils.cli")
        self._angular = sys.modules["pencils.angular"]
        targets = {}
        for public in pencils.__all__:
            obj = getattr(pencils, public)
            if inspect.isfunction(obj):
                targets[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
        targets[cli.main] = "cli.main"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "pencils" and not modname.startswith("pencils."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        pencil_init = pencils.Pencil.__init__
        pencils.Pencil.__init__ = self._wrap("combinant.Pencil.__init__", pencil_init)
        from_twice = pencils.NineJArray.__dict__["from_twice"].__func__
        pencils.NineJArray.from_twice = classmethod(
            self._wrap("angular.NineJArray.from_twice", from_twice)
        )

    def cache_stats(self):
        """(3j hit ratio, 6j hit ratio, entries) from the kernels' `cache_info()`."""
        ratios, entries = [], 0
        for kernel in ("_wigner3j_tw", "_wigner6j_tw"):
            info = getattr(getattr(self._angular, kernel, None), "cache_info", None)
            if info is None:
                ratios.append(0.0)
                continue
            info = info()
            lookups = info.hits + info.misses
            ratios.append(info.hits / lookups if lookups else 0.0)
            entries += info.currsize
        return ratios[0], ratios[1], entries

    def layer_metrics(self, n_ops):
        """Per-op calls and self seconds for each layer, plus the counted ratios."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, total_ns = {}, {}, {}
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[k]
            total_ns[name] = total_ns.get(name, 0) + (end - start)

        out = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.calls"] = sum(calls.get(n, 0) for n in names) / n_ops
            out[f"{layer}.self_s"] = sum(self_ns.get(n, 0) for n in names) / n_ops / 1e9
        out["cli.main_s"] = total_ns.get("cli.main", 0) / n_ops / 1e9

        tv = [s[4] for s in spans if s[0] == "transvectant.transvectant" and s[4]]
        out["transvectant.coeff_products"] = sum(n[1] for n in tv) / n_ops
        out["transvectant.distinct_ratio"] = len({n[0] for n in tv}) / len(tv) if tv else 0.0
        bits = [n[2] for n in tv] + [
            s[4] for s in spans if isinstance(s[4], int) and not isinstance(s[4], bool)
        ]
        out["forms.max_coeff_bits"] = max(bits, default=0)

        zeta = [s[4] for s in spans if s[0] == "omega.zeta_image" and s[4]]
        out["omega.zeta_image.terms"] = sum(n[1] for n in zeta) / len(zeta) if zeta else 0.0
        out["omega.zeta_image.distinct_ratio"] = (
            len({n[0] for n in zeta}) / len(zeta) if zeta else 0.0
        )
        nine = [s[4] for s in spans if s[0] == "angular.wigner9j" and s[4] is not None]
        out["angular.nonzero_ratio"] = sum(nine) / len(nine) if nine else 0.0
        hit3, hit6, entries = self.cache_stats()
        out["angular.3j_cache.hit_ratio"] = hit3
        out["angular.6j_cache.hit_ratio"] = hit6
        out["angular.cache_entries"] = entries
        return out
