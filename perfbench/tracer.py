"""Per-layer timing of nccheck from outside the package.

``Tracer.install`` wraps each function named in ``PER_LAYER`` and rebinds the
wrapper under every name that refers to the original in any ``nccheck``
module, so calls made through ``from .algebra import commutes_with_all`` in morita,
triple, product and tests_support pass through it too.  Timings stay in memory
until ``stats`` is read at the end of a round.

A function's self time is its inclusive time minus the inclusive time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time


def _rows(args, kwargs):
    vecs = args[0] if args else kwargs["vecs"]
    return len(vecs)


# Reported per-layer metrics: (module, function, field, unit).  Metric names
# drop the leading underscore of ``_kernels``.
PER_LAYER = [
    ("_kernels", "orthonormalize_rows", "calls", "count"),
    ("_kernels", "orthonormalize_rows", "self_s", "s"),
    ("_kernels", "orthonormalize_rows", "rows_in", "rows"),
    ("_kernels", "orthonormalize_rows", "rows_kept", "rows"),
    ("_kernels", "residual_norms", "calls", "count"),
    ("_kernels", "residual_norms", "self_s", "s"),
    ("_kernels", "residual_norms", "rows_in", "rows"),
    ("numlin", "span", "calls", "count"),
    ("numlin", "span", "self_s", "s"),
    ("algebra", "generate_star_algebra", "calls", "count"),
    ("algebra", "generate_star_algebra", "self_s", "s"),
    ("algebra", "generate_star_algebra", "dim_out", "dim"),
    ("algebra", "commutant", "calls", "count"),
    ("algebra", "commutant", "self_s", "s"),
    ("algebra", "commutant_dimension", "calls", "count"),
    ("algebra", "commutant_dimension", "self_s", "s"),
    ("algebra", "commutes_with_all", "calls", "count"),
    ("algebra", "commutes_with_all", "self_s", "s"),
    ("triple", "one_forms", "calls", "count"),
    ("triple", "one_forms", "self_s", "s"),
    ("triple", "check_order_two", "self_s", "s"),
    ("morita", "morita_test", "calls", "count"),
    ("morita", "morita_test", "incl_s", "s"),
    ("product", "product_triple", "calls", "count"),
    ("product", "graded_algebra", "calls", "count"),
    ("product", "graded_algebra", "self_s", "s"),
    ("product", "verify_gct", "incl_s", "s"),
    ("torus", "_order_condition", "calls", "count"),
    ("torus", "_order_condition", "self_s", "s"),
    ("torus", "operator_identity", "calls", "count"),
    ("torus", "operator_identity", "self_s", "s"),
    ("torus", "op_matrix", "self_s", "s"),
    ("serialize", "triple_from_document", "self_s", "s"),
]


# Sizes counted besides calls and times: (module, function) -> a function of
# (args, kwargs, result) giving the counts of one call.
COUNTS = {
    ("_kernels", "orthonormalize_rows"): lambda a, k, out: {
        "rows_in": _rows(a, k),
        "rows_kept": out.shape[0],
    },
    ("_kernels", "residual_norms"): lambda a, k, out: {"rows_in": _rows(a, k)},
    ("algebra", "generate_star_algebra"): lambda a, k, out: {"dim_out": out.dim},
}


def metric_name(module, function, field):
    return f"{module.lstrip('_')}.{function}.{field}"


def _load_all_modules():
    pkg = importlib.import_module("nccheck")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"nccheck.{info.name}")
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "nccheck"]


class Tracer:
    def __init__(self):
        self._stats = {}
        self._stack = []  # inclusive time of wrapped callees, one slot per active call

    def install(self):
        """Import every nccheck module, wrap every traced function and rebind it."""
        modules = _load_all_modules()
        for mod, fn in dict.fromkeys((mod, fn) for mod, fn, _, _ in PER_LAYER):
            orig = getattr(sys.modules[f"nccheck.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig, COUNTS.get((mod, fn)))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    def _wrap(self, key, fn, count):
        stats = self._stats.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats["calls"] += 1
                stats["incl_s"] += elapsed
                stats["self_s"] += elapsed - inner
            if count is not None:
                for field, value in count(args, kwargs, out).items():
                    stats[field] = stats.get(field, 0) + value
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self):
        """Copy of the per-function totals, keyed 'module.function'."""
        return {key: dict(val) for key, val in self._stats.items()}
