"""Outside-in span tracer for the traced benchmark run.

Wraps the public entry points of each gl2local layer (a layer is a module)
from outside the package: every binding of a wrapped function across the
loaded ``gl2local.*`` modules is replaced, so a name imported with
``from .x import f`` is traced as well as ``x.f``.  Each span records its
duration; a span's self time is its duration minus the time of the traced
spans it encloses.  Spans are kept on one stack shared by all threads, which
is exact while one thread computes at a time; the benchmark runs ``sweep``
with ``threads=1``, where the main thread only waits on its one worker.

A function missing from the package (removed or renamed by a later change)
is listed in ``absent`` and reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (layer, metric key, qualified name in gl2local.<layer>).  Several entries
# may share one key; their spans then add up under that key.
TRACED = [
    ("cli", "run_task", "run_task"),
    ("cli", "build_grid", "build_grid"),
    ("cli", "write_outputs", "write_outputs"),
    ("residue", "get_context", "get_context"),
    ("residue", "get_ext_context", "get_ext_context"),
    ("residue", "units", "PAdicContext.units"),
    ("residue", "unit_shell_reps", "unit_shell_reps"),
    ("characters", "primitive_char", "primitive_char"),
    ("characters", "build_theta", "build_theta"),
    ("characters", "alpha_of_chi", "alpha_of_chi"),
    ("characters", "alpha_of_theta", "alpha_of_theta"),
    ("characters", "gauss_c0", "gauss_c0_principal_series"),
    ("characters", "gauss_c0", "gauss_c0_shell"),
    ("cyclotomic", "from_counts", "CycloValue.from_counts"),
    ("cyclotomic", "complex", "CycloValue.complex"),
    ("whittaker", "engine_init", "WhittakerEngine.__init__"),
    ("whittaker", "numerator_counts", "WhittakerEngine.numerator_counts"),
    ("matcoef", "engine_init", "MatCoefEngine.__init__"),
    ("matcoef", "phi_counts", "MatCoefEngine.phi_counts"),
    ("matcoef", "phi_numerator", "MatCoefEngine.phi_numerator"),
    ("matcoef", "phi_prime_value", "MatCoefEngine.phi_prime_value"),
    ("matcoef", "decompose_k_star", "decompose_k_star"),
    ("matcoef", "verify_support", "verify_support"),
    ("matcoef", "gram_dimension_estimate", "gram_dimension_estimate"),
    ("statphase", "phi_fast_numerator", "phi_fast_numerator"),
    ("statphase", "critical_pairs", "critical_pairs"),
    ("statphase", "solve_quadratic_congruence", "solve_quadratic_congruence"),
    ("quaternion", "load_algebra_fixtures", "load_algebra_fixtures"),
    ("quaternion", "build_tidy_lattice", "build_tidy_lattice"),
    ("quaternion", "norm_histogram", "norm_histogram"),
    ("quaternion", "counting_bound_report", "counting_bound_report"),
    ("quaternion", "count_lattice_points", "count_lattice_points"),
]

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))
PACKAGE = "gl2local"


class Tracer:
    """Install with ``install()``; read results with ``report()``."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.stats: dict[str, list] = {}      # key -> [calls, s, self_s]
        self.layer_of: dict[str, str] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        # counters read from arguments and return values
        self._arrays: dict[int, np.ndarray] = {}
        self.counters = {"from_counts_nonzero": 0, "from_counts_m": 0,
                         "pairs_kept": 0, "pairs_scanned": 0,
                         "points_accepted": 0}
        self._hooks = {
            "whittaker.numerator_counts": self._on_numerator_counts,
            "cyclotomic.from_counts": self._on_from_counts,
            "statphase.critical_pairs": self._on_critical_pairs,
            "quaternion.norm_histogram": self._on_norm_histogram,
        }

    # -- counters --------------------------------------------------------

    def _on_numerator_counts(self, args, kwargs, result):
        # a cache hit returns an array already seen; holding a reference
        # keeps ids from being reused by freed arrays
        self._arrays.setdefault(id(result), result)

    def _on_from_counts(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        counts = args[1] if len(args) > 1 else kwargs["counts"]
        self.counters["from_counts_nonzero"] += int(np.count_nonzero(counts))
        self.counters["from_counts_m"] += int(m)

    def _on_critical_pairs(self, args, kwargs, result):
        pairs, scanned = result
        self.counters["pairs_kept"] += len(pairs)
        self.counters["pairs_scanned"] += int(scanned)

    def _on_norm_histogram(self, args, kwargs, result):
        self.counters["points_accepted"] += sum(result.values())

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(key)
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                stats[0] += 1
                stats[2] += dt - frame[0]
                if not depth[0]:  # recursion: count the outermost span only
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))]
        for layer, key_name, qualname in self.traced:
            key = f"{layer}.{key_name}"
            self.stats.setdefault(key, [0, 0.0, 0.0])
            self.layer_of[key] = layer
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(f"{layer}.{qualname}")
                continue
            owner, _, attr = qualname.rpartition(".")
            holder = module
            for part in owner.split(".") if owner else []:
                holder = getattr(holder, part, None)
            if holder is None or attr not in vars(holder):
                self.absent.append(f"{layer}.{qualname}")
                continue
            raw = vars(holder)[attr]
            if isinstance(holder, type):
                # class attribute: one binding, kept in the class dict
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(key, raw.__func__))
                else:
                    wrapped = self._wrap(key, raw)
                setattr(holder, attr, wrapped)
                continue
            wrapped = self._wrap(key, raw)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, wrapped)

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        functions = {key: {"layer": self.layer_of[key], "calls": v[0],
                           "s": v[1], "self_s": v[2]}
                     for key, v in self.stats.items()}
        counters = dict(self.counters)
        counters["numerator_counts_distinct"] = len(self._arrays)
        return {"functions": functions, "counters": counters,
                "absent": sorted(set(self.absent))}
