"""Span tracing around the public functions of the markovspectra modules.

The package's modules import each other's functions by value
(``from .perron import perron``), so wrapping a function where it is
defined would miss most calls.  ``Tracer.install`` therefore rebinds every
name, in every ``markovspectra`` module and in the package namespace, that
refers to a wrapped function; ``uninstall`` puts the originals back.
Submodules are reached through ``sys.modules`` because the package
attribute ``markovspectra.perron`` is the function, not the module.

Spans (name, start, end, parent span, job id) are kept in memory and only
summarised or written out after the traced jobs have finished.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "modelio", "shiftspace", "perron", "thermo", "spectrum", "rigidity", "sim")
# Methods traced besides module-level functions.
METHODS = {"spectrum": {"BetaFunction": ("triple", "beta", "alpha", "alpha_slope")}}


def _perron_hook(tracer, args, result):
    A = args["A"]
    M = A.entries if hasattr(A, "entries") else np.asarray(A, dtype=float)
    tracer.perron_iterations += result.iterations
    tracer.perron_closed_form += result.iterations == 0
    digest = hashlib.blake2b(repr(M.shape).encode() + M.tobytes(), digest_size=16).digest()
    tracer.perron_inputs.add(digest)


def _words_hook(tracer, args, result):
    tracer.words += len(result)


def _audit_hook(tracer, args, result):
    """Cylinders audited: words of length m+1 (m = 1..depth) on the order-2
    form, i.e. original words of length m+1 + order-2 for order >= 2."""
    f = args["f"]
    base = f.base.entries.astype(object)
    extra = max(f.order, 2) - 2
    tracer.cylinders += sum(
        int(np.linalg.matrix_power(base, m + extra).sum()) for m in range(1, args["depth"] + 1)
    )


def _steps_hook(tracer, args, result):
    """Sampled steps: n per path, times trials, times tilts."""
    tracer.steps += args["n"] * args.get("trials", 1) * len(args.get("q_list", [1.0]))


HOOKS = {
    "perron.perron": _perron_hook,
    "shiftspace.admissible_words": _words_hook,
    "thermo.gibbs_constant_audit": _audit_hook,
    "sim.sample_path": _steps_hook,
    "sim.empirical_local_entropy": _steps_hook,
    "sim.empirical_spectrum_histogram": _steps_hook,
}


class Tracer:
    """Records a span for every call into a traced function while installed."""

    def __init__(self):
        self.names: list[str] = []
        # one entry per span; typed arrays keep a million spans in ~30 MB
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.current_job = -1
        self.perron_iterations = 0
        self.perron_closed_form = 0
        self.perron_inputs: set[bytes] = set()
        self.words = 0
        self.cylinders = 0
        self.steps = 0
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"markovspectra.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
        package = [
            m for key, m in sys.modules.items() if key == "markovspectra" or key.startswith("markovspectra.")
        ]
        for module in package:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        names, parents, jobs, starts, ends, outer = (
            self.name, self.parent, self.job, self.start, self.end, self.outer
        )
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        if name not in self.names:
            return 0
        return self.name.count(self.names.index(name))

    def save(self, path) -> None:
        columns = ("name", "parent", "job", "start", "end", "outer")
        arrays = {key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode) for key in columns}
        np.savez(path, names=np.array(self.names), **arrays)


def perron_calls(argv) -> int:
    """Perron solves one CLI request makes, as the wrappers see them."""
    from markovspectra import cli

    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")
    return tracer.calls("perron.perron")


CALLS_BUSY = (
    "perron.perron",
    "perron.cycle_mean_extremes",
    "perron.stationary_distribution",
    "thermo.reduce_to_order2",
    "thermo.gibbs_markov",
    "thermo.normalize_potential",
    "thermo.pressure_by_preimages",
    "thermo.gibbs_constant_audit",
    "shiftspace.admissible_words",
    "shiftspace.higher_block_recode",
    "shiftspace.check_aperiodic",
    "modelio.parse_model",
    "rigidity.classify_2x2",
    "rigidity.classify_general",
    "rigidity.g_n_membership",
    "rigidity.density_probe",
)
CALLS_ONLY = (
    "spectrum.BetaFunction.triple",
    "spectrum.BetaFunction.alpha",
    "spectrum.BetaFunction.alpha_slope",
    "thermo.edge_matrix",
)
BUSY_ONLY = (
    "spectrum.sample_spectrum",
    "spectrum.entropy_spectrum",
    "spectrum.spectra_equal",
    "spectrum.alpha_range",
    "sim.empirical_local_entropy",
    "sim.empirical_spectrum_histogram",
)
SIM_ENTRY = ("sim.sample_path", "sim.empirical_local_entropy", "sim.empirical_spectrum_histogram")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from the recorded spans.

    ``busy_s`` is inclusive time, counting only the outermost span when a
    function is re-entered; ``self_s`` of a layer is the time its spans
    cover minus the time covered by their direct child spans.
    """
    n_names = len(tracer.names)
    name = np.frombuffer(tracer.name, dtype=np.int32).astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    outer = np.frombuffer(tracer.outer, dtype=np.int8).astype(bool)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    calls = np.bincount(name, minlength=n_names)
    busy = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
    own = np.bincount(name, weights=dur - child, minlength=n_names)
    index = {n: k for k, n in enumerate(tracer.names)}

    def c(fn):
        return int(calls[index[fn]])

    def b(fn):
        return float(busy[index[fn]])

    out: dict[str, tuple[float, str]] = {}
    for fn in CALLS_BUSY:
        out[f"{fn}.calls"] = (c(fn), "count")
        out[f"{fn}.busy_s"] = (b(fn), "s")
    for fn in CALLS_ONLY:
        out[f"{fn}.calls"] = (c(fn), "count")
    for fn in BUSY_ONLY:
        out[f"{fn}.busy_s"] = (b(fn), "s")
    for layer in LAYERS:
        mine = [k for n, k in index.items() if n.split(".")[0] == layer]
        out[f"{layer}.self_s"] = (float(own[mine].sum()), "s")

    solves = c("perron.perron")
    out["perron.perron.iterations"] = (tracer.perron_iterations, "count")
    out["perron.perron.closed_form_calls"] = (tracer.perron_closed_form, "count")
    out["perron.solves_per_job"] = (_ratio(solves, jobs), "1")
    out["perron.unique_ratio"] = (_ratio(len(tracer.perron_inputs), solves), "1")

    triple = name == index["spectrum.BetaFunction.triple"]
    solved = np.zeros(len(dur), dtype=bool)
    solved[parent[(name == index["perron.perron"]) & has_parent]] = True
    out["spectrum.triple_hit_ratio"] = (_ratio(int((triple & ~solved).sum()), int(triple.sum())), "1")

    audit = "thermo.gibbs_constant_audit"
    out[f"{audit}.cylinders_per_s"] = (_ratio(tracer.cylinders, b(audit)), "1/s")
    out["shiftspace.admissible_words.words"] = (tracer.words, "count")
    out["sim.steps"] = (tracer.steps, "count")
    out["sim.steps_per_s"] = (_ratio(tracer.steps, sum(b(fn) for fn in SIM_ENTRY)), "1/s")
    return out
