"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of the six layer modules
(instance, fock, hamiltonian, spectral, pipeline, recovery) wherever it is
bound -- its defining module, the package namespace and the modules that
import it -- plus ``HamiltonianOperator.__init__``, ``.matvec`` and
``.materialize_dense``.  Each wrapped call records one span

    (span id, parent span id, trial, phase, function, metric key, start, end, info)

in memory.  Nothing inside the library changes; ``uninstall`` restores
the original bindings.  In the "memory" phase every span also notes the
allocation peak (tracemalloc) above its start, folded correctly through
nested spans.

``layer_metrics`` turns the spans into the per-layer metrics.  A span's
self time is its duration minus that of its child spans.  Self time of a
call made from inside the same layer is credited to the layer's entry
call (so Lanczos steps inside ``leading_eigenvalue`` count as
``spectral.leading``), except for ``build_basis``, which is always its own
key so that cache-miss builds can be reported.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
import types
from collections import defaultdict, namedtuple

LAYERS = ("instance", "fock", "hamiltonian", "spectral", "pipeline", "recovery")
MB = 1024.0 * 1024.0

# (layer, function) -> metric key; other public functions count as "<layer>.other"
_KEYS = {
    ("instance", "sample_instance"): "instance.sample",
    ("instance", "sample_signal"): "instance.sample",
    ("instance", "sample_gaussian_tensor"): "instance.sample",
    ("instance", "make_spiked"): "instance.sample",
    ("instance", "decorrelate"): "instance.decorrelate",
    ("fock", "build_basis"): "fock.basis_build",
    ("fock", "embed_power_state"): "fock.embed_power",
    ("fock", "symmetrized_product"): "fock.sym_product",
    ("spectral", "leading_eigenvalue"): "spectral.leading",
    ("spectral", "project_above"): "spectral.project",
    ("recovery", "spdm"): "recovery.spdm",
    ("recovery", "randomized_recover"): "recovery.candidate",
    ("recovery", "boost"): "recovery.boost",
}
# keys whose spans report the operator's matvec_count delta
_COUNTS_MATVECS = ("spectral.leading", "spectral.range_probe", "spectral.project")


def _key(layer: str, name: str, binding: str) -> str:
    if layer == "pipeline":
        return "pipeline"
    if (layer, name) == ("spectral", "lanczos") and binding == "pipeline":
        return "spectral.range_probe"  # the pipeline's spectral-range probe
    return _KEYS.get((layer, name), f"{layer}.other")


class Tracer:
    """Records spans of wrapped calls while installed.

    ``phase`` tags every span: "setup" before the timed loop, "timed" for
    traced trials, "memory" for trials run with allocation tracking on
    (slow, so their times are not used).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.trial: int | None = None
        self.phase = "setup"
        self._stack: list[list] = []  # open spans: [span id, start bytes, max bytes]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._bases = {}  # id -> every basis build_basis has returned (a new id is a miss)

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[obj] = (layer, name)
        for ns in (package, *modules.values()):
            binding = ns.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in originals:
                    layer, name = originals[obj]
                    self._patch(ns, attr, self._wrap(obj, f"{layer}.{name}", _key(layer, name, binding)))
        cls = modules["hamiltonian"].HamiltonianOperator
        for meth, key in (
            ("__init__", "hamiltonian.setup"),
            ("matvec", "hamiltonian.matvec"),
            ("materialize_dense", "hamiltonian.dense"),
        ):
            self._patch(cls, meth, self._wrap(vars(cls)[meth], f"hamiltonian.{meth}", key))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, key: str):
        counts_matvecs = key in _COUNTS_MATVECS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_key = key
            if key == "hamiltonian.matvec" and args[0].matvec_count == 0:
                span_key = "hamiltonian.setup"  # the first application belongs to set-up
            op = args[0] if counts_matvecs and hasattr(args[0], "matvec_count") else None
            count0 = op.matvec_count if op is not None else 0
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._enter(span_id)
            info = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                peak = self._exit()
                if peak is not None:
                    info["peak_mb"] = peak / MB
                self.spans.append((span_id, parent, self.trial, self.phase, name, span_key, t0, t1, info))
            if op is not None:
                info["matvecs"] = op.matvec_count - count0
            if key == "spectral.project":
                info["method"] = result[2].method
                info["iters"] = result[2].degree_or_iters
            elif key == "recovery.boost":
                info["iters"] = result[1]
            elif key == "fock.basis_build":
                info["miss"] = id(result) not in self._bases
                self._bases[id(result)] = result
            return result

        return traced

    # -- allocation peaks (phase "memory" only) ----------------------------
    def _enter(self, span_id: int) -> None:
        if self.phase != "memory":
            self._stack.append([span_id, 0, 0])
            return
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)
        tracemalloc.reset_peak()
        self._stack.append([span_id, cur, cur])

    def _exit(self):
        frame = self._stack.pop()
        if self.phase != "memory":
            return None
        frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
        if self._stack:
            self._stack[-1][2] = max(self._stack[-1][2], frame[2])
        return frame[2] - frame[1]

    def set_phase(self, phase: str) -> None:
        """Switch phase between trials; "memory" turns tracemalloc on."""
        if self.phase == "memory":
            tracemalloc.stop()
        self.phase = phase
        if phase == "memory":
            tracemalloc.start()


Span = namedtuple("Span", "id parent trial phase function key start end info")


def layer_metrics(spans: list[tuple], trials: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from a traced run.

    Times and counts come from the "timed" phase and are per trial there,
    except ``hamiltonian.matvec_s`` (per application after the first) and
    ``recovery.boost_iters`` (per boost call).  Peaks come from the
    "memory" phase and are maxima over it.  ``fock.basis_build_s`` is the
    total cache-miss build time of the process, set-up included.
    ``spectral.project_iters`` counts Krylov iterations of non-dense
    projector calls.
    """
    spans = [Span._make(s) for s in spans]
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def layer(span):
        return span.function.split(".", 1)[0]

    self_by_key = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls = defaultdict(int)  # by function, and by projector method
    key_calls = defaultdict(int)
    matvecs = defaultdict(int)
    project_iters = boost_iters = 0
    for s in spans:
        if s.phase != "timed":
            continue
        entry = s
        if s.key != "fock.basis_build":
            while entry.parent in by_id and layer(by_id[entry.parent]) == layer(s):
                entry = by_id[entry.parent]
        self_t = (s.end - s.start) - child_time[s.id]
        self_by_key[entry.key] += self_t
        self_by_layer[layer(s)] += self_t
        calls[s.function] += 1
        key_calls[s.key] += 1
        matvecs[s.key] += s.info.get("matvecs", 0)
        if s.key == "spectral.project":
            calls["project." + s.info["method"]] += 1
            if s.info["method"] != "dense":
                project_iters += s.info["iters"]
        elif s.key == "recovery.boost":
            boost_iters += s.info["iters"]
    peak = defaultdict(float)
    for s in spans:
        if s.phase == "memory":
            peak[s.key] = max(peak[s.key], s.info.get("peak_mb", 0.0))
    basis_build = sum(
        s.end - s.start for s in spans if s.key == "fock.basis_build" and s.info.get("miss")
    )

    n = max(trials, 1)
    out = {
        "hamiltonian.setup_s": (self_by_key["hamiltonian.setup"] / n, "s"),
        "hamiltonian.setup_peak_mb": (peak["hamiltonian.setup"], "MB"),
        "hamiltonian.matvec_s": (
            self_by_key["hamiltonian.matvec"] / max(key_calls["hamiltonian.matvec"], 1), "s"),
        "hamiltonian.matvecs": (calls["hamiltonian.matvec"] / n, "count"),
        "hamiltonian.operators": (calls["hamiltonian.__init__"] / n, "count"),
        "hamiltonian.dense_s": (self_by_key["hamiltonian.dense"] / n, "s"),
        "spectral.leading_s": (self_by_key["spectral.leading"] / n, "s"),
        "spectral.leading_matvecs": (matvecs["spectral.leading"] / n, "count"),
        "spectral.range_probe_s": (self_by_key["spectral.range_probe"] / n, "s"),
        "spectral.range_probe_matvecs": (matvecs["spectral.range_probe"] / n, "count"),
        "spectral.project_s": (self_by_key["spectral.project"] / n, "s"),
        "spectral.project_matvecs": (matvecs["spectral.project"] / n, "count"),
        "spectral.project_iters": (project_iters / n, "count"),
        "spectral.project_peak_mb": (peak["spectral.project"], "MB"),
        "spectral.project_dense_calls": (calls["project.dense"] / n, "count"),
        "spectral.project_ritz_calls": (calls["project.ritz"] / n, "count"),
        "fock.embed_power_s": (self_by_key["fock.embed_power"] / n, "s"),
        "fock.sym_product_s": (self_by_key["fock.sym_product"] / n, "s"),
        "fock.basis_build_s": (basis_build, "s"),
        "recovery.spdm_s": (self_by_key["recovery.spdm"] / n, "s"),
        "recovery.candidate_s": (self_by_key["recovery.candidate"] / n, "s"),
        "recovery.boost_s": (self_by_key["recovery.boost"] / n, "s"),
        "recovery.boost_iters": (boost_iters / max(calls["recovery.boost"], 1), "count"),
        "pipeline.self_s": (self_by_layer["pipeline"] / n, "s"),
        "instance.sample_s": (self_by_key["instance.sample"] / n, "s"),
        "instance.decorrelate_s": (self_by_key["instance.decorrelate"] / n, "s"),
    }
    for name in ("instance", "fock", "hamiltonian", "spectral", "recovery"):
        out[f"{name}.self_s"] = (self_by_layer[name] / n, "s")
    out["trace.spans"] = (sum(key_calls.values()) / n, "count")
    return out
