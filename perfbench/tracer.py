"""Outside-in span tracer for the goldman package.

Every public function of the layer modules is wrapped, and every alias
that a goldman module holds for it is rebound to the wrapper: names
imported with ``from .x import f``, a module calling its own global, and
local imports inside functions (which look the name up at call time).
The check table of ``verify`` holds its functions inside ``Check``
records, so that table is rebound too, and ``Chart.point`` is wrapped on
its class to see the chart's point cache.

``install()`` and ``uninstall()`` swap the bindings, so an untraced pass
runs the unmodified functions.  Spans (name, start, end, parent, job) are
kept in flat arrays in memory; ``aggregate_pass`` turns one traced pass
into per-name call counts, inclusive and self times and counters, and
``save`` writes every span when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import weakref
from array import array
from dataclasses import replace
from time import perf_counter

import numpy as np

LAYERS = ("words", "reps", "cocycles", "linalg", "pairing", "charts",
          "fileio", "verify", "cli")

_READS = ("fileio.read_representation", "fileio.read_cocycle", "fileio.read_matrix")
_WRITES = ("fileio.write_representation", "fileio.write_cocycle", "fileio.write_matrix")
_PAIRINGS = ("pairing.pairing_dual", "pairing.pairing_cup")


def _path_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def cocycle_basis_cost(genus: int, rank: int, dims) -> tuple[float, float]:
    """Computed (flops, bytes) of the dense steps of one cocycle_basis call.

    With p = n^2 and q = 2g n^2: the full SVD of the p x q Fox constraint
    in ``nullspace`` (Golub and Van Loan's R-SVD count with the full q x q
    factor, 4 q^2 p + 22 p^3), the thin SVD of the q x p coboundary map
    (6 q p^2 + 20 p^3), and in ``complement_within`` the projection of Z1
    off B1 (4 q b z) and its thin SVD (6 q z^2 + 20 z^3).  These are real
    flop counts; complex arithmetic counts four times over.  Bytes are the
    complex128 inputs and factors of those steps.  Both are computed from
    shapes, not measured.
    """
    p, q = rank * rank, 2 * genus * rank * rank
    z, b, _ = dims
    real = ((4 * q * q * p + 22 * p ** 3) + (6 * q * p * p + 20 * p ** 3)
            + 4 * q * b * z + (6 * q * z * z + 20 * z ** 3))
    elements = (p * q + p * p + q * q) + (2 * q * p + p * p) + (3 * q * z + q * b)
    return 4.0 * real, 16.0 * elements


class Tracer:
    """Span recorder bound to an imported goldman package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self._stack: list[int] = []
        self._base_digests = weakref.WeakKeyDictionary()
        self._pass_start = 0
        self.counters: dict = {}
        self.begin_pass()
        self.check_spans: dict[str, str] = {}
        self._bindings = self._plan_bindings()
        self.installed = False

    # ------------------------------------------------------------ bindings

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _plan_bindings(self):
        modules = {layer: importlib.import_module(f"goldman.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, self._after_hook(name)))

        bindings = []
        holders = [m for key, m in sorted(sys.modules.items())
                   if key == "goldman" or key.startswith("goldman.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    bindings.append((holder, attr, value, entry[1]))

        checks = getattr(modules["verify"], "ALL_CHECKS", None)
        if checks is not None:
            rebound = []
            for check in checks:
                entry = wrappers.get(id(check.fn))
                if entry is None:
                    rebound.append(check)
                    continue
                self.check_spans[check.name] = f"verify.{check.fn.__name__}"
                rebound.append(replace(check, fn=entry[1]))
            bindings.append((modules["verify"], "ALL_CHECKS", checks, tuple(rebound)))

        chart = getattr(modules["charts"], "Chart", None)
        point = getattr(chart, "point", None)
        if inspect.isfunction(point):
            bindings.append((chart, "point", point,
                             self._wrap("charts.Chart.point", point, None)))
        return bindings

    def install(self):
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)
        self.installed = False

    # ------------------------------------------------------------- spans

    def _wrap(self, name: str, fn, after):
        name_id = self._intern(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------- counters

    def _after_hook(self, name: str):
        counters = self.counters
        if name in _READS:
            def after(args, kwargs, result):
                counters["fileio.read.bytes"] += _path_size(args, kwargs)
            return after
        if name in _WRITES:
            def after(args, kwargs, result):
                counters["fileio.write.bytes"] += _path_size(args, kwargs)
            return after
        if name == "words.fox_derivative":
            def after(args, kwargs, result):
                word = args[0] if args else kwargs.get("word")
                index = args[1] if len(args) > 1 else kwargs.get("index")
                counters["fox_keys"].add((word, index))
            return after
        if name in _PAIRINGS:
            def after(args, kwargs, result):
                chi = args[0] if args else kwargs.get("chi1")
                counters["bases"].add(self._base_digest(chi.base))
            return after
        if name == "cocycles.cocycle_basis":
            def after(args, kwargs, result):
                flops, nbytes = cocycle_basis_cost(result.base.genus, result.base.rank,
                                                   result.dims)
                counters["cocycle_basis.flops"] += flops
                counters["cocycle_basis.bytes"] += nbytes
            return after
        return None

    def _base_digest(self, rep) -> str:
        digest = self._base_digests.get(rep)
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            for m in rep.images:
                h.update(np.ascontiguousarray(m).tobytes())
            digest = h.hexdigest()
            self._base_digests[rep] = digest
        return digest

    # ------------------------------------------------------------ passes

    def begin_pass(self):
        self._pass_start = len(self.span_start)
        self.counters.clear()
        self.counters.update({"fileio.read.bytes": 0, "fileio.write.bytes": 0,
                              "fox_keys": set(), "bases": set(),
                              "cocycle_basis.flops": 0.0, "cocycle_basis.bytes": 0.0})

    def aggregate_pass(self) -> dict:
        """Per-name calls, inclusive and self seconds, and counters of the
        spans recorded since ``begin_pass``."""
        first, last = self._pass_start, len(self.span_start)
        count = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)[first:last]
        start = np.frombuffer(self.span_start, dtype=np.float64)[first:last]
        end = np.frombuffer(self.span_end, dtype=np.float64)[first:last]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[first:last]
        duration = end - start
        nested = parent >= first
        local_parent = parent[nested] - first
        child = np.bincount(local_parent, weights=duration[nested], minlength=last - first)
        self_time = duration - child
        calls = np.bincount(name, minlength=count)
        inclusive = np.bincount(name, weights=duration, minlength=count)
        exclusive = np.bincount(name, weights=self_time, minlength=count)

        def child_calls(child_name: str, parent_name: str) -> int:
            if child_name not in self._name_ids or parent_name not in self._name_ids:
                return 0
            parent_names = name[local_parent]
            return int(np.count_nonzero(
                (name[nested] == self._name_ids[child_name])
                & (parent_names == self._name_ids[parent_name])))

        c = self.counters
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "inclusive_s": {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(exclusive[i]) for i, n in enumerate(self.names)},
            "newton_iterations": child_calls("reps.relator_tangent_matrix",
                                             "reps.newton_project"),
            "point_misses": child_calls("charts.deform", "charts.Chart.point"),
            "fox_distinct": len(c["fox_keys"]),
            "distinct_bases": len(c["bases"]),
            "fileio.read.bytes": c["fileio.read.bytes"],
            "fileio.write.bytes": c["fileio.write.bytes"],
            "cocycle_basis.flops": c["cocycle_basis.flops"],
            "cocycle_basis.bytes": c["cocycle_basis.bytes"],
        }

    def save(self, path):
        """Write every recorded span as a compressed npz archive."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32))


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metric(name: str, agg: dict, check_spans: dict[str, str]) -> float:
    """Value of one per-layer metric for one traced pass.

    Names follow BENCHMARK.json: ``<layer>.<function>.calls`` and
    ``.self_s``, ``verify.<check-name>.s`` (inclusive time of one check),
    ``cli.<command>.s`` (inclusive time of one command), aggregates over
    the ``fileio`` read and write functions, and a few named ratios.
    Raises KeyError for a name it does not know.
    """
    calls, incl, excl = agg["calls"], agg["inclusive_s"], agg["self_s"]
    special = {
        "pairing.pairings_per_base": lambda: _div(
            sum(calls.get(n, 0) for n in _PAIRINGS), agg["distinct_bases"]),
        "reps.newton_iterations_per_call": lambda: _div(
            agg["newton_iterations"], calls.get("reps.newton_project", 0)),
        "words.fox_derivative.distinct_ratio": lambda: _div(
            agg["fox_distinct"], calls.get("words.fox_derivative", 0)),
        "charts.point_cache_hit_ratio": lambda: _div(
            calls.get("charts.Chart.point", 0) - agg["point_misses"],
            calls.get("charts.Chart.point", 0)),
        "cocycles.cocycle_basis.flops_computed": lambda: agg["cocycle_basis.flops"],
        "cocycles.cocycle_basis.bytes_computed": lambda: agg["cocycle_basis.bytes"],
        "cli.self_s": lambda: sum(v for n, v in excl.items() if n.startswith("cli.")),
    }
    for kind, group in (("read", _READS), ("write", _WRITES)):
        special[f"fileio.{kind}.calls"] = lambda g=group: sum(calls.get(n, 0) for n in g)
        special[f"fileio.{kind}.self_s"] = lambda g=group: sum(excl.get(n, 0.0) for n in g)
        special[f"fileio.{kind}.bytes"] = lambda k=kind: agg[f"fileio.{k}.bytes"]
    if name in special:
        return float(special[name]())

    stem, _, field = name.rpartition(".")
    if stem.startswith("verify.") and field == "s":
        return incl.get(check_spans.get(stem[len("verify."):], ""), 0.0)
    if stem.startswith("cli.") and field == "s":
        return incl.get("cli.cmd_" + stem[len("cli."):].replace("-", "_"), 0.0)
    if field == "calls":
        return float(calls.get(stem, 0))
    if field == "self_s":
        return excl.get(stem, 0.0)
    raise KeyError(f"unknown per-layer metric {name!r}")
