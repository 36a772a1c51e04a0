"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in every namespace that bound it: the defining module,
each module that imported it with ``from ... import``, the package, and the
module-level registries (``figures.FIGURES``, ``optimize.OBJECTIVE_REGISTRY``).
``uninstall`` puts the originals back.  Spans stay in memory as
(name, start, end, parent, job) records; self time is a span's duration
minus the durations of its direct children, which never overlap in this
single-threaded program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYER_MODULES = ("fock", "states", "beamsplitter", "optimize", "lindblad", "figures", "cli")

# Span groups: each public function of a layer module belongs to exactly one,
# so the groups' self times plus the time outside every span add up to the
# traced run time.
GROUPS = (
    "fock", "states", "beamsplitter.moments", "beamsplitter.joint",
    "optimize.sweep", "optimize.refine",
    "lindblad.build", "lindblad.liouvillian", "lindblad.steady_state",
    "lindblad.g2_tau", "lindblad.tune", "lindblad.other",
    "figures", "cli",
)

_LINDBLAD = {
    "build_single_kerr": "lindblad.build",
    "build_coupled_cavities": "lindblad.build",
    "liouvillian": "lindblad.liouvillian",
    "steady_state": "lindblad.steady_state",
    "g2_tau": "lindblad.g2_tau",
    "tune_for_antibunching": "lindblad.tune",
}


def group_of(module: str, name: str) -> str:
    if module == "beamsplitter":
        moments = name in ("output_moments", "g2_from_coeffs")
        return "beamsplitter.moments" if moments else "beamsplitter.joint"
    if module == "optimize":
        return "optimize.refine" if name == "refine_min" else "optimize.sweep"
    if module == "lindblad":
        return _LINDBLAD.get(name, "lindblad.other")
    return module


# Per-layer metrics reported by a traced run: (name, unit).
LAYER_METRICS = (
    ("fock.calls", "count"), ("fock.self_s", "s"),
    ("states.calls", "count"), ("states.self_s", "s"),
    ("beamsplitter.moments.calls", "count"), ("beamsplitter.moments.self_s", "s"),
    ("beamsplitter.joint.calls", "count"), ("beamsplitter.joint.self_s", "s"),
    ("beamsplitter.joint.max_dim", "count"),
    ("optimize.sweep.cells", "count"), ("optimize.sweep.self_s", "s"),
    ("optimize.sweep.defined_frac", "fraction"),
    ("optimize.refine.evals", "count"), ("optimize.refine.self_s", "s"),
    ("lindblad.build.calls", "count"), ("lindblad.build.self_s", "s"),
    ("lindblad.liouvillian.calls", "count"), ("lindblad.liouvillian.self_s", "s"),
    ("lindblad.steady_state.calls", "count"), ("lindblad.steady_state.self_s", "s"),
    ("lindblad.steady_state.max_unknowns", "count"),
    ("lindblad.g2_tau.calls", "count"), ("lindblad.g2_tau.self_s", "s"),
    ("lindblad.tune.evals", "count"), ("lindblad.tune.self_s", "s"),
    ("lindblad.other.self_s", "s"),
    ("figures.self_s", "s"), ("cli.self_s", "s"),
    ("trace.run_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_frac", "fraction"),
)


def _joint_dim(args) -> int:
    # mix/output_g2/output_g2_b take two states; bs_unitary and
    # heisenberg_residual take (params, dim_a, dim_b).
    dims = [a.dim for a in args if hasattr(a, "dim")] or [a for a in args if isinstance(a, int)]
    return dims[0] * dims[1] if len(dims) >= 2 else 0


class _Counted:
    """Objective wrapper that counts evaluations and changes nothing else."""

    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # span: [name, group, start, end, parent index, job, work]
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (namespace, key, original, is_dict)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, module: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        label, group = f"{module}.{name}", group_of(module, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, group, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            counted = None
            if name == "refine_min":
                counted = _Counted(args[0])
                args = (counted,) + args[1:]  # the library passes it positionally
            elif group == "beamsplitter.joint":
                rec[6] = _joint_dim(args)
            elif name == "steady_state":
                rec[6] = args[0].hilbert_dim ** 2
            elif name == "sweep":
                rec[6] = [_cells(args[0]), 0]
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if counted is not None:
                    rec[6] = counted.count
            if name == "sweep":
                rec[6][1] = int(result.defined.sum())
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in LAYER_MODULES:
            mod = importlib.import_module(f"antibunch.{module}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(module, name, fn)
        for _, ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._patched.append((ns, key, value, False))
                    setattr(ns, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patched.append((value, k, v, True))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for ns, key, original, is_dict in reversed(self._patched):
            if is_dict:
                ns[key] = original
            else:
                setattr(ns, key, original)
        self._patched.clear()

    # --------------------------------------------------------- reporting

    def self_times(self) -> list[float]:
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[4] >= 0:
                own[rec[4]] -= rec[3] - rec[2]
        return own

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        spans = self.spans
        own = self.self_times()
        self_s = dict.fromkeys(GROUPS, 0.0)
        calls = dict.fromkeys(GROUPS, 0)
        for rec, s in zip(spans, own):
            self_s[rec[1]] += s
            calls[rec[1]] += 1
        cells = sum(rec[6][0] for rec in spans if rec[0] == "optimize.sweep")
        defined = sum(rec[6][1] for rec in spans if rec[0] == "optimize.sweep")
        m = {f"{g}.self_s": self_s[g] for g in GROUPS}
        for g in ("fock", "states", "beamsplitter.moments", "beamsplitter.joint",
                  "lindblad.build", "lindblad.liouvillian", "lindblad.steady_state",
                  "lindblad.g2_tau"):
            m[f"{g}.calls"] = calls[g]
        m["beamsplitter.joint.max_dim"] = max(
            (rec[6] for rec in spans if rec[1] == "beamsplitter.joint"), default=0)
        m["lindblad.steady_state.max_unknowns"] = max(
            (rec[6] for rec in spans if rec[0] == "lindblad.steady_state"), default=0)
        m["optimize.sweep.cells"] = cells
        m["optimize.sweep.defined_frac"] = defined / cells if cells else 0.0
        m["optimize.refine.evals"] = sum(
            rec[6] for rec in spans if rec[0] == "optimize.refine_min")
        m["lindblad.tune.evals"] = sum(
            1 for rec in spans
            if rec[0] == "lindblad.steady_state" and self._under(rec, "lindblad.tune"))
        m["trace.run_s"] = run_s
        m["trace.unattributed_s"] = run_s - sum(self_s.values())
        return m

    def _under(self, rec, group: str) -> bool:
        parent = rec[4]
        while parent >= 0:
            if self.spans[parent][1] == group:
                return True
            parent = self.spans[parent][4]
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, group, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "group": group, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


def _cells(spec) -> int:
    n = 1
    for axis in spec.axes:
        n *= axis.count
    return n


def _namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "antibunch" or name.startswith("antibunch.")):
            yield name, mod
