"""Per-layer tracing from outside the package.

The traced run replaces `starkprobe` module attributes where the caller looks
them up: `detector.expint_scaled`, not `specfun.expint_scaled`, because
`detector` imports the name directly.  Each wrapped call records one span
(name, start, end, parent) in flat arrays that stay in memory until the run
writes them out.  A layer's self time is its spans' duration minus the part
covered by child spans.  Kernels count probe points, not calls, so that a
kernel taking a whole grid stays comparable with one taking a point.  A
target that no longer exists is left out, and so are the metrics built on
it.
"""

from __future__ import annotations

import contextlib
import json
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from starkprobe import atom, cavity, cli, detector, oracle, output, specfun, waveguide


def _size(x) -> int:
    return 1 if isinstance(x, (int, float, complex)) else int(np.size(x))


def _first(x) -> float:
    return x if isinstance(x, (int, float)) else float(np.ravel(x)[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.counts: Counter = Counter()
        self.max_residual = 0.0
        self.bytes: Counter = Counter()
        self.absent: list[str] = []
        self.warnings = 0
        self._stack = [-1]
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _patch(self, module, attr, label, make):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(label)
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(self, module, attr, label, *, name_of=None, points_of=None, after=None):
        """Wrap module.attr so that each call records a span.

        name_of(args, kwargs) picks the span name per call (default: label),
        points_of(args) the probe points it covers, after(result, args) sees
        the result.
        """
        fixed = self._id(label)
        names, parents, starts, ends, pts = (self.name, self.parent, self.start,
                                             self.end, self.points)
        stack, clock, ident = self._stack, time.perf_counter, self._id

        def make(fn):
            def traced(*args, **kwargs):
                i = len(starts)
                names.append(ident(name_of(args, kwargs)) if name_of else fixed)
                parents.append(stack[-1])
                pts.append(points_of(args) if points_of else 0)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(i)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[i] = t0
                    ends[i] = t1
                if after:
                    after(result, args)
                return result
            return traced
        self._patch(module, attr, label, make)

    def count(self, module, attr, label, *, failure=None):
        """Wrap module.attr to count calls and, optionally, calls raising `failure`."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[label] += 1
                try:
                    return fn(*args, **kwargs)
                except failure or ():
                    counts[label + ".failed"] += 1
                    raise
            return counted
        self._patch(module, attr, label, make)

    def install(self) -> None:
        """Wrap every traced target of the package."""
        point = lambda args: _size(args[0])   # noqa: E731
        for attr, label in (("sweep", "detector.sweep"),
                            ("response_function", "detector.response_function")):
            self.span(detector, attr, label)
        for attr in ("s21_probe", "comb_spectrum"):
            self.span(detector, attr, f"detector.{attr}", points_of=point)
        # co- and counter-rotating calls differ by the sign of omega_p
        for state in ("coherent", "incoherent", "thermal"):
            base = f"detector.response.{state}"
            self.span(detector, f"qubit_response_{state}", base, points_of=point,
                      name_of=lambda a, k, base=base:
                      f"{base}.co" if _first(a[0]) >= 0 else f"{base}.counter")
        self.span(detector, "expint_scaled", "specfun.expint_scaled",
                  points_of=lambda args: _size(args[1]))
        self.count(specfun, "_expint_scaled_series", "specfun.series")
        self.count(specfun, "_expint_scaled_cf", "specfun.cf",
                   failure=specfun.ConvergenceError)
        self.count(specfun, "_expint_scaled_asymptotic", "specfun.asymptotic")

        def residual(result, args):
            self.max_residual = max(self.max_residual, result.residual)
        self.span(oracle, "lindblad_steady_response", "oracle.n_fock",
                  name_of=lambda a, k: f"oracle.n_fock_{k['n_fock'] if 'n_fock' in k else a[3]}",
                  points_of=lambda args: _size(args[2]), after=residual)
        self.span(oracle, "cavity_photon_number", "oracle.cavity_photon_number")

        for fmt in ("csv", "json", "svg"):
            def written(result, args, fmt=fmt):
                self.bytes[fmt] += Path(args[1]).stat().st_size
            self.span(output, f"spectrum_to_{fmt}", f"output.{fmt}", after=written)

        self.span(cli, "run_cli", "cli.run_cli")
        for module, attrs in ((cavity, ("resonances", "bare_s_params")),
                              (waveguide, ("cpw_params", "half_plane_params",
                                           "parallel_plate_params")),
                              (atom, ("atom_s_params", "atom_steady_state"))):
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                self.span(module, attr, f"{layer}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def tracing(self):
        """Install the wrappers and count every warning raised meanwhile."""
        self.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            self.uninstall()
        self.warnings += len(caught)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 points=np.frombuffer(self.points, np.int64))

    def metrics(self) -> dict:
        """Per-layer metrics by name; None where the target is absent."""
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        points = np.frombuffer(self.points, np.int64)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested],
                                   minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_t, minlength=n)
        pts = np.bincount(name, weights=points, minlength=n)

        def absent(label):
            return any(label.startswith(a) or a.startswith(label) for a in self.absent)

        def per(label, table):
            if absent(label):
                return None
            i = self._ids.get(label)
            return 0 if i is None else table[i]

        def layer_self(prefix):
            if absent(prefix):
                return None
            return sum(self_s[i] for nm, i in self._ids.items() if nm.startswith(prefix))

        m = {}
        exp = "specfun.expint_scaled"
        m[f"{exp}.calls"] = per(exp, calls)
        m[f"{exp}.self_s"] = per(exp, self_s)
        for branch, label in (("series", "specfun.series"), ("cf", "specfun.cf"),
                              ("asymptotic", "specfun.asymptotic")):
            m[f"{exp}.{branch}_calls"] = None if absent(label) else self.counts[label]
        m[f"{exp}.cf_stalls"] = None if absent("specfun.cf") else self.counts["specfun.cf.failed"]

        m["detector.sweep.self_s"] = per("detector.sweep", self_s)
        m["detector.response_function.calls"] = per("detector.response_function", calls)
        for kernel in ("s21_probe", "comb_spectrum"):
            m[f"detector.{kernel}.points"] = per(f"detector.{kernel}", pts)
            m[f"detector.{kernel}.self_s"] = per(f"detector.{kernel}", self_s)
        for state in ("coherent", "incoherent", "thermal"):
            for branch in ("co", "counter"):
                label = f"detector.response.{state}.{branch}"
                m[f"{label}.points"] = per(label, pts)
                m[f"{label}.self_s"] = per(label, self_s)
        inc = [self._ids[f"detector.response.incoherent.{b}"] for b in ("co", "counter")
               if f"detector.response.incoherent.{b}" in self._ids]
        inc_points = sum(pts[i] for i in inc)
        terms = None
        if not absent(exp) and not absent("detector.response.incoherent"):
            under = nested & np.isin(name[np.maximum(parent, 0)], inc)
            under &= name == self._ids[exp]
            terms = float(points[under].sum())/inc_points if inc_points else 0.0
        m["detector.response.incoherent.terms_per_point"] = terms
        m["detector.warnings"] = self.warnings

        for nf in (40, 80):
            label = f"oracle.n_fock_{nf}"
            m[f"{label}.calls"] = per(label, calls)
            m[f"{label}.self_s"] = per(label, self_s)
        m["oracle.max_residual"] = None if absent("oracle.n_fock") else self.max_residual

        for fmt in ("csv", "json", "svg"):
            m[f"output.{fmt}.self_s"] = per(f"output.{fmt}", self_s)
            m[f"output.{fmt}.bytes"] = (None if absent(f"output.{fmt}")
                                        else self.bytes[fmt])
        m["cli.run_cli.calls"] = per("cli.run_cli", calls)
        m["cli.run_cli.self_s"] = per("cli.run_cli", self_s)
        for layer in ("cavity", "waveguide", "atom"):
            m[f"{layer}.self_s"] = layer_self(f"{layer}.")
        return m
