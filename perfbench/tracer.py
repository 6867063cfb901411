"""Outside-in tracer for the benchmark's traced runs.

Spans are recorded by rebinding public plasmonstack functions in the module
namespaces that call them, so the library itself carries no timers.  A span
is (name, op, parent, start, end): ``op`` groups the spans of one operation
(one ``cli.main`` call, or one ``modes`` call in mode-scan) and ``parent``
is the index of the enclosing span, or -1.  Spans stay in memory; the caller
writes them out when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap and
that difference is exactly the uncovered part of the interval.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import plasmonstack
from plasmonstack import bie, charpoly, cli, field, output, runconfig, runners, spectrum


# Distinct-input keys run inside the caller's span, so they read a few
# array entries instead of hashing whole arrays.
def _curves_key(args, kwargs):
    curves = args[0] if args else kwargs["curves"]
    return tuple((c.M, float(c.x.flat[0]), float(c.x.flat[c.x.size // 3]), float(c.x.flat[-1])) for c in curves)


def _grid_key(args, kwargs):
    x1, x2, R = args
    x1, x2 = np.asarray(x1), np.asarray(x2)
    return (x1.shape, float(x1.flat[0]), float(x1.flat[-1]), float(x2.flat[0]), float(x2.flat[-1]), float(R))


def _written_bytes(args):
    return os.path.getsize(args[0])


# (span name, [(owner, attribute), ...], distinct-input key, bytes written)
# Every owner/attribute pair is a binding that library code or the benchmark
# looks up at call time; a function imported by name is rebound where it is
# imported, not where it is defined.
TARGETS = (
    ("cli.main", [(cli, "main")], None, None),
    ("runconfig.normalize", [(runconfig, "normalize")], None, None),
    ("runners.run", [(runners, "run")], None, None),
    ("runners.run_field", [(runners, "run_field")], None, None),
    ("charpoly.build_charpoly", [(charpoly, "build_charpoly")], None, None),
    ("charpoly.roots", [(charpoly.CharPoly, "roots")], None, None),
    ("npcore.build_np", [(spectrum, "build_np")], None, None),
    ("spectrum.modes", [(spectrum, "modes"), (plasmonstack, "modes")], None, None),
    ("field.solve_densities", [(field, "solve_densities")], None, None),
    ("field.field_grid", [(field, "field_grid")], None, None),
    ("geometry.cartesian_to_elliptic", [(field, "cartesian_to_elliptic")], _grid_key, None),
    ("bie.assemble_block_np", [(bie, "assemble_block_np")], _curves_key, None),
    ("bie.assemble_block_s", [(bie, "assemble_block_s")], _curves_key, None),
    ("bie.calderon_residual", [(bie, "calderon_residual")], None, None),
    ("bie.self_adjointness_check", [(bie, "self_adjointness_check")], None, None),
    ("bie.block_np_eigenvalues", [(bie, "block_np_eigenvalues")], None, None),
    ("output.write_csv", [(output, "write_csv")], None, _written_bytes),
    ("output.write_json", [(output, "write_json")], None, _written_bytes),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` rebind and
    restore the traced functions so untraced passes run the plain library."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._originals = []
        self.distinct = defaultdict(set)
        self.bytes = Counter()
        self.raised = Counter()

    def _wrap(self, name, fn, key, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                self.distinct[name].add(key(args, kwargs))
            if not self._stack:
                self._op += 1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, self._op, parent, start, end)
            if size is not None:
                self.bytes[name] += size(args)
            return result

        return traced

    def install(self):
        for name, bindings, key, size in TARGETS:
            wrapped = self._wrap(name, getattr(*bindings[0]), key, size)
            for owner, attr in bindings:
                self._originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def pass_stats(self, first_span):
        """Per-name calls and self seconds of the spans from ``first_span`` on."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, _op, parent, start, end in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        calls = Counter()
        self_s = Counter()
        for (name, _op, _parent, start, end), covered in zip(spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def check_nesting(self):
        """Problems with span structure: children must lie inside their parent
        and belong to the same operation.  Returns a list of messages."""
        problems = []
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent < 0:
                continue
            pname, pop, _pp, pstart, pend = self.spans[parent]
            if pop != op or start < pstart or end > pend:
                problems.append(f"span {i} ({name}) is not inside its parent {parent} ({pname})")
        return problems

    def reset_counters(self):
        self.distinct.clear()
        self.bytes.clear()
        self.raised.clear()
