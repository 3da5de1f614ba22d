"""Run one liecx CLI job with per-layer timing.

    python3 perfbench/traced_job.py TRACE_OUT SPAWN_T -- CLI_ARGS...

SPAWN_T is the parent's time.monotonic() just before it started this
process, so interpreter start-up plus `import liecx` can be measured. Before
calling liecx.cli.main(CLI_ARGS) the public functions and methods named in
TRACED are wrapped at every liecx module binding and class attribute where
they appear, so calls from one layer into another are timed without editing
the library. The trace written to TRACE_OUT holds, per traced name, the call
count and self time (span minus the spans of traced callees), a few computed
counts, and the tree of layer spans with their parent links. Hot leaves are
kept only as aggregates. SIGTERM, sent when the job runs out of time, stops
the job and still writes the trace.
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time

# (metric prefix, module, class or None, attribute)
TRACED = [
    ("exact.rref", "exact", None, "rref"),
    ("exact.kernel", "exact", None, "kernel"),
    ("exact.Subspace.reduce", "exact", "Subspace", "reduce"),
    ("exact.Subspace.intersect", "exact", "Subspace", "intersect"),
    ("exact.rational_eigenvalues", "exact", None, "rational_eigenvalues"),
    ("exact.charpoly", "exact", None, "charpoly"),
    ("liealg.bracket", "liealg", "LieAlgebra", "bracket"),
    ("liealg.Quotient.project", "liealg", "Quotient", "project"),
    ("liealg.Quotient.lift", "liealg", "Quotient", "lift"),
    ("liealg.validate", "liealg", "LieAlgebra", "validate"),
    ("liealg.killing_gram", "liealg", "LieAlgebra", "killing_gram"),
    ("liealg.centralizer", "liealg", None, "centralizer"),
    ("liealg.center", "liealg", None, "center"),
    ("liealg.derived", "liealg", None, "derived"),
    ("liealg.extend_to_maximal_abelian", "liealg", None,
     "extend_to_maximal_abelian"),
    ("liealg.radical", "liealg", None, "radical"),
    ("liealg.is_nilpotent", "liealg", None, "is_nilpotent"),
    ("catalog.build", "catalog", None, "build"),
    ("catalog.build_subalgebra", "catalog", None, "build_subalgebra"),
    ("roots.root_decomposition", "roots", None, "root_decomposition"),
    ("roots.enumerate_positive_systems", "roots", None,
     "enumerate_positive_systems"),
    ("roots.build_parabolic", "roots", None, "build_parabolic"),
    ("roots.killing_perp_nilradical", "roots", None,
     "killing_perp_nilradical"),
    ("cx.classify", "cx", None, "classify"),
    ("cx.construct_J", "cx", None, "construct_J"),
    ("cx.decompose_J", "cx", None, "decompose_J"),
    ("cx.compute_m", "cx", None, "compute_m"),
    ("cx.is_integrable", "cx", None, "is_integrable"),
    ("cx.is_invariant", "cx", None, "is_invariant"),
    ("cx.nijenhuis", "cx", None, "nijenhuis"),
    ("cx.nijenhuis_perturbation_trials", "cx", None,
     "nijenhuis_perturbation_trials"),
    ("cx.verify_structure", "cx", None, "verify_structure"),
    ("cx.is_symmetric_pair", "cx", None, "is_symmetric_pair"),
    ("cli.parse", "cli", None, "parse"),
    ("cli.main", "cli", None, "main"),
]

# called too often to keep one span each: aggregated only
HOT = {"exact.rref", "exact.kernel", "exact.Subspace.reduce",
       "exact.Subspace.intersect", "liealg.bracket", "liealg.Quotient.project",
       "liealg.Quotient.lift", "cx.nijenhuis"}


class Stopped(BaseException):
    """Raised by the SIGTERM handler; unwinds every open span."""


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, self_s]
        self.counts = {"exact.rref.cells": 0, "exact.rref.rank": 0,
                       "exact.rref.rows": 0, "exact.max_bits": 0,
                       "exact.GQ.created": 0, "roots.sign_vectors_tried": 0,
                       "roots.positive_systems_found": 0}
        self.spans = []          # [id, parent id, name, start, end]
        # open frames: [seconds covered by traced callees, span id]
        self.stack = [[0.0, None]]

    def wrap(self, name, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans = self.stack, self.spans
        hot = name in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, None]
            if not hot:
                frame[1] = len(spans)
                spans.append([frame[1], parent[1], name, 0.0, 0.0])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[0]
                if not hot:
                    spans[frame[1]][3:] = [t0, t1]
                parent[0] += t1 - t0
            if observe is not None:
                # counting is tracing cost: charge it to no layer
                observe(args, result)
                parent[0] += clock() - t1
            return result
        return traced

    def observe_rref(self, args, result):
        m = args[0]
        red, _, rank = result
        c = self.counts
        c["exact.rref.cells"] += m.nrows * m.ncols
        c["exact.rref.rows"] += m.nrows
        c["exact.rref.rank"] += rank
        bits = c["exact.max_bits"]
        for row in red.rows:
            for x in row:
                for q in (x.re, x.im):
                    bits = max(bits, q.numerator.bit_length(),
                               q.denominator.bit_length())
        c["exact.max_bits"] = bits

    def observe_enumeration(self, args, result):
        rd, m = args
        # roots outside the Levi m come in +- pairs; every sign vector on
        # them is tried. m holds the Cartan, so it carries dim m - rank roots.
        outside = len(rd.roots) - (m.dim - rd.cartan.dim)
        self.counts["roots.sign_vectors_tried"] += 2 ** (outside // 2)
        self.counts["roots.positive_systems_found"] += len(result)

    def install(self):
        """Wrap every TRACED callable wherever liecx binds it, and count
        GQ constructions."""
        modules = [m for n, m in sys.modules.items()
                   if n == "liecx" or n.startswith("liecx.")]
        observers = {"exact.rref": self.observe_rref,
                     "roots.enumerate_positive_systems":
                         self.observe_enumeration}
        for name, module, cls, attr in TRACED:
            owner = importlib.import_module(f"liecx.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            fn = vars(owner)[attr]
            wrapped = self.wrap(name, fn, observers.get(name))
            for target in modules if cls is None else [owner]:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, key, wrapped)
        gq = importlib.import_module("liecx.exact").GQ
        gq_init = gq.__init__
        counts = self.counts

        def counting_init(self, *args, **kwargs):
            counts["exact.GQ.created"] += 1
            gq_init(self, *args, **kwargs)
        gq.__init__ = counting_init

    def dump(self, path, startup_s, stopped):
        with open(path, "w") as fh:
            json.dump({"startup_s": startup_s, "stopped": stopped,
                       "stats": self.stats, "counts": self.counts,
                       "spans": self.spans}, fh)


def _stop(signum, frame):
    raise Stopped()


def main():
    spawn_t = float(sys.argv[2])
    import liecx.cli
    startup_s = time.monotonic() - spawn_t
    trace_out = sys.argv[1]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _stop)
    stopped = False
    code = 1
    try:
        code = liecx.cli.main(cli_args)
    except Stopped:
        stopped = True
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        tracer.dump(trace_out, startup_s, stopped)
    return code


if __name__ == "__main__":
    sys.exit(main())
