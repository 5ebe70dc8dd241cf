"""Run one orbitope CLI case in-process, with a span around each module's
public entry points.

Usage, with the package on PYTHONPATH:

    python3 perfbench/traced_cli.py verify-all --type A --rank 2 --point 1,1 --format json

Each wrapped name is replaced in the module namespace where the pipeline looks
it up, so only calls made through that name are traced.  Spans stay in memory
until the case ends; then one JSON object is printed: the CLI exit code, the
report text, the captured error output and the spans, each as
[name, parent span index or null, start, end, counters].
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback

#: wrap targets per orbitope module, as "<module>.<name>" span names
TARGETS = {
    "cli": ("build_root_system", "build_weyl_group", "classify_faces", "build_poset",
            "parabolic_report", "check_integral", "induce_face_weight",
            "verify_face_numeric", "render", "build_report"),
    "faces": ("hull", "weyl_orbit", "act_on_faces", "support_set", "psi_of_polytope_face"),
    "polytope": ("vertex_permutations",),
    "numeric": ("ascend", "hessian_signature"),
}

#: size counters read off a wrapped call's result, after its span has ended
COUNTERS = {
    "cli.build_weyl_group": lambda r: {"order": len(r)},
    "cli.classify_faces": lambda r: {"descriptors": len(r.descriptors)},
    "cli.build_poset": lambda r: {"order_pairs": len(r.order)},
    "cli.render": lambda r: {"bytes": len(r.encode())},
    "faces.hull": lambda r: {"vertices": len(r.vertices), "facets": len(r.facets),
                             "faces": sum(r.f_vector())},
    "faces.weyl_orbit": lambda r: {"points": len(r)},
    "faces.act_on_faces": lambda r: {"orbits": sum(len(o) for o in r.values())},
    "polytope.vertex_permutations": lambda r: {"count": len(r)},
    "numeric.ascend": lambda r: {"iterations": r.iterations, "converged": int(r.converged)},
}


class Tracer:
    """Nested spans of one single-threaded run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self._open[-1] if self._open else None,
                               time.perf_counter(), None, {}])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self.spans[idx][4] = counter(result)
            return result
        return traced


def main(argv: list[str]) -> None:
    import orbitope.cli as cli

    tracer = Tracer()
    for module_name, names in TARGETS.items():
        module = importlib.import_module("orbitope." + module_name)
        for name in names:
            setattr(module, name, tracer.wrap("%s.%s" % (module_name, name),
                                              getattr(module, name)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.wrap("cli.main", cli.main)(argv)
        except Exception:  # the CLI process would end with a traceback and exit 1
            traceback.print_exc()
            code = 1
    json.dump({"code": code, "report": out.getvalue(), "stderr": err.getvalue(),
               "spans": tracer.spans}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
