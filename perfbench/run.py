"""End-to-end benchmark of the orbitope CLI, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload hull --seed 0 --seconds 26 --trace 0
    python3 perfbench/run.py --record-digests

Load shape: closed loop, one client.  Every case is one fresh
`python -m orbitope.cli ... --format json` process, one at a time, so each
case pays interpreter start and `import orbitope.cli` as every CLI user does,
and no cache can carry over from one case to the next.  A pass runs the
workload's cases once, in an order drawn from the seed.  Passes repeat until
the next one would end after `--seconds` (two passes at least), and the
outputs are checked after the timed passes.

With `--trace 0` the last line reports the end-to-end metrics: `sweep_s`, the
median pass wall time; `setup_s`, the median wall time of a fresh interpreter
running `import orbitope.cli`; `peak_rss_mb`, the largest maximum RSS of any
case child; `ok_frac`, the share of cases that exit 0 and pass every output
check.  With `--trace 1`, untraced passes alternate with traced ones, in which
each case runs in one child (perfbench/traced_cli.py) that wraps the public
entry points of each module; the last line reports per-layer self times and
counts, medians over the traced passes, and first prints a reach table
(informational, not gated): the `verify-all` exit code at the first
fundamental weight for every admitted (type, rank) under default caps.  It is
left out of untraced runs, where its 15 s would crowd the timed passes out of
the benchmark's time budget.  Lines before the last one also carry run facts,
per-case times and failures.

`--record-digests` runs every case once and stores the sha256 of its report,
without the `numeric` block, in perfbench/digests.json; the checks compare
against those digests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from traced_cli import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
CASE_TIMEOUT_S = 150
SETUP_REPEATS = 11


def case(command: str, type_label: str, rank: int, point: str, *extra: str) -> tuple[str, ...]:
    return (command, "--type", type_label, "--rank", str(rank), "--point", point) + extra


# Why each workload: see the `why` of each in BENCHMARK.json.
WORKLOADS = {
    "hull": (case("verify-all", "D", 4, "1,1,1,1"),
             case("verify-all", "B", 4, "0,1,0,1"),
             case("verify-all", "F", 4, "1,0,0,1")),
    "group": (case("verify-all", "A", 6, "1,0,0,0,0,0", "--weyl-cap", "6000"),
              case("verify-all", "B", 5, "1,0,0,0,0", "--weyl-cap", "4000"),
              case("verify-all", "D", 6, "1,0,0,0,0,0", "--weyl-cap", "30000")),
    "numeric": (case("verify-numeric", "A", 3, "1,1,1"),
                case("verify-numeric", "A", 3, "1,0,1"),
                case("verify-numeric", "A", 4, "0,1,1,0")),
    # the self-tests' case; not a workload of BENCHMARK.json
    "smoke": (case("verify-all", "A", 2, "1,1"),),
}
#: workloads whose cases take the CLI `--seed` drawn from the benchmark seed
SEEDED = {"numeric"}
#: the branched-diagram crash, kept visible in the reach table
REACH_EXTRA = (("D", 5, "0,1,0,0,1"),)
#: prints the admitted (type, rank) pairs; run in a child, as this process
#: never imports the program
VALID_RANKS_SCRIPT = ("import json; from orbitope.roots import VALID_RANKS as v; "
                      "print(json.dumps({t: list(r) for t, r in v.items()}))")

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

#: per-layer self-time metric -> span names whose self times it sums
SELF_TIMES = {
    "roots.build_s": ("cli.build_root_system",),
    "weyl.group_s": ("cli.build_weyl_group",),
    "weyl.vertex_perms_s": ("polytope.vertex_permutations",),
    "weyl.orbit_s": ("faces.weyl_orbit",),
    "polytope.hull_s": ("faces.hull",),
    "polytope.act_on_faces_s": ("faces.act_on_faces",),
    "polytope.support_set_s": ("faces.support_set",),
    "faces.classify_s": ("cli.classify_faces",),
    "faces.psi_s": ("faces.psi_of_polytope_face",),
    "faces.parabolic_s": ("cli.parabolic_report",),
    "strata.poset_s": ("cli.build_poset",),
    "integrality.point_s": ("cli.check_integral",),
    "integrality.face_s": ("cli.induce_face_weight",),
    "numeric.verify_s": ("cli.verify_face_numeric",),
    "numeric.ascend_s": ("numeric.ascend",),
    "numeric.hessian_s": ("numeric.hessian_signature",),
    "cli.self_s": ("cli.main", "cli.build_report"),
    "cli.render_s": ("cli.render",),
}
#: per-layer count metric -> (span name, counter)
COUNTS = {
    "roots.build.calls": ("cli.build_root_system", "calls"),
    "weyl.group.order": ("cli.build_weyl_group", "order"),
    "weyl.vertex_perms.count": ("polytope.vertex_permutations", "count"),
    "weyl.orbit.calls": ("faces.weyl_orbit", "calls"),
    "weyl.orbit.points": ("faces.weyl_orbit", "points"),
    "polytope.hull.vertices": ("faces.hull", "vertices"),
    "polytope.hull.facets": ("faces.hull", "facets"),
    "polytope.hull.faces": ("faces.hull", "faces"),
    "polytope.act_on_faces.orbits": ("faces.act_on_faces", "orbits"),
    "polytope.support_set.calls": ("faces.support_set", "calls"),
    "faces.classify.descriptors": ("cli.classify_faces", "descriptors"),
    "faces.psi.calls": ("faces.psi_of_polytope_face", "calls"),
    "strata.poset.order_pairs": ("cli.build_poset", "order_pairs"),
    "integrality.face.calls": ("cli.induce_face_weight", "calls"),
    "numeric.ascend.calls": ("numeric.ascend", "calls"),
    "numeric.ascend.iterations": ("numeric.ascend", "iterations"),
    "cli.report_bytes": ("cli.render", "bytes"),
}
TRACE_METRICS = ("numeric.ascend.converged_ratio", "trace.overhead_s",
                 "trace.residual_s", "trace.uncalled_targets")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- running one case ----------------------------------------------------------

@dataclass
class Outcome:
    key: str            # the case's CLI arguments, without --seed and --format
    code: int           # CLI exit code
    report: bytes       # standard output of the CLI
    stderr: bytes
    wall_s: float       # from spawning the child until it was reaped
    maxrss_kb: int
    spans: list | None = None   # traced run only

    @property
    def residual_s(self) -> float:
        """Case wall time not covered by any span: interpreter start, imports, exit."""
        return self.wall_s - sum(t["self_s"] for t in span_totals(self.spans).values())


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ORBITOPE_CAP"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float, int]:
    """Run one child to completion; returns (exit code, stdout, stderr, wall s, maxrss KB).

    A child's ru_maxrss also counts the peak RSS of this process, which it
    shared until exec, so the timed passes run before this process imports
    numpy or the program.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(CASE_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], wall, usage.ru_maxrss


def run_case(args: tuple[str, ...], key: str, env: dict, traced: bool) -> Outcome:
    cli_args = list(args) + ["--format", "json"]
    if not traced:
        code, out, err, wall, rss = spawn([sys.executable, "-m", "orbitope.cli"] + cli_args, env)
        return Outcome(key, code, out, err, wall, rss)
    code, out, err, wall, rss = spawn([sys.executable, str(HERE / "traced_cli.py")] + cli_args,
                                      env)
    if code != 0:
        return Outcome(key, code, b"", err, wall, rss)
    result = json.loads(out)
    return Outcome(key, result["code"], result["report"].encode(),
                   result["stderr"].encode(), wall, rss, spans=result["spans"])


# -- output checks ---------------------------------------------------------------

def report_digest(report: dict) -> str:
    """sha256 of the report as the CLI renders it, with the numeric block removed."""
    stripped = {k: v for k, v in report.items() if k != "numeric"}
    return hashlib.sha256((json.dumps(stripped, indent=2) + "\n").encode()).hexdigest()


def oracle_shape(vertices: list[list[str]]) -> tuple[int, int]:
    """(dimension, facet count) of conv(vertices), from qhull on the vertices
    projected to their affine hull; independent of the program's own hull."""
    import numpy as np
    from scipy.spatial import ConvexHull

    pts = np.array([[float(Fraction(c)) for c in v] for v in vertices])
    centered = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered)
    dim = int((sing > 1e-9 * max(sing.max(initial=0.0), 1.0)).sum())
    if dim <= 1:
        return dim, 2 * dim
    proj = centered @ vt[:dim].T
    tight_sets = {tuple(np.flatnonzero(np.abs(proj @ eq[:-1] + eq[-1]) < 1e-7))
                  for eq in ConvexHull(proj).equations}
    return dim, len(tight_sets)


def check_report(key: str, code: int, report_text: bytes, digests: dict) -> list[str]:
    """Problems with one case's result; an empty list means it passed."""
    if code != 0:
        return ["exit code %d" % code]
    try:
        report = json.loads(report_text)
        problems = []
        if report["bijection_verified"] is not True:
            problems.append("bijection_verified is not true")
        f_vector = report["polytope"]["f_vector"]
        if sum((-1) ** i * n for i, n in enumerate(f_vector)) != 1:
            problems.append("Euler-Poincare relation fails on f_vector %s" % f_vector)
        dim = len(f_vector) - 1
        expected = (dim, f_vector[-2] if dim else 0)
        oracle = oracle_shape(report["polytope"]["vertices"])
        if oracle != expected:
            problems.append("qhull gives (dim, facets) = %s, report %s" % (oracle, expected))
        if report_digest(report) != digests.get(key):
            problems.append("report digest differs from the recorded one")
        for face in report.get("numeric", {}).get("faces", ()):
            if not face["ok"] or face["n_converged"] != face["n_seeds"]:
                problems.append("numeric face %s: ok=%s, %d of %d seeds converged"
                                % (face["I"], face["ok"], face["n_converged"], face["n_seeds"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["malformed report: %r" % exc]
    return problems


# -- trace aggregation -----------------------------------------------------------

def span_totals(spans: list) -> dict[str, dict]:
    """Calls, self time and counters per span name.  A span's self time is its
    duration minus the durations of its direct children."""
    child_s = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, _, start, end, counters) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += end - start - child_s[i]
        for k, v in counters.items():
            t[k] = t.get(k, 0) + v
    return totals


def merge_totals(outcomes: list[Outcome]) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for o in outcomes:
        for name, t in span_totals(o.spans).items():
            m = merged.setdefault(name, {})
            for k, v in t.items():
                m[k] = m.get(k, 0) + v
    return merged


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = merge_totals(outcomes)
    metrics = {name: sum(totals.get(s, {}).get("self_s", 0.0) for s in spans)
               for name, spans in SELF_TIMES.items()}
    metrics.update({name: totals.get(span, {}).get(counter, 0)
                    for name, (span, counter) in COUNTS.items()})
    ascend = totals.get("numeric.ascend", {})
    metrics["numeric.ascend.converged_ratio"] = (
        ascend["converged"] / ascend["calls"] if ascend else 0.0)
    metrics["trace.residual_s"] = sum(o.residual_s for o in outcomes)
    return metrics


def uncalled_targets(outcomes: list[Outcome]) -> list[str]:
    called = {span[0] for o in outcomes for span in o.spans}
    return sorted("%s.%s" % (m, n) for m, names in TARGETS.items() for n in names
                  if "%s.%s" % (m, n) not in called)


# -- the run -------------------------------------------------------------------------

def run_facts(workload: str, seed: int, cli_seed: int | None, trace: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        sha = got.stdout.strip() or sha
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"workload": workload, "seed": seed, "cli_seed": cli_seed, "trace": trace,
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha, "loadavg_start": loadavg}


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter running `import orbitope.cli`."""
    argv = [sys.executable, "-c", "import orbitope.cli"]
    code, _, err, _, _ = spawn(argv, env)  # also fills the bytecode cache
    if code != 0:
        raise SystemExit("import orbitope.cli failed:\n%s" % err.decode(errors="replace"))
    return statistics.median(spawn(argv, env)[3] for _ in range(SETUP_REPEATS))


def timed_passes(cases: list[tuple[str, ...]], keys: dict, rng: random.Random,
                 seconds: float, env: dict, trace: bool):
    """Closed-loop passes over the cases.  Returns the pass walls and outcomes
    per mode (False: untraced, True: traced)."""
    modes = (False, True) if trace else (False,)
    walls: dict[bool, list[float]] = {m: [] for m in modes}
    outcomes: dict[bool, list[list[Outcome]]] = {m: [] for m in modes}
    start = time.perf_counter()
    while True:
        for traced in modes:
            order = list(cases)
            rng.shuffle(order)
            t0 = time.perf_counter()
            done = [run_case(args, keys[args], env, traced) for args in order]
            walls[traced].append(time.perf_counter() - t0)
            outcomes[traced].append(done)
        rounds = len(walls[False])
        elapsed = time.perf_counter() - start
        if rounds >= (1 if trace else 2) and elapsed * (rounds + 1) / rounds > seconds:
            return walls, outcomes


def reach_table(env: dict) -> dict:
    """`verify-all` exit code at the first fundamental weight for every
    admitted (type, rank), under default caps; not timed, not gated."""
    code, out, err, _, _ = spawn([sys.executable, "-c", VALID_RANKS_SCRIPT], env)
    if code != 0:
        raise SystemExit("reading VALID_RANKS failed:\n%s" % err.decode(errors="replace"))
    points = [(t, r, ",".join(["1"] + ["0"] * (r - 1)))
              for t, ranks in json.loads(out).items() for r in ranks]

    def row(entry):
        code, _, err, _, _ = spawn([sys.executable, "-m", "orbitope.cli"]
                                   + list(case("verify-all", *entry)), env)
        lines = err.decode(errors="replace").strip().splitlines()
        return {"case": "%s%d %s" % entry, "exit": code, "last_error": lines[-1] if lines else ""}

    # The known crash is the slowest entry; starting it first balances the workers.
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(row, list(REACH_EXTRA) + points))
    return {"exit_0": sum(1 for r in rows[len(REACH_EXTRA):] if r["exit"] == 0),
            "pairs": len(points), "rows": rows}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    digests = json.loads(DIGESTS.read_text())
    rng = random.Random(seed)
    cli_seed = rng.randrange(1_000_000) if workload in SEEDED else None
    cases = list(WORKLOADS[workload])
    keys = {args: " ".join(args) for args in cases}
    if cli_seed is not None:
        keys = {args + ("--seed", str(cli_seed)): key for args, key in keys.items()}
        cases = list(keys)
    print(json.dumps({"run": run_facts(workload, seed, cli_seed, int(trace))}), flush=True)
    if trace:
        print(json.dumps({"reach": reach_table(env)}), flush=True)
        setup_s = None
    else:
        setup_s = measure_setup(env)
    walls, outcomes = timed_passes(cases, keys, rng, seconds, env, trace)

    every = [o for passes in outcomes.values() for done in passes for o in done]
    failures = []
    for o in every:
        problems = check_report(o.key, o.code, o.report, digests)
        if problems:
            failures.append({"case": o.key, "problems": problems,
                             "stderr": o.stderr.decode(errors="replace")[-400:]})
    untraced = [o for done in outcomes[False] for o in done]
    info = {"passes": len(walls[False]), "pass_walls_s": walls[False],
            "failed_frac": len(failures) / len(every), "failures": failures,
            "case_wall_s": {k: statistics.median(o.wall_s for o in untraced if o.key == k)
                            for k in keys.values()}}
    if trace:
        traced = [o for done in outcomes[True] for o in done if o.spans is not None]
        info["traced_pass_walls_s"] = walls[True]
        info["uncalled_targets"] = uncalled_targets(traced)
        info["spans"] = merge_totals(traced)
        passes = [layer_metrics([o for o in done if o.spans is not None])
                  for done in outcomes[True]]
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        values = {name: (statistics.median if name in SELF_TIMES else statistics.median_low)(
            p[name] for p in passes) for name in passes[0]}
        values["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        values["trace.uncalled_targets"] = len(info["uncalled_targets"])
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)}
                   for name in list(SELF_TIMES) + list(COUNTS) + list(TRACE_METRICS)}
    else:
        values = {"sweep_s": statistics.median(walls[False]), "setup_s": setup_s,
                  "peak_rss_mb": max(o.maxrss_kb for o in untraced) / 1024.0,
                  "ok_frac": 1.0 - info["failed_frac"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"info": info}), flush=True)
    return {"correct": not failures, "attempted": len(every), "failed": len(failures),
            "metrics": metrics}


def record_digests() -> None:
    env = child_env()
    digests = {}
    for cases in WORKLOADS.values():
        for args in cases:
            key = " ".join(args)
            outcome = run_case(args, key, env, traced=False)
            if outcome.code != 0:
                raise SystemExit("%s exited %d:\n%s"
                                 % (key, outcome.code, outcome.stderr.decode(errors="replace")))
            digests[key] = report_digest(json.loads(outcome.report))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "orbitope" / "cli.py").is_file():
        print("error: no orbitope sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
