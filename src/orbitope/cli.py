"""Command-line front end.

Subcommands: faces, polytope, strata, integrality, verify-numeric, verify-all.
Reports are emitted as text or as JSON with a stable field order, so a run is
byte-for-byte reproducible given the same configuration (including the seed).
Exit codes: 0 all verifications pass, 1 input error, 2 theorem-violation
diagnostic (an internal cross-check failed, i.e. a bug).

Each run is one process and pays for everything this module imports, so it
imports the exact layers only; `numeric`, with numpy behind it, is imported
when a type A run reaches the su(n) check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInputError, TheoremViolationError
from .faces import build_kostant_polytope, classify_faces, parabolic_report
from .integrality import check_integral, induce_face_weight
from .linalg import frac_str
from .roots import build_root_system, chamber_point
from .strata import build_poset
from .weyl import DEFAULT_ORBIT_CAP, build_weyl_group

COMMANDS = ("faces", "polytope", "strata", "integrality", "verify-numeric", "verify-all")

#: Most seeded ascents per face, and most (face, seed) lanes of one lockstep:
#: `numeric.ascend` holds about ten stacked (lanes, n, n) complex arrays at
#: once; at rank 8 (n = 9) a lane takes 81 * 16 B = 1.3 KB in each, so
#: 10 000 lanes need about 130 MB.  A run hands its faces to `numeric` in
#: groups that keep within this many lanes.
MAX_NUMERIC_SEEDS = 10_000


class RunConfig(NamedTuple):
    command: str
    type_label: str
    rank: int
    point: tuple[str, ...]
    fmt: str = "text"
    out: str | None = None
    seed: int = 0
    numeric_seeds: int = 20
    numeric_faces: int = 5
    orbit_cap: int = DEFAULT_ORBIT_CAP
    weyl_cap: int | None = None


def _vec_strs(v) -> list[str]:
    return [frac_str(c) for c in v]


def verify_face_numeric(classification, faces, seeds: int, seed_base: int) -> list[dict]:
    """`numeric.verify_face_numeric` on groups of faces of at most
    `MAX_NUMERIC_SEEDS` lanes in all, every group from the one Haar draw of
    the run's seeds.  `numeric` is imported on the first call, so only a run
    that reaches the su(n) check loads it and numpy."""
    if not faces:
        return []
    from . import numeric
    group = max(1, MAX_NUMERIC_SEEDS // seeds)
    draw = numeric.haar_starts(numeric.su_from_cartan(classification.x.vector),
                               range(seed_base, seed_base + seeds))
    return [report for i in range(0, len(faces), group)
            for report in numeric.verify_face_numeric(classification, faces[i:i + group],
                                                      seeds, seed_base, draw)]


def _pairing_rows(rows) -> list[dict]:
    """Report rows of the root pairings of a point or of a face weight."""
    return [{"root": _vec_strs(r.root), "knapp": frac_str(r.knapp),
             "half": frac_str(r.half_display)} for r in rows]


def _check_config(config: RunConfig) -> None:
    """Reject seed, count and cap settings outside their range before any
    work; an unset Weyl cap means no cap."""
    for flag, value, low, high in (("--seed", config.seed, 0, None),
                                   ("--numeric-seeds", config.numeric_seeds, 1, MAX_NUMERIC_SEEDS),
                                   ("--numeric-faces", config.numeric_faces, 0, None),
                                   ("--orbit-cap", config.orbit_cap, 0, None),
                                   ("--weyl-cap", config.weyl_cap, 0, None)):
        if value is not None and value < low:
            raise InvalidInputError("%s must be at least %d, got %d" % (flag, low, value))
        if high is not None and value > high:
            raise InvalidInputError("%s must be at most %d, got %d" % (flag, high, value))


def build_report(config: RunConfig) -> dict:
    """Run the pipeline for one configuration and assemble the report dict.

    Field order is part of the contract; do not reorder keys.
    """
    _check_config(config)
    rs = build_root_system(config.type_label, config.rank)
    if config.command == "verify-numeric" and rs.type_label != "A":
        raise InvalidInputError("numeric verification is realized for type A only")
    try:
        coords = [Fraction(c) for c in config.point]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError("bad point coordinate: %s" % exc) from None
    x = chamber_point(rs, coords)
    group = build_weyl_group(rs, cap=config.weyl_cap)

    report: dict = {"root_system": rs.name, "point": _vec_strs(x.coords)}

    if config.command == "polytope":
        poly = build_kostant_polytope(group, x, config.orbit_cap)
    else:
        classification = classify_faces(rs, group, x, orbit_cap=config.orbit_cap)
        poly = classification.polytope
    rows = poly.vertex_ints
    # the integer rows over one scale, each coordinate value rendered once
    strs = {c: frac_str(Fraction(c, poly.vertex_scale)) for c in set().union(*rows)}
    report["polytope"] = {
        "n_vertices": len(rows),
        "f_vector": list(poly.f_vector()),
        "vertices": [[strs[c] for c in row] for row in rows],
    }
    if config.command == "polytope":
        return report
    poset = build_poset(classification)
    point_weight = check_integral(rs, x)

    face_rows = []
    face_weights = {}
    for idx, d in enumerate(classification.descriptors):
        if d.improper:
            sigma_class = list(d.sigma.vertex_indices)
            dim_stratum = dim_base = parabolic = None
        else:
            sigma_class = list(classification.matching[d.I])
            dim_stratum = poset.stratum_dims[idx]
            dim_base = poset.base_flag_dims[idx]
            parabolic = parabolic_report(classification, d)
        integral = None
        if d.I:
            fw = induce_face_weight(rs, x, d)
            face_weights[idx] = fw
            integral = fw.is_integral
        face_rows.append({
            "I": [rs.root_label(i) for i in d.I],
            "I_prime": [rs.root_label(i) for i in d.I_prime],
            "J": [rs.root_label(i) for i in d.J],
            "improper": d.improper,
            "dim_face": d.dim_face,
            "dim_stratum": dim_stratum,
            "dim_base": dim_base,
            "sigma_class": {"dim": d.sigma.dim, "vertices": sigma_class},
            "exposing_u": _vec_strs(d.exposing_u) if d.exposing_u is not None else None,
            "parabolic": parabolic,
            "integral": integral,
        })
    report["faces"] = face_rows
    report["bijection_verified"] = classification.bijection_verified
    report["poset_edges"] = [list(e) for e in poset.cover_edges]

    if config.command in ("integrality", "verify-all"):
        report["integrality"] = {
            "integral": point_weight.is_integral,
            "pairings": _pairing_rows(point_weight.pairings),
            "faces": [{"I": [rs.root_label(i) for i in fw.I],
                       "x1_prime": _vec_strs(fw.x1_prime),
                       "integral": fw.is_integral,
                       "pairings": _pairing_rows(fw.pairings)}
                      for idx, fw in sorted(face_weights.items())],
        }

    if config.command == "verify-all" and point_weight.is_integral:
        for idx, fw in face_weights.items():
            if not classification.descriptors[idx].improper and not fw.is_integral:
                raise TheoremViolationError(
                    "integrality descent failed on face I=%s" % (fw.I,))

    if config.command in ("verify-numeric", "verify-all") and rs.type_label == "A":
        faces = classification.proper_descriptors[:config.numeric_faces]
        report["numeric"] = {
            "trace_killing_factor": int(rs.killing_ratio),
            "seed": config.seed,
            "faces": verify_face_numeric(classification, faces, config.numeric_seeds,
                                         config.seed),
        }
    return report


def render_text(report: dict) -> str:
    lines = []
    lines.append("root system  %s" % report["root_system"])
    lines.append("point        (%s)" % ", ".join(report["point"]))
    poly = report.get("polytope")
    if poly:
        lines.append("polytope     %d vertices, f-vector %s"
                      % (poly["n_vertices"], tuple(poly["f_vector"])))
    faces = report.get("faces")
    if faces:
        lines.append("bijection    %s  (%d face classes, %d proper)"
                      % ("verified" if report["bijection_verified"] else "FAILED",
                         len(faces), sum(1 for f in faces if not f["improper"])))
        lines.append("")
        lines.append("face classes")
        for f in faces:
            tag = " (top)" if f["improper"] else ""
            levi = ""
            if f["parabolic"]:
                levi = "  levi=%s  ext=%s" % (f["parabolic"]["levi_type"],
                                              f["parabolic"]["ext_type"]["description"])
            integral = "" if f["integral"] is None else "  integral=%s" % f["integral"]
            stratum = "" if f["dim_stratum"] is None else "  dim_S=%d" % f["dim_stratum"]
            lines.append("  I={%s} J={%s}%s  dim_F=%d%s%s%s"
                          % (",".join(f["I"]), ",".join(f["J"]), tag,
                             f["dim_face"], stratum, levi, integral))
        if report.get("poset_edges") is not None:
            lines.append("poset cover edges: %s"
                          % (" ".join("%d<%d" % (a, b) for a, b in report["poset_edges"])
                             or "(none)"))
    integ = report.get("integrality")
    if integ:
        lines.append("point integral: %s" % integ["integral"])
        for fw in integ["faces"]:
            lines.append("  face I={%s}: integral=%s  x1'=(%s)"
                          % (",".join(fw["I"]), fw["integral"], ",".join(fw["x1_prime"])))
    numeric = report.get("numeric")
    if numeric:
        lines.append("numeric (trace = Killing / %d, seed %d)"
                      % (numeric["trace_killing_factor"], numeric["seed"]))
        for f in numeric["faces"]:
            lines.append("  I={%s}: %d/%d converged, value gap %.2e, crit %.2e, drift %.2e"
                          % (",".join(f["I"]), f["n_converged"], f["n_seeds"],
                             f["max_value_gap"], f["max_grad_norm"], f["max_step_drift"]))
    lines.append("verdict: PASS")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return render_text(report)


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, rendered report)."""
    try:
        report = build_report(config)
        text = render(report, config.fmt)
    except TheoremViolationError as exc:
        return 2, "theorem violation: %s\n" % exc
    except InvalidInputError as exc:
        return 1, "error: %s\n" % exc
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return 1, "error: cannot write the report to %s: %s\n" % (config.out, exc.strerror)
        return 0, ""
    return 0, text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitope",
                     description="Face classification of coadjoint orbitopes, "
                                 "with exact convex-geometry verification.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--type", required=True, dest="type_label",
                        help="Cartan type letter A-G")
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--point", required=True,
                        help="fundamental-weight coordinates, e.g. 1,0,2 or 3/2,0,1")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"))
    parser.add_argument("--out", help="write the report to a file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--numeric-seeds", type=int)
    parser.add_argument("--numeric-faces", type=int,
                        help="number of face classes to verify numerically")
    parser.add_argument("--orbit-cap", type=int, help="maximum Weyl orbit size |W.x|")
    parser.add_argument("--weyl-cap", type=int, help="maximum Weyl group order (default: no cap)")
    parser.set_defaults(**RunConfig._field_defaults)
    return parser


def parse_config(argv) -> RunConfig:
    args = vars(_build_parser().parse_args(argv))
    args["point"] = tuple(s.strip() for s in args["point"].split(","))
    return RunConfig(**args)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except InvalidInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    code, text = run(config)
    if code == 0:
        if text:
            sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
