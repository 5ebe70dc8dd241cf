"""Every theorem check of the package fires under a test.

Each `raise TheoremViolationError(...)` in `src/orbitope` checks a proved
statement, so only a bug makes it fire, and a check that no test makes fire
is untested.  `REGISTRY` names, for every check, the tests that break the
code so that it fires with its own message; a check is keyed by the string
literals of its message, not by its line.  `test_every_check_has_a_firing_test`
fails on a check with no entry and on an entry that names no check or no test.

The mutations of the checks no other test module reaches are tabled here,
in the style of `test_cli.py`'s failure branches: the sanity branches of
`hull`, the face counts of the Kostant polytope, dim sigma = |I| and the
poset's monotonicity.  Each entry is the object and attribute patched, the
patch built from the original, and the message expected at each point.

Run as a script (`python tests/test_theorem_checks.py`), it prints each check
with its registered tests and a tally.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import orbitope.cli
import orbitope.faces
import orbitope.polytope
import orbitope.strata
from orbitope.cli import RunConfig, run

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitope"
TESTS = Path(__file__).resolve().parent

A3, B3, D4 = ("A", 3, "1,0,1"), ("B", 3, "1,0,1"), ("D", 4, "1,1,1,1")
A4, F4, B3_REGULAR = ("A", 4, "0,1,1,0"), ("F", 4, "1,0,0,1"), ("B", 3, "1,1,1")


def _singular_nodes_in_j(saturate):
    """J also takes every singular node, so sigma outgrows I."""
    def patched(rs, x, I):
        i_prime, J = saturate(rs, x, I)
        return i_prime, tuple(sorted(set(J) | set(x.singular_set)))
    return patched


def _changing_faces_through_x(change):
    """A KostantPolytope built on the faces through x as `change` leaves them."""
    def patch(init):
        def patched(self, orbit, faces_through_x, *rest):
            faces = dict(faces_through_x)
            change(faces)
            init(self, orbit, faces, *rest)
        return patched
    return patch


def _drop_first_edge(faces):
    faces[1] = faces[1][1:]


def _drop_a_vertex_of_the_first_2_face(faces):
    first = faces[2][0]
    faces[2] = (first._replace(vertex_indices=first.vertex_indices[1:]),) + faces[2][1:]


def _drop_first_0_face(face_lattice):
    def patched(*args):
        lattice, masks = face_lattice(*args)
        return {**lattice, 0: lattice[0][1:]}, masks
    return patched


def _with_extra_ray(extra):
    """_dd_rays with one more ray, built from the rays it returns."""
    def patch(dd_rays):
        def patched(rows, n):
            rays = dd_rays(rows, n)
            return rays + [extra(rays)]
        return patched
    return patch


def _off_by_one_at_the_corner(matrix_op):
    """`matrix_op` with 1 added to entry [0][0] of the matrix it returns."""
    def patched(*args):
        rows = [list(row) for row in matrix_op(*args)]
        rows[0][0] += 1
        return tuple(map(tuple, rows))
    return patched


#: mutation -> (owner, attribute, patch of the original, {point: message})
_MUTATIONS = {
    "saturate puts the singular nodes into J": (
        orbitope.faces, "saturate", _singular_nodes_in_j,
        {A3: "dim sigma = 2 but |I| = 1", B3: "dim sigma = 2 but |I| = 1",
         A4: "dim sigma = 2 but |I| = 1", F4: "dim sigma = 3 but |I| = 1"}),
    "the figure finds no face": (
        orbitope.polytope.ExactPolytope, "find_face", lambda find: lambda self, vertices: None,
        {A3: "support set (0, 1, 2, 3) is not a face (bug)"}),
    "an edge through x is dropped": (
        orbitope.polytope.KostantPolytope, "__init__", _changing_faces_through_x(_drop_first_edge),
        {D4: "f-vector fails Euler-Poincare (bug)"}),
    "a 2-face through x loses a vertex": (
        orbitope.polytope.KostantPolytope, "__init__",
        _changing_faces_through_x(_drop_a_vertex_of_the_first_2_face),
        {D4: "face counts {0: 192, 1: 384, 2: 1232/5, 3: 48, 4: 1} are not integers (bug)"}),
    "double description adds a negated ray": (
        orbitope.polytope, "_dd_rays", _with_extra_ray(lambda rays: tuple(-c for c in rays[0])),
        {A3: "double description produced a cut inequality (bug)"}),
    "double description adds the sum of two rays": (
        orbitope.polytope, "_dd_rays", _with_extra_ray(
            lambda rays: orbitope.polytope.primitive([a + b for a, b in zip(*rays[:2])])),
        dict.fromkeys((A3, D4, F4), "a kept inequality of the hull is not a facet (bug)")),
    "rank is capped at 1": (
        orbitope.polytope, "int_rank", lambda rank: lambda rows: min(rank(rows), 1),
        {A3: "lifted cone is not pointed (bug)"}),
    "the normal conversion is off by one": (
        orbitope.polytope, "mat_mul", _off_by_one_at_the_corner,
        dict.fromkeys((A3, D4, B3_REGULAR), "facet normal conversion failed (bug)")),
    # read by the double description and by the normal conversion
    "the inverse is off by one": (
        orbitope.polytope, "inverse", _off_by_one_at_the_corner,
        dict.fromkeys((A3, D4, F4), "the double description left no vertex (bug)")),
    "the face lattice drops a vertex": (
        orbitope.polytope, "_face_lattice", _drop_first_0_face,
        {A3: "0-faces do not match the vertex set (bug)"}),
    # the lifted rows of A3's figure have length 3, its facet functionals 2
    "rank overcounts two lifted vertices": (
        orbitope.polytope, "int_rank",
        lambda rank: lambda rows: rank(rows) + (len(rows) == 2 and len(rows[0]) == 3),
        {A3: "face dimension disagrees with its vertex rank (bug)"}),
    "every face type has dimension 0": (
        orbitope.cli, "build_poset", lambda build: lambda cl: build(cl._replace(
            descriptors=tuple(d._replace(dim_face=0) for d in cl.descriptors))),
        {A3: "face dimension not strictly monotone along <"}),
    "every stratum has dimension 0": (
        orbitope.strata, "stratum_dim",
        lambda dims: lambda rs, d: orbitope.strata.StratumDims(stratum=0, base=0),
        {A3: "stratum dimension not strictly monotone along <"}),
}

_CASES = [(name, case) for name, entry in _MUTATIONS.items() for case in entry[3]]


def _case_id(name, case):
    return "%s-%s%d %s" % (name, case[0], case[1], case[2])


@pytest.mark.parametrize("name,case", _CASES, ids=[_case_id(*c) for c in _CASES])
def test_a_mutation_fires_its_check(monkeypatch, name, case):
    """verify-all on the mutated code exits 2 with the check's own line."""
    owner, attribute, patch, messages = _MUTATIONS[name]
    monkeypatch.setattr(owner, attribute, patch(getattr(owner, attribute)))
    type_label, rank, point = case
    assert run(RunConfig(command="verify-all", type_label=type_label, rank=rank,
                         point=tuple(point.split(",")), fmt="json")) \
        == (2, "theorem violation: %s\n" % messages[case])


def _here(name, case):
    return "test_theorem_checks.py::test_a_mutation_fires_its_check[%s]" % _case_id(name, case)


#: check (the string literals of its message, joined by " | ") -> its tests
REGISTRY = {
    # cli
    "integrality descent failed on face I=%s":
        ("test_cli.py::test_each_failed_cross_check_exits_2_with_its_message"
         "[integrality descent]",),
    # faces
    "canonical u does not expose conv(W_J.x) for I=%s: u.(v - x) > 0 at the neighbour v = %d":
        ("test_faces.py::test_a_mutated_canonical_u_exits_2[A3 1,0,1-negated]",),
    "J = Pi descriptor is not the top face | "
    "canonical u does not expose conv(W_J.x) for I=%s: it exposes %s, not %s":
        ("test_faces.py::test_a_w_pi_orbit_missing_a_vertex_is_not_the_top_face[A3 1,0,1]",
         "test_faces.py::test_a_w_j_orbit_shrunk_to_x_is_not_the_exposed_face[A3 1,0,1]"),
    "dim sigma = %d but |I| = %d":
        tuple(_here("saturate puts the singular nodes into J", c) for c in (A3, F4)),
    "Z_K(sigma-perp) root data disagrees with the descriptor (I=%s)":
        ("test_faces.py::test_a_stray_orthogonal_root_breaks_the_root_data_of_the_vertex"
         "[A3 1,0,1 alpha2]",),
    "the simple reflections stabilizing sigma are %s, not J=%s (I=%s)":
        ("test_faces.py::test_a_saturation_that_drops_i_prime_fails_the_stabilizer_of_sigma"
         "[A3 1,0,1]",),
    "two descriptors land in one polytope face class (phi not injective)":
        ("test_faces.py::test_a_repeated_x_connected_subset_leaves_phi_not_injective"
         "[A3 1,0,1]",),
    "descriptors do not exhaust the polytope face classes (phi not surjective)":
        ("test_faces.py::test_a_dropped_x_connected_subset_leaves_phi_not_surjective"
         "[A3 1,0,1]",),
    "face counts |W|/|W_J| by |I| are %s, but the f-vector is %s":
        ("test_faces.py::test_class_sizes_over_w_i_miss_the_f_vector[A3 1,0,1]",),
    "the least member %s of the class of I=%s is not a face":
        ("test_cli.py::test_a_failed_face_lookup_in_psi_phi_exits_2[A-3-point0]",),
    "psi(phi([F])) != [F] for I=%s":
        ("test_faces.py::test_a_psi_onto_the_vertex_class_breaks_the_round_trip[A3 1,0,1]",),
    # numeric
    "numeric verification failed for I=%s:\n  %s | \n  ":
        ("test_cli.py::test_each_failed_cross_check_exits_2_with_its_message[value gap]",),
    # polytope
    "face counts %s are not integers (bug)":
        (_here("a 2-face through x loses a vertex", D4),),
    "f-vector fails Euler-Poincare (bug)": (_here("an edge through x is dropped", D4),),
    "double description produced a cut inequality (bug)":
        (_here("double description adds a negated ray", A3),),
    "facet normal conversion failed (bug)":
        (_here("the normal conversion is off by one", A3),),
    "a kept inequality of the hull is not a facet (bug)":
        (_here("double description adds the sum of two rays", A3),),
    "0-faces do not match the vertex set (bug)": (_here("the face lattice drops a vertex", A3),),
    "the double description left no vertex (bug)":
        tuple(_here("the inverse is off by one", c) for c in (A3, D4, F4)),
    "lifted cone is not pointed (bug)": (_here("rank is capped at 1", A3),),
    "face dimension disagrees with its vertex rank (bug)":
        (_here("rank overcounts two lifted vertices", A3),),
    "x.x <= x.v at the orbit point %s: x is not a vertex (ext P = W.x failed)":
        ("test_cli.py::test_corrupted_generator_exits_2",),
    "vertex-figure certificate failed: the figure at x has dimension %d, not rank - 1 = %d":
        ("test_vertex_figure.py::test_a_neighbour_set_without_s1_x_fails_the_certificate"
         "[A-2-1,0-the figure at x has dimension 0, not rank - 1 = 1]",),
    "vertex-figure certificate failed: orbit point %d %s cuts the facet %s.v <= %s through x":
        ("test_vertex_figure.py::test_a_neighbour_set_without_s1_x_fails_the_certificate"
         "[A-3-1,0,1-cuts the facet]",),
    "support set %s is not a face (bug)": (_here("the figure finds no face", A3),),
    "group action left the faces it acts on (bug)":
        ("test_polytope.py::test_act_on_faces_rejects_images_outside_the_faces",),
    # roots
    "root closure exceeds %d roots: the Cartan matrix of %s%d is not of "
    "finite type (bug in realization)":
        ("test_cli.py::test_non_finite_cartan_matrix_exits_2",),
    # strata
    "face dimension not strictly monotone along <":
        (_here("every face type has dimension 0", A3),),
    "stratum dimension not strictly monotone along <":
        (_here("every stratum has dimension 0", A3),),
    # weyl
    "orbit closure has %d points, |W|/|W_S| = %d (bug)":
        ("test_cli.py::test_orbit_count_mismatch_exits_2",),
    "reflection image %s of x is not in W.x (bug)":
        ("test_weyl.py::test_a_reflection_image_missing_from_the_orbit_is_a_violation",),
}


def checks() -> list[tuple[str, int, str]]:
    """(module file, line, key) of every `raise TheoremViolationError(...)`
    in the package, the key being the string literals of its arguments in
    source order, joined by " | "."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "TheoremViolationError"):
                literals = sorted((n.lineno, n.col_offset, n.value)
                                  for arg in node.exc.args for n in ast.walk(arg)
                                  if isinstance(n, ast.Constant) and isinstance(n.value, str))
                found.append((path.name, node.lineno, " | ".join(v for _, _, v in literals)))
    return sorted(found)


def _test_names(module: str) -> set[str]:
    tree = ast.parse((TESTS / module).read_text())
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def _missing_tests() -> list[str]:
    """The registered test ids whose module or function does not exist."""
    missing = []
    for ids in REGISTRY.values():
        for test_id in ids:
            module, function = re.fullmatch(r"([\w.]+)::(\w+)(\[.*\])?", test_id).group(1, 2)
            if not (TESTS / module).exists() or function not in _test_names(module):
                missing.append(test_id)
    return missing


def test_every_check_has_a_firing_test():
    keys = [key for _, _, key in checks()]
    assert len(keys) == len(set(keys)), "two checks share a message"
    assert [key for key in keys if not REGISTRY.get(key)] == []
    assert sorted(set(REGISTRY) - set(keys)) == []
    assert _missing_tests() == []


def main() -> int:
    found = checks()
    for module, line, key in found:
        print("%s:%d  %s" % (module, line, key.replace("\n", "\\n")))
        for test_id in REGISTRY.get(key, ("NO TEST",)):
            print("    %s" % test_id)
    tested = sum(1 for _, _, key in found if REGISTRY.get(key))
    missing = _missing_tests()
    print("%d sites, %d with a test%s" % (len(found), tested,
                                          ", missing tests: %s" % missing if missing else ""))
    return 0 if tested == len(found) and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
