"""CLI behavior: reports, exit codes, determinism, caps."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitope.cli
import orbitope.numeric
import orbitope.polytope
from orbitope.cli import RunConfig, main, parse_config, run

_ROOT = Path(__file__).resolve().parents[1]


def _cfg(**kw):
    base = dict(command="faces", type_label="A", rank=2, point=("1", "1"), fmt="json")
    base.update(kw)
    return RunConfig(**base)


def test_faces_a2_regular_report():
    code, text = run(_cfg())
    assert code == 0
    report = json.loads(text)
    assert list(report) == ["root_system", "point", "polytope", "faces",
                            "bijection_verified", "poset_edges"]
    assert report["root_system"] == "A2"
    assert report["bijection_verified"] is True
    assert sum(1 for f in report["faces"] if not f["improper"]) == 3
    assert report["polytope"]["f_vector"] == [6, 6, 1]


def test_faces_report_row_contents():
    code, text = run(_cfg(command="faces", rank=4, point=("0", "5", "0", "0")))
    assert code == 0
    report = json.loads(text)
    rows = {tuple(f["I"]): f for f in report["faces"]}
    row = rows[("a1", "a2", "a3")]
    assert row["J"] == ["a1", "a2", "a3"]
    assert row["parabolic"]["levi_components"] == ["A3"]
    assert row["parabolic"]["ext_type"]["description"] == "Gr(2,4)"
    assert row["integral"] is True
    top = rows[("a1", "a2", "a3", "a4")]
    assert top["improper"] and top["parabolic"] is None


def test_invalid_pair_exits_1():
    code, text = run(_cfg(type_label="G", rank=3, point=("1", "1", "1")))
    assert code == 1
    assert "invalid pair" in text


def test_bad_point_exits_1():
    code, text = run(_cfg(point=("1", "x")))
    assert code == 1
    code, text = run(_cfg(point=("1", "-1")))
    assert code == 1


def test_weyl_cap_exits_1():
    code, text = run(_cfg(weyl_cap=5))
    assert code == 1
    assert "cap" in text


def test_weyl_cap_is_read_from_the_flag_only(capsys, monkeypatch):
    """An ORBITOPE_CAP in the environment caps nothing: only --weyl-cap does."""
    monkeypatch.setenv("ORBITOPE_CAP", "5")
    assert main(["verify-all", "--type", "A", "--rank", "2", "--point", "1,1"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_e6_verifies_under_default_caps():
    """Nothing enumerates W, so no default cap stands between E6 and a result."""
    code, text = run(_cfg(command="verify-all", type_label="E", rank=6,
                          point=("1", "0", "0", "0", "0", "0")))
    assert code == 0, text
    assert json.loads(text)["bijection_verified"] is True


def test_e8_orbit_above_the_orbit_cap_exits_1():
    code, text = run(_cfg(command="verify-all", type_label="E", rank=8,
                          point=("0",) * 7 + ("1",)))
    assert code == 1
    assert text == "error: the orbit W.x has 240 points, the orbit cap is 200\n"


def test_polytope_command():
    code, text = run(_cfg(command="polytope"))
    assert code == 0
    report = json.loads(text)
    assert report["polytope"]["n_vertices"] == 6
    assert len(report["polytope"]["vertices"]) == 6
    assert "faces" not in report


def test_integrality_command_sections():
    code, text = run(_cfg(command="integrality", point=("1/2", "0")))
    assert code == 0
    report = json.loads(text)
    assert report["integrality"]["integral"] is False
    assert any(r["knapp"] == "1/2" for r in report["integrality"]["pairings"])


def test_verify_numeric_requires_type_a():
    code, text = run(_cfg(command="verify-numeric", type_label="B", point=("1", "1")))
    assert code == 1


def test_verify_numeric_rejects_non_a_before_classifying(capsys, monkeypatch):
    """A non-A verify-numeric run is an input error found from the type
    alone, before any face is classified."""
    def unreachable(*args, **kwargs):
        raise AssertionError("classify_faces was called")

    monkeypatch.setattr(orbitope.cli, "classify_faces", unreachable)
    line = _exits_1_with_one_error_line(
        capsys, ["verify-numeric", "--type", "B", "--rank", "2", "--point", "1,1"])
    assert line == "error: numeric verification is realized for type A only"


def test_unattainable_tolerance_exits_2(monkeypatch):
    """A forced cross-check failure must surface as the theorem-violation code."""
    monkeypatch.setattr(orbitope.numeric, "_GRAD_TOL", 1e-31)
    code, text = run(_cfg(command="verify-numeric", numeric_faces=1))
    assert code == 2
    assert "theorem violation" in text


def _replacing(**fields):
    """A patch: the original callable, its NamedTuple result with some fields
    replaced."""
    return lambda original: lambda *args, **kw: original(*args, **kw)._replace(**fields)


def _changing_ascent(change):
    """A patch of `numeric.ascend`: its result changed by change(result, x0)."""
    return lambda original: lambda x0, *args, **kw: change(original(x0, *args, **kw), x0)


#: per failure branch of the numeric and integrality checks: the name
#: patched in `numeric` (in `cli` for `induce_face_weight`), the patch as a
#: function of the original, and the line the failure must print
_FAILURE_BRANCHES = {
    "value gap": ("ascend", _changing_ascent(lambda r, x0: r._replace(values=r.values + 1.0)),
                  "seed 0: value gap 1.00e+00 > 1e-08"),
    # pulled toward the centre by 1e-7: off the plane, still near a vertex
    "off the plane": ("ascend",
                      _changing_ascent(lambda r, x0: r._replace(points=r.points * (1 - 1e-7))),
                      "seed 0: maximizer shadow is not on the supporting hyperplane"),
    "no orbit point": ("_ROUND_TOL", lambda original: -1.0,
                       "seed 0: maximizer does not round to an orbit point"),
    # every maximizer moved to the lowest vertex, x0 with its diagonal reversed
    "outside sigma": ("ascend", _changing_ascent(lambda r, x0: r._replace(
        points=np.array([np.diag(np.diagonal(x0)[::-1])] * len(r.values)))),
                      "seed 0: maximizer rounds to vertex 0 outside sigma"),
    "positive Hessian blocks": ("hessian_signature", _replacing(is_max=False),
                                "Hessian on sigma vertex has positive blocks"),
    "finite differences": ("_FD_TOL", lambda original: -1.0,
                           "Hessian finite-difference error 2.50e-07 > -1e+00"),
    "integrality descent": ("induce_face_weight", _replacing(is_integral=False),
                            "integrality descent failed on face I=(0,)"),
}


@pytest.mark.parametrize("branch", sorted(_FAILURE_BRANCHES))
def test_each_failed_cross_check_exits_2_with_its_message(branch, monkeypatch):
    """A2 (1,1): every failed check of the su(n) and integrality
    cross-checks is exit 2 with its own line."""
    name, patch, line = _FAILURE_BRANCHES[branch]
    module = orbitope.cli if name == "induce_face_weight" else orbitope.numeric
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    code, text = run(_cfg(command="verify-all", numeric_faces=1))
    assert code == 2
    assert text.startswith("theorem violation: ") and line in text, text


def test_a_run_draws_the_numeric_start_points_once(monkeypatch):
    """Every numeric face of a run ascends from one draw of the seeds' Haar
    start points."""
    draws = []
    original = orbitope.numeric.haar_starts
    monkeypatch.setattr(orbitope.numeric, "haar_starts",
                        lambda *args: draws.append(args) or original(*args))
    code, text = run(_cfg(command="verify-numeric", rank=3, point=("1", "1", "1")))
    assert code == 0
    assert len(json.loads(text)["numeric"]["faces"]) == 5
    assert len(draws) == 1


@pytest.mark.parametrize("command", ["verify-all", "verify-numeric"])
def test_every_numeric_face_runs_20_seeds(command):
    """The seed count is a constant of the check: 20 ascents per face."""
    code, text = run(_cfg(command=command, rank=3, point=("1", "1", "1")))
    assert code == 0
    assert [f["n_seeds"] for f in json.loads(text)["numeric"]["faces"]] == [20] * 5


@pytest.mark.parametrize("type_label,rank,point", [
    ("A", 3, ("1", "1", "1")), ("B", 3, ("1", "0", "1")), ("D", 4, ("1", "1", "1", "1"))])
def test_a_failed_face_lookup_in_psi_phi_exits_2(monkeypatch, type_label, rank, point):
    """An element taking x to vertex 0 with the images of x and of the next
    vertex swapped sends some class's least member off the faces: the psi.phi
    round trip reports it as a theorem violation, not as an input error."""
    original = orbitope.polytope.KostantPolytope.x_to_vertex_0.func

    def swapped(poly):
        image = list(original(poly))
        x, y = poly.x_index, (poly.x_index + 1) % len(image)
        image[x], image[y] = image[y], image[x]
        return tuple(image)

    monkeypatch.setattr(orbitope.polytope.KostantPolytope, "x_to_vertex_0", property(swapped))
    code, text = run(_cfg(command="verify-all", type_label=type_label, rank=rank, point=point))
    assert code == 2
    assert text.startswith("theorem violation: the least member ") and "is not a face" in text


def test_verify_all_non_a_omits_numeric():
    code, text = run(_cfg(command="verify-all", type_label="B", point=("1", "1")))
    assert code == 0
    report = json.loads(text)
    assert "numeric" not in report
    assert report["bijection_verified"] is True


def test_verify_all_json_deterministic_and_roundtrips():
    cfg = _cfg(command="verify-all")
    code1, t1 = run(cfg)
    code2, t2 = run(cfg)
    assert code1 == code2 == 0
    assert t1 == t2
    assert json.dumps(json.loads(t1), indent=2) + "\n" == t1


def test_text_format_and_seed_flag():
    code, text = run(_cfg(fmt="text"))
    assert code == 0
    assert "verdict: PASS" in text
    assert "bijection    verified" in text


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, text = run(_cfg(out=str(path)))
    assert code == 0 and text == ""
    assert json.loads(path.read_text())["root_system"] == "A2"


def test_main_exit_codes(capsys):
    assert main(["faces", "--type", "A", "--rank", "2", "--point", "1,1"]) == 0
    capsys.readouterr()
    assert main(["faces", "--type", "G", "--rank", "3", "--point", "1,1,1"]) == 1
    assert main(["faces", "--type", "A", "--rank", "2"]) == 1  # missing --point
    capsys.readouterr()


def _exits_1_with_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


_A2 = ["verify-all", "--type", "A", "--rank", "2", "--point", "1,1"]


def test_numeric_seeds_flag_is_gone_exits_1(capsys):
    """The seed count is no setting: the old flag is an unknown argument."""
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--numeric-seeds", "4"])
    assert line == "error: unrecognized arguments: --numeric-seeds 4"


def test_negative_orbit_cap_exits_1(capsys):
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--orbit-cap", "-1"])
    assert "--orbit-cap" in line


def test_negative_weyl_cap_exits_1(capsys):
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--weyl-cap", "-5"])
    assert "--weyl-cap" in line


def test_negative_numeric_faces_exits_1(capsys):
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--numeric-faces", "-1"])
    assert "--numeric-faces" in line


def test_negative_seed_exits_1(capsys):
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--seed", "-1"])
    assert "--seed" in line
    numeric = ["verify-numeric"] + _A2[1:]
    assert "--seed" in _exits_1_with_one_error_line(capsys, numeric + ["--seed", "-1"])


@pytest.mark.parametrize("flag", ["--grad-tol", "--value-tol", "--crit-tol", "--fd-tol"])
def test_tolerance_flags_are_not_accepted(capsys, flag):
    """The numeric tolerances are fixed: no flag sets them."""
    line = _exits_1_with_one_error_line(capsys, _A2 + [flag, "1e-8"])
    assert flag in line


@pytest.mark.parametrize("command", ["verify-all", "verify-numeric"])
def test_point_beyond_float_range_exits_1(capsys, command):
    line = _exits_1_with_one_error_line(
        capsys, [command, "--type", "A", "--rank", "2", "--point", "1,1e400"])
    assert "float range" in line


def test_out_into_missing_directory_exits_1(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    line = _exits_1_with_one_error_line(capsys, _A2 + ["--out", str(path)])
    assert str(path) in line
    assert not path.exists()


@pytest.mark.parametrize("type_label,rank,point,weyl_cap", [
    ("D", 5, "0,1,0,0,1", 2000), ("E", 6, "1,0,0,0,0,0", 60000)])
def test_branched_diagrams_verify(type_label, rank, point, weyl_cap):
    """Faces whose I has a D or E component number their marked nodes by index."""
    code, text = run(_cfg(command="verify-all", type_label=type_label, rank=rank,
                          point=tuple(point.split(",")), weyl_cap=weyl_cap))
    assert code == 0, text
    report = json.loads(text)
    assert report["bijection_verified"] is True
    branched = [c for f in report["faces"] if f["parabolic"]
                for c in f["parabolic"]["ext_type"]["components"] if c["type"][0] in "DE"]
    assert branched


def test_corrupted_generator_exits_2(monkeypatch):
    """A label step s_i that applies s_(i+1) closes a wrong orbit, on which
    an orbit point lies no lower than x: an internal cross-check failure,
    exit 2, not 1."""
    from orbitope import weyl
    original = weyl._reflect_labels
    monkeypatch.setattr(weyl, "_reflect_labels",
                        lambda cartan, i, labels: original(cartan, (i + 1) % len(labels), labels))
    code, text = run(_cfg())
    assert code == 2
    assert text == ("theorem violation: x.x <= x.v at the orbit point (2,0,-2): x is not a "
                    "vertex (ext P = W.x failed)\n")


def test_orbit_count_mismatch_exits_2(monkeypatch):
    """An orbit closure whose size is not |W| / |W_S| is a bug: exit 2."""
    from orbitope.weyl import WeylGroup
    original = WeylGroup.orbit_size
    monkeypatch.setattr(WeylGroup, "orbit_size", lambda self, x: original(self, x) + 1)
    code, text = run(_cfg(command="verify-all"))
    assert code == 2
    assert text == "theorem violation: orbit closure has 6 points, |W|/|W_S| = 7 (bug)\n"


def test_orbit_cap_exits_1_before_the_orbit_is_closed(capsys):
    """The closed-form |W.x| = 4032 is compared with --orbit-cap first, with
    a message that names the orbit."""
    code = main(["verify-all", "--type", "E", "--rank", "7", "--point", "1,1,0,0,0,0,0",
                 "--weyl-cap", "1000000000"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: the orbit W.x has 4032 points, the orbit cap is 200\n"


def test_a2_with_eigenvalue_gaps_1_and_1e8_never_exits_2():
    """A2 (1, 1e8): the su(n) check's bounds scale with x, so the run passes,
    or stops with an input error that is true: a unitary conjugate of x0 is
    skew-Hermitian and traceless up to rounding at the size of x0, and the
    gap ratio 1e8 + 1 is past the one the check resolves."""
    code, text = run(_cfg(command="verify-all", point=("1", "100000000")))
    assert code in (0, 1), text
    if code == 1:
        assert "not skew-Hermitian" not in text and "not traceless" not in text, text
    else:
        report = json.loads(text)
        assert report["bijection_verified"] is True
        assert all(f["n_converged"] == f["n_seeds"] for f in report["numeric"]["faces"])


@pytest.mark.parametrize("point", [("1", "10000000000"), ("1000000", "1/10000")])
@pytest.mark.parametrize("seed", [0, 3])
def test_a2_with_gap_ratio_1e10_exits_1_not_2(point, seed):
    """Eigenvalue gaps 1e10 apart: the float ascent cannot resolve the small
    root plane beside the large one, so the su(n) check refuses the point
    as input it does not resolve (exit 1) instead of failing a seed (exit 2)."""
    code, text = run(_cfg(command="verify-all", point=point, seed=seed))
    assert (code, text) == (1, "error: the su(n) check does not resolve this Cartan vector: "
                               "its entries spread over more than 1e+07 times their smallest "
                               "gap\n")


def test_non_finite_cartan_matrix_exits_2(monkeypatch):
    """Simples with the affine Cartan matrix [[2,-2],[-2,2]] generate infinitely
    many reflection images: the root closure stops and exits 2, not hangs."""
    from orbitope import roots
    from orbitope.linalg import vec
    monkeypatch.setattr(roots, "_simple_root_realization",
                        lambda type_label, rank: (2, (vec([1, 0]), vec([-1, 0]))))
    code, text = run(_cfg())
    assert code == 2
    assert "not of finite type" in text


def test_verify_all_never_enumerates_the_group(monkeypatch):
    """W acts only on Dynkin labels: the ambient reflection never runs, not
    even per generator."""
    from orbitope.roots import RootSystem
    from orbitope.weyl import WeylGroup
    assert not hasattr(WeylGroup, "elements")
    calls = []
    original = RootSystem.reflect

    def counted(alpha, v):
        calls.append(v)
        return original(alpha, v)

    monkeypatch.setattr(RootSystem, "reflect", staticmethod(counted))
    for type_label, rank, point in (("A", 3, "1,1,1"), ("D", 4, "1,1,1,1")):
        calls.clear()
        code, text = run(_cfg(command="verify-all", type_label=type_label, rank=rank,
                              point=tuple(point.split(","))))
        assert code == 0, text
        assert json.loads(text)["bijection_verified"] is True
        assert calls == []


def test_runs_without_the_numeric_check_do_not_import_numpy():
    """Only the su(n) cross-check needs numpy; a type B run never loads it."""
    script = ("import sys\n"
              "from orbitope.cli import main\n"
              "code = main(['verify-all', '--type', 'B', '--rank', '2', '--point', '1,1'])\n"
              "print(code, 'numpy' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr.split()[-2:] == ["0", "False"], proc.stderr


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    """Only the process entry freezes the heap; `main` called in process
    leaves the collector's permanent generation as it was."""
    before = gc.get_freeze_count()
    assert main(["verify-all", "--type", "B", "--rank", "2", "--point", "1,1"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv,expected_code,expected_text", [
    (["verify-all", "--type", "D", "--rank", "4", "--point", "1,1,1,1", "--format", "json"],
     0, '"bijection_verified": true'),
    (["verify-all", "--type", "A", "--rank", "3", "--point", "1,2"],
     1, "expected 3 coordinates for A3, got 2")])
def test_the_process_entry_prints_what_run_returns(argv, expected_code, expected_text):
    """`python -m orbitope.cli` goes through `entry()`: the same stdout,
    stderr and exit code as `run` in process."""
    code, text = run(parse_config(argv))
    assert code == expected_code and expected_text in text
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "orbitope.cli"] + argv, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == ((text.encode(), b"") if code == 0 else
                                          (b"", text.encode()))


def test_the_console_script_is_the_process_entry():
    """`orbitope` and `python -m orbitope.cli` share `entry()`."""
    text = (_ROOT / "pyproject.toml").read_text()
    assert 'orbitope = "orbitope.cli:entry"' in text.splitlines()
