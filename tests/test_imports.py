"""What importing the package costs: the modules a CLI process loads, and the
names of the numeric check that resolve on first use."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import orbitope

_SCRIPT = """\
import sys
def loaded():
    print(*[m for m in ("dataclasses", "numpy", "numpy.ma", "numpy.random",
                        "orbitope.numeric") if m in sys.modules],
          sep=",", file=sys.stderr)
import orbitope.cli
loaded()
orbitope.cli.main(["verify-all", "--type", "D", "--rank", "4", "--point", "1,1,1,1"])
loaded()
orbitope.cli.main(["verify-all", "--type", "A", "--rank", "2", "--point", "1,1"])
loaded()
"""


def test_only_a_numeric_run_loads_numeric_and_numpy():
    """`import orbitope.cli` loads neither dataclasses, numpy nor `numeric`;
    a type D run still loads neither of the last two, a type A run both, but
    never `numpy.random` or `numpy.ma`: its Haar starts draw from the
    standard library, and its eigenspace blocks come without `np.unique`."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    lines = proc.stderr.splitlines()
    assert len(lines) == 3, proc.stderr
    after_import, after_d4, after_a2 = (set(filter(None, line.split(","))) for line in lines)
    assert after_import == set()
    assert not after_d4 & {"numpy", "orbitope.numeric"}
    assert after_a2 >= {"numpy", "orbitope.numeric"}
    assert "numpy.random" not in after_a2
    assert "numpy.ma" not in after_a2


def test_every_exported_name_resolves():
    for name in orbitope.__all__:
        assert getattr(orbitope, name) is not None, name
    from orbitope import AscentResult, ascend, numeric
    assert ascend is numeric.ascend
    assert AscentResult is numeric.AscentResult


def test_the_numeric_annotations_resolve():
    """The annotations of every public function and class of `numeric` name
    what its module binds, numpy's `np` included."""
    from orbitope import numeric
    public = [obj for name, obj in sorted(vars(numeric).items())
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == numeric.__name__]
    assert len(public) > 5
    for obj in public:
        typing.get_type_hints(obj)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orbitope.no_such_name
    with pytest.raises(ImportError):
        from orbitope import no_such_name  # noqa: F401


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports at module level and never reads; a name listed
    in its `__all__` counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read]


def test_every_module_level_import_is_read():
    package = Path(orbitope.__file__).resolve().parent
    unread = [entry for path in sorted(package.glob("*.py")) for entry in _unread_imports(path)]
    assert unread == []
