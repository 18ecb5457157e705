"""Every name a module of the package imports is used in it, every private
name a module defines is used somewhere in the package, and neither importing
the package nor running its maps, exact checks, tropical limits or KS tests
loads scipy or mpmath; a Whittaker quadrature loads scipy.special, and
nothing loads scipy.stats or mpmath.  One function, polymer._collect_samples,
builds the lanes of every Monte Carlo check, one,
correspondences.counterexample, builds the counterexample of every exact
check, and one, correspondences.report, builds the report of every check.

An imported name counts as used when the module reads it anywhere in its
code (annotations included) or lists it in `__all__`.  A module-level private
function, class or constant counts as used when any module of the package
reads it, imports it or reads it as an attribute.  A module-level public one
counts as used when another module imports it by name (the re-export in
`__init__` counts), its own module reads it outside its own definition, or
any module reads it as an attribute; a local variable of the same spelling
in another module does not count.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gburge

SOURCES = sorted(Path(gburge.__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["math", "path"]


def _definitions(tree):
    """Module-level functions, classes and constants, with their defining nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _private_definitions(tree):
    """Module-level private functions, classes and constants, with their lines."""
    for name, node in _definitions(tree):
        if name.startswith("_"):
            yield name, node.lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _dead(trees):
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    dead = _dead(trees)
    assert not dead, f"private names nothing in the package uses: {', '.join(dead)}"


def test_the_scan_sees_a_dead_private_name():
    trees = {
        "a.py": ast.parse(
            "_LIMIT: int = 3\n_CACHE = {}\ndef _f():\n    return _CACHE\nclass _C: pass\n"
        ),
        "b.py": ast.parse("from .a import _f\n"),
    }
    assert _dead(trees) == ["a.py:1 _LIMIT", "a.py:5 _C"]


def _public_dead(trees):
    imported = {  # by a relative import, from within the package
        alias.name
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level for alias in node.names
    }
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    dead = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("_") or name in imported or name in attributes:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(
                isinstance(n, ast.Name) and n.id == name and not isinstance(n.ctx, ast.Store)
                and id(n) not in own
                for n in ast.walk(tree)
            ):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_every_public_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    dead = _public_dead(trees)
    assert not dead, f"public names nothing in the package uses: {', '.join(dead)}"


def test_the_scan_sees_a_dead_public_name():
    """A local of the same spelling in another module, a keyword argument or
    a self-reference in the name's own definition does not make a public name
    used; an import by name, a read in its own module or an attribute read
    anywhere does."""
    trees = {
        "a.py": ast.parse(
            "LIMIT = 3\nTABLE = {}\ndef f():\n    return f\ndef sigma():\n    pass\n"
            "def g():\n    return TABLE\nclass C: pass\nclass D: pass\n"
        ),
        "b.py": ast.parse(
            "from .a import LIMIT\nfrom . import a\ndef k(sigma):\n    return sigma + a.C\n"
            "k(D=1)\n"
        ),
    }
    assert _public_dead(trees) == ["a.py:3 f", "a.py:5 sigma", "a.py:7 g", "a.py:10 D"]


def _sites(trees, hit):
    """Where the package has a node for which hit(node) holds: one entry per
    node, the module and the chain of definitions around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append(".".join(scope))
            visit(child, scope)

    for module, tree in trees.items():
        visit(tree, [module.removesuffix(".py")])
    return found


def _callers(trees, name):
    """Where the package calls name(...), directly or as an attribute."""
    return _sites(trees, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    ))


def test_lanes_are_built_by_the_one_lane_driver():
    """Every Monte Carlo check splits its samples into blocks of lanes in one
    place, so one function of the package builds _Lanes."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sorted(set(_callers(trees, "_Lanes"))) == ["polymer._collect_samples"]


def test_the_scan_sees_a_second_lane_driver():
    trees = {
        "a.py": ast.parse(
            "def drive():\n    return [_Lanes(1, i) for i in range(2)]\n"
            "def laplace():\n    def draw():\n        return m._Lanes(0, 1)\n    return draw\n"
            "class K:\n    def f(self):\n        return _Lanes\n"
        ),
        "b.py": ast.parse("LANES = _Lanes(0, 0)\n"),
    }
    assert _callers(trees, "_Lanes") == ["a.drive", "a.laplace.draw", "b"]


def _input_dicts(trees):
    """Where the package writes a dict display with an "input" key."""
    return _sites(trees, lambda node: isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "input" for key in node.keys
    ))


def test_counterexamples_are_built_by_the_one_builder():
    """Every exact check reports a failure as the input and its detail, so
    one function of the package writes the "input" key."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _input_dicts(trees) == ["correspondences.counterexample"]


def test_the_scan_sees_a_second_counterexample_builder():
    trees = {
        "a.py": ast.parse(
            "def counterexample(w, **d):\n    return {'input': w, **d}\n"
            "def check(w):\n    def fail():\n        return [{'map': 1, 'input': w}]\n"
            "    return fail, {'inputs': w, **{'lhs': 1}}\n"
        ),
        "b.py": ast.parse("EMPTY = {'input': None}\n"),
    }
    assert _input_dicts(trees) == ["a.counterexample", "a.check.fail", "b"]


_REPORT_KEYS = ("pass", "test")


def _pass_dicts(trees):
    """Where the package writes a "pass" or "test" key: in a dict display, or
    by a subscript store such as report["pass"] = ok."""

    def hit(node):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            return False
        return any(isinstance(key, ast.Constant) and key.value in _REPORT_KEYS for key in keys)

    return _sites(trees, hit)


def test_reports_are_built_by_the_one_builder():
    """Every check reports in one schema, and its exit code is read from
    "pass", so one function of the package writes the "pass" and "test" keys."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _pass_dicts(trees) == ["correspondences.report"]


def test_the_scan_sees_a_second_report_builder():
    trees = {
        "a.py": ast.parse(
            "def report(t, **s):\n    return {'test': t, **s, 'pass': True}\n"
            "def corollary(x):\n    out = {'lhs': x}\n    out['pass'] = x < 1\n    return out\n"
            "def fine(x):\n    return {'tests': x, 'passes': x}, x['pass']\n"
        ),
        "b.py": ast.parse("def judge(r):\n    def inner():\n        return {'test': r}\n"),
    }
    assert _pass_dicts(trees) == ["a.report", "a.corollary", "b.judge.inner"]


_COLD_START = """
import json, sys
import gburge, gburge.cli
code = gburge.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(("scipy", "mpmath")))]))
"""


def _loaded_by(args):
    """The scipy and mpmath modules that gburge.cli.main(args) loads, run in a
    fresh interpreter, because the test modules themselves import scipy."""
    env = {**os.environ, "PYTHONPATH": str(Path(gburge.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    return loaded


def test_maps_and_verify_load_neither_scipy_nor_mpmath():
    """The tropical limit runs in the float log domain, so it loads neither."""
    for identity in ("thm3.2", "tropical-limit"):
        loaded = _loaded_by(["verify", "--identity", identity, "--trials", "2", "--seed", "1"])
        assert loaded == [], f"{identity} loaded without being used: {', '.join(loaded[:10])}"


@pytest.mark.parametrize("cmd", ["ks-zzstar", "lukacs"])
def test_ks_tests_load_no_scipy(cmd):
    loaded = _loaded_by(["polymer", "--cmd", cmd, "--alpha", "1,2", "--samples", "200", "--seed", "1"])
    assert loaded == [], f"loaded without being used: {', '.join(loaded[:10])}"


def test_quadrature_loads_scipy_special_but_not_scipy_stats():
    loaded = _loaded_by(["whittaker", "--cmd", "corollary", "--alpha", "1,1.5"])
    assert "scipy.special" in loaded
    stray = [m for m in loaded if m.startswith(("scipy.stats", "mpmath"))]
    assert not stray, f"loaded without being used: {', '.join(stray[:10])}"
