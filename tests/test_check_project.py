"""The project graph: modules, cross-module resolution, one parse each."""

import ast
import collections
from pathlib import Path

import pytest

from repro.check.analyzer import (
    ImportMap,
    analyze_paths,
    analyze_project,
    iter_python_files,
)
from repro.check.project import Project

pytestmark = pytest.mark.check

SRC = Path(__file__).resolve().parent.parent / "src"


# -- module graph / cross-module resolution -----------------------------------

def test_project_indexes_modules_by_path_and_name():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    path = str(SRC / "repro" / "mplib" / "tcp_base.py")
    assert project.module_for_path(path) == "repro.mplib.tcp_base"
    assert project.source_for_path(path).startswith('"""')


def test_resolve_crosses_modules():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.tcp_base.TcpLibSpec")
    assert resolved is not None
    assert isinstance(resolved.node, ast.ClassDef)
    assert resolved.node.name == "TcpLibSpec"
    assert resolved.rest == ()


def test_resolve_returns_trailing_attribute_components():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.tcp_base.Route.DAEMON")
    assert resolved is not None
    assert isinstance(resolved.node, ast.ClassDef)
    assert resolved.rest == ("DAEMON",)


def test_resolve_follows_reexports():
    # repro.mplib/__init__ re-exports registry names; resolving through
    # the package path must land on the defining module.
    project = Project.from_paths([SRC / "repro" / "mplib"])
    resolved = project.resolve("repro.mplib.REGISTRY")
    if resolved is None:
        pytest.skip("repro.mplib does not re-export REGISTRY")
    assert resolved.ctx.module == "repro.mplib.registry"


def test_base_class_resolution_across_files():
    project = Project.from_paths([SRC / "repro" / "mplib"])
    path = str(SRC / "repro" / "mplib" / "tcp_base.py")
    ctx = next(m for m in project.modules if m.path == path)
    classdef = next(
        s
        for s in ctx.tree.body
        if isinstance(s, ast.ClassDef) and s.name == "TcpLibEndpoint"
    )
    resolved = project.resolve_base_class(ctx, classdef.bases[0])
    assert resolved is not None
    assert resolved.node.name == "LibEndpoint"
    assert resolved.ctx.module == "repro.mplib.base"


def test_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    project = Project.from_paths([bad])
    findings = analyze_project(project)
    assert [f.rule for f in findings] == ["parse-error"]


# -- one parse and one import map per file ------------------------------------

def test_each_file_is_parsed_once(monkeypatch):
    parses = collections.Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parses[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    project = Project.from_paths([SRC / "repro" / "check"])
    assert analyze_project(project) == []
    paths = {ctx.path for ctx in project.modules}
    assert project.stats.files == len(paths) > 0
    assert {path: parses[path] for path in paths} == dict.fromkeys(paths, 1)


def test_import_map_is_built_once_per_module(monkeypatch):
    built = collections.Counter()
    real_from_tree = ImportMap.from_tree.__func__

    def counting_from_tree(cls, tree):
        built[id(tree)] += 1
        return real_from_tree(cls, tree)

    monkeypatch.setattr(ImportMap, "from_tree", classmethod(counting_from_tree))
    assert analyze_paths([SRC]) == []
    modules = len(list(iter_python_files([SRC])))
    assert sum(built.values()) == modules
    assert set(built.values()) == {1}


def _full_walk_imports(tree):
    """Reference import map: every Import/ImportFrom via ast.walk."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


NESTED_IMPORTS = """\
import os
try:
    import numpy as np
except ImportError:
    import array as np
else:
    from json import dumps
finally:
    import gc
while False:
    pass
else:
    import io as os
match os:
    case _:
        from time import time
with open(os.devnull) as fh:
    from sys import argv
class Holder:
    import math
    def method(self):
        import time as clock
        lam = lambda: 1
"""


def test_import_map_finds_imports_in_every_statement_list():
    tree = ast.parse(NESTED_IMPORTS)
    names = ImportMap.from_tree(tree).names
    assert names == _full_walk_imports(tree)
    assert names["os"] == "io" and names["np"] == "array"
    assert {"dumps", "gc", "time", "argv", "math", "clock"} <= names.keys()


def test_import_map_matches_a_full_walk_on_the_repo():
    for path in iter_python_files([SRC, Path(__file__).resolve().parent]):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        assert ImportMap.from_tree(tree).names == _full_walk_imports(tree), path
