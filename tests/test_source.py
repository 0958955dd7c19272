"""Checks on the source itself: what it imports, and that each of its
top-level names is used by the program or the benchmark, not only by tests."""

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import beatmix
from beatmix import errors

SRC = Path(beatmix.__file__).parent
ROOT = SRC.parent.parent


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(path):
    """(line, module) of each absolute import in ``path``."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_are_stdlib_or_numpy():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _imports(path)
        if name.partition(".")[0] not in {"numpy", *sys.stdlib_module_names}
    ]
    assert foreign == []
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_wavs_are_hashed_in_one_place():
    # a WAV is read and hashed only by the fingerprint store, and the codec
    # hashes its own payload
    hashing = [path.stem for path in sorted(SRC.glob("*.py"))
               if any(name == "hashlib" for _, name in _imports(path))]
    assert hashing == ["codec", "manifest"]


def test_no_module_loads_a_shared_library_by_hand():
    loading = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
               for line, name in _imports(path) if name.partition(".")[0] == "ctypes"]
    assert loading == []


def _referenced_names(node):
    """Every name, attribute and imported name that ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def unused_top_level_names(paths):
    """``module.name`` of each top-level function and class in ``src/beatmix``
    that no top-level statement of ``paths``, other than its own definition,
    refers to."""
    defined, used_by = [], defaultdict(set)
    for path in paths:
        for statement in _parse(path).body:
            owner = (path, statement.lineno)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == SRC:
                    defined.append((owner, f"{path.stem}.{statement.name}", statement.name))
            for name in _referenced_names(statement):
                used_by[name].add(owner)
    return [label for owner, label, name in defined if not used_by[name] - {owner}]


def test_every_top_level_name_is_used_outside_the_tests():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert unused_top_level_names(paths) == []


def test_the_readme_lists_every_error_class_as_what_analysis_error_holds():
    # a class exists only where its name is output: analyze's analysis_error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    analyze = readme.split("* **analyze**", 1)[1].split("\n* **", 1)[0]
    sentence = re.search(r"`analysis_error` holds[^.]*\.", analyze).group()
    listed = set(re.findall(r"`([A-Z]\w+)`", sentence))
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.InputError)}
    assert listed == defined
