"""Tests for the package's public surface."""
import ast
from pathlib import Path

import pytest

import tuckersearch


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tuckersearch import *", namespace)
    missing = [name for name in tuckersearch.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tuckersearch.__all__)) == len(tuckersearch.__all__)


def _imported_names(tree):
    """Names bound by the module-level imports, __future__ left out."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _declared_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(
    (Path(tuckersearch.__file__).parent).glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # an unused binding still shadows what a tracer or a monkeypatch wraps,
    # so a deletion that leaves its import behind is caught here
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree)
              if name not in used and name not in _declared_all(tree)]
    assert unused == []


def test_readme_library_example_runs(capsys):
    # the python block under README's "## Library" heading runs as written
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    status, f, grad_evals = capsys.readouterr().out.split()
    assert status == "converged"
    assert float(f) <= 1e-4 and int(grad_evals) > 0
