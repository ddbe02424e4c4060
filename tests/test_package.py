"""Tests for the package's public surface."""
from pathlib import Path

import tuckersearch


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tuckersearch import *", namespace)
    missing = [name for name in tuckersearch.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tuckersearch.__all__)) == len(tuckersearch.__all__)


def test_readme_library_example_runs(capsys):
    # the python block under README's "## Library" heading runs as written
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    status, f, grad_evals = capsys.readouterr().out.split()
    assert status == "converged"
    assert float(f) <= 1e-4 and int(grad_evals) > 0
