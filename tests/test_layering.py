"""Import-layering contract of the package graph.

The analysis layers must not depend on the synthetic-traffic substrate:
no module under ``repro.core``, ``repro.filtering``, ``repro.jobs``,
``repro.stages``, or ``repro.sources`` may import ``repro.synthetic``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages that must stay free of repro.synthetic imports.
LAYERED_PACKAGES = ("core", "filtering", "jobs", "stages", "sources")


def synthetic_imports(path: Path):
    """All ``repro.synthetic`` imports (module-level or nested) in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.synthetic"):
                    offending.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("repro.synthetic"):
                offending.append((node.lineno, module))
    return offending


@pytest.mark.parametrize("package", LAYERED_PACKAGES)
def test_layer_does_not_import_synthetic(package):
    violations = []
    for path in sorted((SRC / package).rglob("*.py")):
        for lineno, module in synthetic_imports(path):
            violations.append(f"{path.relative_to(SRC.parent)}:{lineno} "
                              f"imports {module}")
    assert not violations, "\n".join(violations)
