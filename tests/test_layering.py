"""DESIGN.md's layering diagram, asserted on the import graph.

Each case runs in a fresh interpreter (this one has long since imported
everything): the public entry point must not drag the serving stack, the
CLI, the serving workers' BLAS cap or the frozen scalar references in, and
nothing below the serving layer may import the serving stack.  The core
session module is also checked statically, so an import deferred into a
function body cannot point up unseen.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPRO_MODULES = (
    "import json, sys\n"
    "{statement}\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
)


def modules_after(statement: str) -> list:
    """The ``repro*`` modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", _REPRO_MODULES.format(statement=statement)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_session_import_stays_below_serving():
    loaded = modules_after("import repro; from repro import Session")
    assert "repro.session" in loaded
    above = [
        name
        for name in loaded
        if name.startswith(("repro.serving", "repro.parallel"))
        or name in ("repro.cli", "repro.kernels.reference")
    ]
    assert above == []


@pytest.mark.parametrize(
    "package", ["repro.core", "repro.octree", "repro.network", "repro.kernels"]
)
def test_lower_layers_never_import_serving(package):
    loaded = modules_after(f"import {package}")
    assert package in loaded
    assert [name for name in loaded if name.startswith("repro.serving")] == []


def test_session_module_imports_nothing_from_serving():
    source = Path(__file__).resolve().parents[1] / "src" / "repro" / "session.py"
    imported = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro import serving`` names the package as an alias.
            imported.append(node.module)
            imported.extend(f"{node.module}.{a.name}" for a in node.names)
    assert "repro.core.engine" in imported
    assert [name for name in imported if name.startswith("repro.serving")] == []
