"""Import boundary: no production module imports ``repro.core.reference``.

The literal-equation oracles in ``src/repro/core/reference.py`` exist for the
parity tests and benchmarks only; the production classes carry one
implementation per operation.  This scans every module of the package with
``ast`` and fails on any absolute or relative import of the reference module
from anywhere but the module itself.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

PACKAGE_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
REFERENCE = "repro.core.reference"


def module_name(path: Path) -> str:
    """Dotted module name of a file under ``src/repro``."""
    parts = ("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(source: str, module: str, is_package: bool) -> Iterator[str]:
    """Every dotted name an ``import`` statement in ``source`` may bind.

    Relative imports resolve against ``module``; ``from X import name`` yields
    both ``X`` and ``X.name`` since ``name`` may be a submodule.
    """
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            yield target
            yield from (f"{target}.{alias.name}" for alias in node.names)


def imports_reference(source: str, module: str, is_package: bool = False) -> bool:
    return any(
        name == REFERENCE or name.startswith(REFERENCE + ".")
        for name in imported_modules(source, module, is_package)
    )


def test_no_package_module_imports_the_reference_module():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = module_name(path)
        if module == REFERENCE:
            continue
        source = path.read_text(encoding="utf-8")
        if imports_reference(source, module, is_package=path.name == "__init__.py"):
            offenders.append(str(path.relative_to(PACKAGE_ROOT.parent)))
    assert not offenders, f"production modules import {REFERENCE}: {offenders}"


def test_scanner_catches_every_import_form():
    """The boundary check itself must see absolute, from- and relative imports."""
    for source, module, is_package in [
        ("import repro.core.reference", "repro.serve.shard", False),
        ("from repro.core.reference import loop_attention_matmul", "repro.models.inference", False),
        ("from repro.core import reference", "repro.serve.scheduler", False),
        ("from .reference import ReferenceTenderExecutor", "repro.core.executor", False),
        ("from . import reference", "repro.core", True),
        ("from ..core import reference", "repro.serve.engine", False),
        ("def f():\n    from repro.core.reference import dynamic_tender_matmul", "repro.gpu", True),
    ]:
        assert imports_reference(source, module, is_package), source
    assert not imports_reference("from repro.core import kernels", "repro.serve.shard")
    assert not imports_reference("from .kernels import paged_attention", "repro.core.executor")
