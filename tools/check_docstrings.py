#!/usr/bin/env python
"""Docstring style checker: a pydocstyle/ruff-``D`` subset, no dependencies.

The container has neither ``ruff`` nor ``pydocstyle``, so this implements
the handful of ``D`` rules the serving API is held to, over the AST:

* D100  public module has a docstring
* D101  public class has a docstring
* D102  public method has a docstring (``_private`` and dunders exempt)
* D103  public function has a docstring
* D210  no leading/trailing whitespace on the summary line
* D400  the summary line ends with a period
* D419  docstring is non-empty

Scope defaults to the public serving API (``src/repro/serve``, which
includes the speculative-decoding subsystem ``serve/spec.py`` and the
fault-tolerant replica pool ``serve/cluster.py``), the GPU latency models
(``src/repro/gpu``), and the fast kernel layer
(``src/repro/core/kernels.py``); pass paths to override:

    python tools/check_docstrings.py [path ...]

Exit status 0 when clean; 1 with one ``file:line: rule message`` per
violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_SCOPE = (
    "src/repro/serve",
    "src/repro/gpu",
    "src/repro/core/kernels.py",
    "src/repro/core/reference.py",
)


def is_public(name: str) -> bool:
    return not name.startswith("_")


def check_docstring(node, kind: str, name: str, errors: list, path: Path) -> None:
    docstring = ast.get_docstring(node, clean=False)
    line = getattr(node, "lineno", 1)
    if docstring is None:
        rule = {"module": "D100", "class": "D101", "method": "D102", "function": "D103"}[kind]
        errors.append(f"{path}:{line}: {rule} missing docstring in public {kind} {name}")
        return
    if not docstring.strip():
        errors.append(f"{path}:{line}: D419 docstring is empty in {kind} {name}")
        return
    summary = docstring.strip().splitlines()[0]
    first_raw = docstring.splitlines()[0]
    if first_raw != first_raw.strip() and first_raw.strip():
        errors.append(
            f"{path}:{line}: D210 whitespace around docstring summary in {kind} {name}"
        )
    if not summary.rstrip().endswith("."):
        errors.append(
            f"{path}:{line}: D400 summary line should end with a period in {kind} {name} "
            f"({summary[:50]!r})"
        )


def check_file(path: Path, errors: list) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    module_name = path.stem
    if is_public(module_name) or module_name == "__init__":
        check_docstring(tree, "module", module_name, errors, path)
    # Top-level declarations only: methods are handled with their class, and
    # nested helpers are implementation detail.
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and is_public(node.name):
            check_docstring(node, "class", node.name, errors, path)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name.startswith("_"):  # private and dunder methods
                        continue
                    check_docstring(item, "method", f"{node.name}.{item.name}", errors, path)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_public(node.name):
            check_docstring(node, "function", node.name, errors, path)


def main(argv) -> int:
    root = Path(__file__).resolve().parent.parent
    scopes = [Path(arg) for arg in argv[1:]] or [root / scope for scope in DEFAULT_SCOPE]
    errors: list = []
    checked = 0
    for scope in scopes:
        files = sorted(scope.rglob("*.py")) if scope.is_dir() else [scope]
        for file in files:
            checked += 1
            check_file(file, errors)
    for error in errors:
        print(error)
    if not errors:
        print(f"docstrings ok ({checked} files checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
