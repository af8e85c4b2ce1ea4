"""Every module under ``src/repro`` is reachable from an entry point.

The entry points are the package itself and every module of
``repro.experiments`` (the CLI), ``repro.runtime`` (the serving stack)
and ``repro.lint`` (the verifier).  The walk follows static imports only,
parsed with :mod:`ast`, including function-local (lazy) imports, and
counts a module's parent packages as imported with it.  A module no entry
point reaches is kept alive by its own tests alone; this test names it so
it is deleted or wired in rather than left to rot.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT_PACKAGES = ("repro.experiments", "repro.runtime", "repro.lint")


def _module_index() -> dict[str, Path]:
    index = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        index[".".join(parts)] = path
    return index


def _with_parents(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _imports(name: str, path: Path, index: dict[str, Path]) -> set[str]:
    """Modules of ``index`` that ``name`` (at ``path``) imports statically."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            # ``from pkg import name`` imports pkg, and pkg.name when that
            # is a submodule rather than an attribute
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            found.update(m for m in _with_parents(target) if m in index)
    return found


def unreachable_modules() -> list[str]:
    index = _module_index()
    # a root package missing from the index fails the walk (KeyError)
    # instead of passing it with nothing walked
    roots = ["repro", *ROOT_PACKAGES] + [
        name for name in index if name.startswith(tuple(f"{p}." for p in ROOT_PACKAGES))
    ]
    seen: set[str] = set()
    stack = [m for root in roots for m in _with_parents(root)]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(_imports(name, index[name], index) - seen)
    return sorted(set(index) - seen)


def test_every_module_is_reachable_from_an_entry_point() -> None:
    dead = unreachable_modules()
    assert not dead, f"modules no entry point imports: {', '.join(dead)}"
