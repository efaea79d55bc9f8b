"""Every name a ctscreen module imports is used in that module."""

import ast
from pathlib import Path

import ctscreen

PACKAGE = Path(ctscreen.__file__).parent
# (module file, name): why the import stays although the module never uses it
KEPT = {
    ("cli.py", "write_pack"): "bench/spans.py traces write_pack under cli's name",
}


def _unused_imports(source):
    """Names bound by the source's imports (bar `from __future__`) that no
    expression of the source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    # equal, not a subset: a kept name that its module starts to use needs
    # no exception any more
    unused = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == set(KEPT), f"imported and never used: {sorted(unused)}"
