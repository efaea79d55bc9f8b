"""Every name a ctscreen module imports is used in that module, every
exception class it defines is caught by name somewhere in the package,
every top-level function it defines is used by the package, and only the
command line imports the file codec `nifti_io`."""

import ast
import importlib
from pathlib import Path

import ctscreen

PACKAGE = Path(ctscreen.__file__).parent
# (module file, name): why the import stays although the module never uses it
KEPT = {
    ("cli.py", "write_pack"): "bench/spans.py traces write_pack under cli's name",
}
# (module file, function): why the package keeps a function it never calls
UNCALLED = {
    ("phantoms.py", "lung_phantom"): "the README quickstart makes its scans with it",
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


def _exception_classes_and_caught_names():
    """(every exception class a ctscreen module defines, as (module file,
    name); every name an `except` clause of the package names)."""
    defined, caught = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        if classes:  # __main__ has none, and importing it would run the CLI
            module = importlib.import_module(f"ctscreen.{path.stem}")
            defined.update((path.name, name) for name in classes
                           if issubclass(getattr(module, name), BaseException))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        caught.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        caught.add(name.attr)
    return defined, caught


def test_every_exception_class_is_caught_by_name():
    # a class no handler tells apart from its base is one more name to learn
    # for no change in behaviour: raise the base with the message instead
    defined, caught = _exception_classes_and_caught_names()
    idle = sorted((module, name) for module, name in defined if name not in caught)
    assert not idle, f"exception classes no except clause names: {idle}"


def _functions_and_references():
    """(every top-level function of a ctscreen module, as (module file, name);
    every name the package reads, outside the body of the function of that
    name, so a recursive call does not count)."""
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add((path.name, node.name))
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and owner.get(id(node)) != name:
                read.add(name)
    return defined, read


def test_every_function_is_used_by_the_package():
    # src/ holds the pipeline: a function only tests call belongs in tests/
    defined, read = _functions_and_references()
    unused = {(module, name) for module, name in defined if name not in read}
    assert unused == set(UNCALLED), f"functions the package never uses: {sorted(unused)}"


def _imported_modules(source):
    """Dotted names of the modules the source's imports load, and of the
    names they take from a module (a relative import's dots dropped)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def test_only_cli_imports_nifti_io():
    # the stages take and return plain arrays, so reading and writing scans
    # and masks stays with the command line, the one module that touches files
    importers = {path.name for path in sorted(PACKAGE.glob("*.py"))
                 if any("nifti_io" in name.split(".")
                        for name in _imported_modules(path.read_text(encoding="utf-8")))}
    assert importers == {"cli.py"}, f"modules that import nifti_io: {sorted(importers)}"
