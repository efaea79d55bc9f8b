"""Only `cli` touches files: every other module works on bytes.

Within `cli`, files are read in `_read_bytes` and written in `_atomic_write`
alone, so every decoder takes the bytes of a file, never its path.
"""

import ast
from pathlib import Path

import ctscreen

PACKAGE = Path(ctscreen.__file__).parent
# calls that open or read or write a file by name
FILE_CALLS = {"open", "fdopen", "fromfile", "tofile",
              "read_bytes", "read_text", "write_bytes", "write_text"}


def _file_call_owners(source):
    """The top-level definition (or '' for module code) around each file call."""
    owners = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in FILE_CALLS:
                    owners.append(getattr(node, "name", ""))
    return owners


def test_only_cli_touches_files():
    for path in sorted(PACKAGE.glob("*.py")):
        owners = _file_call_owners(path.read_text(encoding="utf-8"))
        if path.name == "cli.py":
            assert set(owners) == {"_read_bytes", "_atomic_write"}, owners
        else:
            assert not owners, f"{path.name} touches files in {owners}"
