"""Only formats.py decodes JSON.

Configs, class headers and point-set files all go through the one strict
reader in formats.py; this guard parses each module of the package and
fails on any other module that calls json.load or json.loads (or imports
either), so a second, looser reader cannot grow back unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thickvc"
DECODERS = {"load", "loads"}


def decoder_uses(tree: ast.Module) -> list[int]:
    """Lines that read json.load or json.loads, or import either."""
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in DECODERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if DECODERS & {alias.name for alias in node.names}:
                out.append(node.lineno)
    return out


def test_only_formats_decodes_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{line}"
        for path in modules
        if path.name != "formats.py"
        for line in decoder_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, found
    formats = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    assert decoder_uses(formats)
