import ast
from pathlib import Path

import sarcsi

SRC = Path(sarcsi.__file__).resolve().parent


def private_imports(path: Path) -> set[tuple[str, str, str]]:
    """(module, imported module, name) of each private name path imports
    from sarcsi, the package named either relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level:
            if module.split(".")[0] != "sarcsi":
                continue
            module = module.removeprefix("sarcsi").lstrip(".")
        found |= {(path.stem, module, a.name) for a in node.names if a.name.startswith("_")}
    return found


def test_modules_share_no_private_names():
    # each concept lives in one module; reaching into another module's
    # private names means it lives in the wrong one
    found = set().union(*(private_imports(p) for p in SRC.glob("*.py")))
    assert found == set()


def test_layout_guard_sees_private_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .simulator import SpectrumGrid, _centred_ifft\n"
                    "from sarcsi.csi import _focus\nfrom numpy import _core\n")
    assert private_imports(path) == {("mod", "simulator", "_centred_ifft"),
                                     ("mod", "csi", "_focus")}
