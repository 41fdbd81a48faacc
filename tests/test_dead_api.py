"""Guard against dead API: every module-level function, class and constant
in `src/qsc`, and every public method or property, must be referenced
somewhere in `src/qsc` or `tests/` besides its own definition and
`__all__`.

References are matched by name, read off the syntax tree.  A module-level
name counts as referenced when it is loaded, read as an attribute, or
spelled as a string constant (`getattr`, `monkeypatch.setattr`); a method
or property only when it is read as an attribute.  Attributes of imported
outside modules (`np.linalg.norm`) and imports themselves do not count, so
a name that is only imported and never used is still dead.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qsc").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _definitions(source: str):
    """(name, is_member) of every module-level function, class and
    constant, and of every public method or property of a class."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id, False


def _references(sources) -> tuple[Counter, Counter]:
    """Counts of (names loaded or spelled as strings, attributes read)."""
    names, attrs = Counter(), Counter()
    for source in sources:
        tree = ast.parse(source)
        outside = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if not alias.name.startswith("qsc")}
        in_all = {id(c) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  for c in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in outside):
                    attrs[node.attr] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in in_all):
                names[node.value] += 1
    return names, attrs


def _unreferenced(modules: dict[str, str], reference_sources) -> list[str]:
    """`module.name` of each definition in `modules` (name -> source) that
    `reference_sources` never reference."""
    names, attrs = _references(reference_sources)
    dead = []
    for module, source in modules.items():
        for name, is_member in _definitions(source):
            bare = name.rsplit(".", 1)[-1]
            if attrs[bare] + (0 if is_member else names[bare]) == 0:
                dead.append(f"{module}.{name}")
    return dead


def test_every_definition_is_referenced():
    sources = {path: path.read_text() for path in FILES}
    modules = {path.stem: sources[path] for path in SOURCES}
    dead = _unreferenced(modules, sources.values())
    assert not dead, f"defined but referenced nowhere: {dead}"


def test_guard_matching():
    defining = (
        'import numpy as np\n'
        '__all__ = ["ghost", "used"]\n'
        'LIMIT = 3\n'
        'def ghost():\n'
        '    return np.linalg.ghost\n'
        'def used():\n'
        '    return LIMIT\n'
        'class Box:\n'
        '    def size(self):\n'
        '        return 1\n'
        '    def spare(self):\n'
        '        spare = 2\n'
        '        return spare\n'
    )
    using = 'import qsc.mod as mod\nmod.used()\nBox().size()\ngetattr(mod, "Box")\n'
    # only in __all__, as an outside module's attribute, or as a local
    # variable: still unreferenced
    assert _unreferenced({"mod": defining}, [defining, using]) == ["mod.ghost", "mod.Box.spare"]
