"""Guards against dead API.

Every module-level function, class and constant in `src/qsc`, and every
public method or property, must be referenced somewhere in `src/qsc` or
`tests/` besides its own definition.  And every module-level
definition must be reached from the command line: following name
references from `cli.main` through the module-level definitions of
`src/qsc` reaches it, so none is there for the tests alone.  Likewise
every public method or property must be read as an attribute somewhere in
`src/qsc`, not in the tests alone.  And every public field of a value type (the `__slots__` of a `_Frozen` class) must
be read as an attribute somewhere in `src/qsc`, so none is carried for the
tests alone.  And every parameter with a default of a module-level
function in `src/qsc` must be passed by some call in `src/qsc` or
`tests/`, so none is a setting that no caller sets; so must every
`_DEFAULTS` entry of a value type, by a call of its class or a
`_replace`.  And a value type is its `__slots__`, its `_DEFAULTS` and its
`__post_init__`: no `_Frozen` subclass defines `__init__`, and every
`_DEFAULTS` key is a public slot of its class.  And no module in
`src/qsc` declares `__all__`: the leading underscore alone says what is
public, so the two cannot disagree.

References are matched by name, read off the syntax tree.  A module-level
name counts as referenced when it is loaded, read as an attribute, or
spelled as a string constant (`getattr`, `monkeypatch.setattr`); a method
or property only when it is read as an attribute.  Attributes of imported
outside modules (`np.linalg.norm`) and imports themselves do not count, so
a name that is only imported and never used is still dead.  A call is
matched to a function by the bare name it calls (`f(...)` or `x.f(...)`);
it passes a parameter by keyword or by position, and a `**kwargs` (or, for
positional parameters, a `*args`) in it passes every parameter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qsc").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _module_definitions(tree: ast.Module):
    """(name, node) of every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id, node


def _definitions(source: str):
    """(name, is_member) of every module-level function, class and
    constant, and of every public method or property of a class."""
    for name, node in _module_definitions(ast.parse(source)):
        yield name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def _outside_modules(tree: ast.Module) -> set[str]:
    """The names that imported outside (non-qsc) modules are bound to."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if not alias.name.startswith("qsc")}


def _reads(node: ast.AST, outside: set[str]) -> tuple[Counter, Counter]:
    """Counts of (names loaded or spelled as strings, attributes read) in
    `node`."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in outside):
                attrs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names, attrs


def _references(sources) -> tuple[Counter, Counter]:
    """Counts of (names loaded or spelled as strings, attributes read)."""
    names, attrs = Counter(), Counter()
    for source in sources:
        tree = ast.parse(source)
        read_names, read_attrs = _reads(tree, _outside_modules(tree))
        names.update(read_names)
        attrs.update(read_attrs)
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


def _unread_members(modules: dict[str, str]) -> list[str]:
    """`module.Class.member` of each public method or property of a class
    in `modules` (name -> source) that no source in `modules` reads as an
    attribute."""
    _, attrs = _references(modules.values())
    return [f"{module}.{name}" for module, source in modules.items()
            for name, is_member in _definitions(source)
            if is_member and attrs[name.rsplit(".", 1)[-1]] == 0]


def _unreached(modules: dict[str, str], root: str) -> list[str]:
    """`module.name` of each module-level definition in `modules` (name ->
    source) that no chain of name references reaches from the definition
    `root`: a reached definition reaches every definition whose name its
    own node reads."""
    nodes, by_name = {}, {}
    for module, source in modules.items():
        tree = ast.parse(source)
        outside = _outside_modules(tree)
        for name, node in _module_definitions(tree):
            # a name bound twice reads what each of its nodes reads
            nodes.setdefault(f"{module}.{name}", []).append((node, outside))
            by_name.setdefault(name, set()).add(f"{module}.{name}")
    reached, todo = {root}, [root]
    while todo:
        read = set()
        for node, outside in nodes[todo.pop()]:
            names, attrs = _reads(node, outside)
            read |= names.keys() | attrs.keys()
        for name in read:
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(key)
    return [key for key in nodes if key not in reached]


# Run reports the experiments write whole, field by field (`_report_dict`).
WHOLE_REPORTS = {"RunReport", "ProbRunReport"}


def _value_types(tree: ast.Module):
    """(class node, its `__slots__` names, its `_DEFAULTS` keys) of each
    module-level `_Frozen` subclass."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef)
                and any(getattr(b, "id", None) == "_Frozen" for b in node.bases)):
            continue
        slots, defaults = [], []
        for item in node.body:
            name = getattr(getattr(item, "targets", [None])[0], "id", None)
            if name == "__slots__":
                slots = [c.value for c in item.value.elts]
            elif name == "_DEFAULTS":
                defaults = [k.value for k in item.value.keys]
        yield node, slots, defaults


def _unread_fields(modules: dict[str, str], exempt=frozenset()) -> list[str]:
    """`module.Class.field` of each public `__slots__` field of a `_Frozen`
    class in `modules` (name -> source), classes in `exempt` aside, that no
    source in `modules` reads as an attribute."""
    _, attrs = _references(modules.values())
    return [f"{module}.{node.name}.{name}" for module, source in modules.items()
            for node, slots, _ in _value_types(ast.parse(source)) if node.name not in exempt
            for name in slots if not name.startswith("_") and attrs[name] == 0]


def _constructor_faults(modules: dict[str, str]) -> list[str]:
    """`module.Class.__init__` of each `_Frozen` subclass in `modules` (name
    -> source) that defines one, and `module.Class._DEFAULTS[key]` of each
    default whose key is no public slot of its class."""
    faults = []
    for module, source in modules.items():
        for node, slots, defaults in _value_types(ast.parse(source)):
            if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                   for item in node.body):
                faults.append(f"{module}.{node.name}.__init__")
            faults += [f"{module}.{node.name}._DEFAULTS[{key!r}]" for key in defaults
                       if key not in slots or key.startswith("_")]
    return faults


def test_every_definition_is_referenced():
    sources = {path: path.read_text() for path in FILES}
    modules = {path.stem: sources[path] for path in SOURCES}
    dead = _unreferenced(modules, sources.values())
    assert not dead, f"defined but referenced nowhere: {dead}"


def test_guard_matching():
    defining = (
        'import numpy as np\n'
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
    # only as an outside module's attribute, or as a local variable: still
    # unreferenced
    assert _unreferenced({"mod": defining}, [defining, using]) == ["mod.ghost", "mod.Box.spare"]


def _declares_all(source: str) -> bool:
    """Whether a module binds `__all__` at its top level."""
    return any(isinstance(target, ast.Name) and target.id == "__all__"
               for node in ast.parse(source).body
               if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target]))


def test_no_module_declares_all():
    # the leading underscore is the one rule of what is public
    declaring = [path.stem for path in SOURCES if _declares_all(path.read_text())]
    assert not declaring, f"modules with an __all__ list: {declaring}"


def test_all_matching():
    assert _declares_all('__all__ = ["run"]\n')
    assert _declares_all('__all__: list = []\n__all__ += ["run"]\n')
    assert not _declares_all('def f():\n    __all__ = []\nNAMES = ["__all__"]\n')


def test_every_definition_is_reached_from_the_cli():
    modules = {path.stem: path.read_text() for path in SOURCES}
    unreached = _unreached(modules, "cli.main")
    assert not unreached, f"reached from no lab run, only from tests: {unreached}"


def test_reachability_matching():
    lab = (
        'import numpy as np\n'
        'from . import tools\n'
        'RUNNERS = {"run": "go"}\n'
        'def main():\n'
        '    return RUNNERS, tools.helper(np.spare)\n'
        'def go():\n'
        '    return Box()\n'
    )
    tools = (
        'LIMIT = 3\n'
        'def helper(x):\n'
        '    return x\n'
        'def spare():\n'
        '    return LIMIT\n'
        'class Box:\n'
        '    def size(self):\n'
        '        return SCALE\n'
        'SCALE = 2\n'
    )
    # reached through a constant's string, an attribute and a method body;
    # an outside module's attribute reaches nothing, and a definition only
    # an unreached one reads stays unreached
    assert _unreached({"lab": lab, "tools": tools}, "lab.main") == ["tools.LIMIT", "tools.spare"]


def test_every_member_is_read_in_the_program():
    modules = {path.stem: path.read_text() for path in SOURCES}
    unread = _unread_members(modules)
    assert not unread, f"methods or properties no program code reads: {unread}"


def test_member_matching():
    lab = (
        'import numpy as np\n'
        'class Box:\n'
        '    def size(self):\n'
        '        return 1\n'
        '    def trace(self):\n'
        '        return np.trace(self.size())\n'
        '    def spare(self):\n'
        '        return 2\n'
        '    def _hidden(self):\n'
        '        return 3\n'
    )
    tools = 'def use(box):\n    return box.size\n'
    # read as an attribute in the program counts; an outside module's
    # attribute of the same name does not, and a private method is not checked
    assert _unread_members({"lab": lab, "tools": tools}) == ["lab.Box.trace", "lab.Box.spare"]


def test_every_value_field_is_read():
    modules = {path.stem: path.read_text() for path in SOURCES}
    unread = _unread_fields(modules, WHOLE_REPORTS)
    assert not unread, f"value fields no program code reads: {unread}"


def test_value_types_have_one_constructor():
    modules = {path.stem: path.read_text() for path in SOURCES}
    faults = _constructor_faults(modules)
    assert not faults, f"value types that define their own constructor or default: {faults}"


def test_constructor_matching():
    types = (
        'class _Frozen:\n'
        '    __slots__ = ()\n'
        '    def __init__(self, *args):\n'
        '        pass\n'
        'class Step(_Frozen):\n'
        '    __slots__ = ("tau", "rate", "_cache")\n'
        '    _DEFAULTS = {"rate": 1.0, "_cache": 0, "width": 2}\n'
        'class Report(_Frozen):\n'
        '    __slots__ = ("whole",)\n'
        '    def __init__(self, whole):\n'
        '        pass\n'
        'class Plain:\n'
        '    def __init__(self):\n'
        '        pass\n'
    )
    # the base and a class that is no value type may define __init__; a
    # cache or an undeclared name is no field to default
    assert _constructor_faults({"types": types}) == [
        "types.Step._DEFAULTS['_cache']", "types.Step._DEFAULTS['width']",
        "types.Report.__init__"]


def test_field_matching():
    types = (
        'class _Frozen:\n'
        '    __slots__ = ()\n'
        'class Step(_Frozen):\n'
        '    __slots__ = ("tau", "rate", "_cache")\n'
        '    def __init__(self, tau, rate):\n'
        '        _setattr(self, "rate", rate)\n'
        'class Plain:\n'
        '    __slots__ = ("spare",)\n'
        'class Report(_Frozen):\n'
        '    __slots__ = ("whole",)\n'
    )
    use = 'def total(steps):\n    return sum(s.tau for s in steps)\n'
    # set through a string is not read; a cache, a class that is no value
    # type and an exempt report are not checked
    assert _unread_fields({"types": types, "use": use}, {"Report"}) == ["types.Step.rate"]


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position, field) of every parameter with a
    default of a module-level function, and of every `_DEFAULTS` field of a
    value type (its class as the function, its place among the public slots
    as the position, and field True); a keyword-only one has position
    None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield node.name, positional[i].arg, i, False
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None, False
    for node, slots, defaults in _value_types(tree):
        fields = [name for name in slots if not name.startswith("_")]
        for key in defaults:
            yield node.name, key, fields.index(key) if key in fields else None, True


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def _unpassed(modules: dict[str, str], call_sources) -> list[str]:
    """`module.function.parameter` of each defaulted parameter of a
    module-level function or value type in `modules` (name -> source) that
    no call in `call_sources` passes; a value type's field is also passed
    by a `_replace` that names it."""
    calls: dict[str, list[ast.Call]] = {}
    for source in call_sources:
        for sub in ast.walk(ast.parse(source)):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(sub)
    # a `_replace` sets a field by keyword, on a value of any type
    replaced = {k.arg for c in calls.get("_replace", ()) for k in c.keywords}
    return [f"{module}.{function}.{parameter}"
            for module, source in modules.items()
            for function, parameter, position, field in _defaulted_parameters(ast.parse(source))
            if not any(_passes(c, parameter, position) for c in calls.get(function, ()))
            and not (field and parameter in replaced)]


def test_every_defaulted_parameter_is_passed():
    sources = {path: path.read_text() for path in FILES}
    modules = {path.stem: sources[path] for path in SOURCES}
    unpassed = _unpassed(modules, sources.values())
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_parameter_matching():
    defining = (
        'def scan(grid, points=17, *, scale=1.0, floor=0.0):\n'
        '    return grid\n'
        'def fit(x, order=1, weight=None):\n'
        '    return x\n'
        'def spread(a, b=0):\n'
        '    return a\n'
        'def tag(label=""):\n'
        '    return label\n'
        'class Box:\n'
        '    def size(self, unit=1):\n'
        '        return unit\n'
        'class Step(_Frozen):\n'
        '    __slots__ = ("tau", "_cache", "rate", "label", "spare")\n'
        '    _DEFAULTS = {"rate": 1.0, "label": "", "spare": None}\n'
    )
    using = (
        'import qsc.mod as mod\n'
        'scan([0], 9)\n'
        'mod.scan([0], scale=2.0)\n'
        'fit(1, **{"weight": 2})\n'
        'spread(*[1, 2])\n'
        'Box().size()\n'
        'mod.Step(1.0, 2.0)\n'
        'step._replace(label="x")\n'
    )
    # passed by position, by keyword through an attribute, by **kwargs and
    # by *args; a keyword-only default that no call names stays unpassed,
    # and methods are not checked; a value type's default is passed by
    # position among its public slots (a cache takes none) or by a
    # `_replace`, which passes no function's parameter of the same name
    assert _unpassed({"mod": defining}, [defining, using]) == ["mod.scan.floor",
                                                               "mod.tag.label",
                                                               "mod.Step.spare"]
