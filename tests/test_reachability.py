"""No definition in the package is reached only by the tests.

The roots are the console script's ``cli.main`` and every name read by
module-level code (outside any function or class body).  A definition
is a module-level function or class, or a method; it is reached when a
reached body reads its name, as a bare name or as an attribute.  Names
are matched by spelling alone, across modules, so the walk can only
over-reach: whatever it leaves out is read by nothing in the package.
Dunder methods are called by the interpreter, so they count as reached.
"""

import ast
from pathlib import Path

import wpposet

PACKAGE = Path(wpposet.__file__).parent


def _names(nodes):
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _definitions_and_roots():
    """({(module, qualified name): (name, names its body reads)}, roots)."""
    defs, roots = {}, {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # decorators and defaults run when the module loads
                roots |= _names(node.decorator_list + node.args.defaults
                                + node.args.kw_defaults)
                defs[module, node.name] = node.name, _names(node.body)
            elif isinstance(node, ast.ClassDef):
                roots |= _names(node.decorator_list + node.bases)
                attrs = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        roots |= _names(item.decorator_list
                                        + item.args.defaults)
                        body = _names(item.body)
                        if item.name.startswith("__"):
                            attrs.append(item)
                        else:
                            defs[module, f"{node.name}.{item.name}"] = (
                                item.name, body)
                    else:
                        attrs.append(item)
                defs[module, node.name] = node.name, _names(attrs)
            else:
                roots |= _names([node])
    return defs, roots


def unreached():
    defs, reached = _definitions_and_roots()
    pending = set(defs)
    while True:
        hit = {key for key in pending if defs[key][0] in reached}
        if not hit:
            return sorted(f"{m}.{q}" for m, q in pending)
        pending -= hit
        for key in hit:
            reached |= defs[key][1]


def test_every_definition_is_reached_from_the_package():
    assert unreached() == []
