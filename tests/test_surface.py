"""The library's public surface is what the program reaches.

Every public top-level function of `segre_syzygies` must be named, as a
name or an attribute read, somewhere in the package outside its own `def`:
a function that only tests call is not part of the program.  The
command-line front end and the `verify` gate count as callers.  Functions
registered by a decorator call (the gate's criteria) are reached through
the registry, so they are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import segre_syzygies

PACKAGE = Path(segre_syzygies.__file__).parent


def _references(node: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute under node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            refs[sub.attr] += 1
    return refs


def unreached_functions() -> list[str]:
    """`module.function` for each public top-level function no other code names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and not any(isinstance(dec, ast.Call) for dec in node.decorator_list)
                and refs[node.name] == _references(node)[node.name]
            ):
                unreached.append(f"{module}.{node.name}")
    return unreached


def test_every_public_function_is_reached_from_the_package():
    unreached = unreached_functions()
    assert not unreached, f"named by no code in the package: {unreached}"
