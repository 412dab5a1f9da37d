"""The public names are the ones the package itself uses.

Every name in ``ofdma_sra.__all__`` (bar ``__version__``) must be loaded
somewhere in the package's own modules, outside ``__init__.py``: an
``ast.Name`` in Load context.  A definition alone does not count, so a
helper only tests call cannot sit in ``__all__``.

The check is by name, not by binding.  A local variable or parameter that
shares a public name's spelling counts as a use; ``goodput`` and
``lagrangian`` would have passed this way.  Attribute loads (``x.name``)
do not count, because field names such as ``total_power`` and
``lagrangian`` would pass the same way.

Methods get the same check through attribute loads: every public ``def``
in a package class body (properties and class methods included) must be
loaded as ``x.name`` in some package module.  This too is by spelling, so
a method that shares a name with a field another class reads would pass.
"""

import ast
from pathlib import Path

import ofdma_sra

PACKAGE = Path(ofdma_sra.__file__).parent


def package_trees():
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(), str(path))


def loaded(node_type, key) -> set[str]:
    return {key(node) for _, tree in package_trees() for node in ast.walk(tree)
            if isinstance(node, node_type) and isinstance(node.ctx, ast.Load)}


def public_methods() -> set[str]:
    methods = set()
    for path, tree in package_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update(f"{path.stem}.{cls.name}.{fn.name}"
                               for fn in cls.body
                               if isinstance(fn, ast.FunctionDef)
                               and not fn.name.startswith("_"))
    return methods


def test_every_public_name_is_used_by_the_package():
    public = set(ofdma_sra.__all__) - {"__version__"}
    unused = sorted(public - loaded(ast.Name, lambda node: node.id))
    assert not unused, f"public names no package module uses: {unused}"


def test_every_public_method_is_used_by_the_package():
    attrs = loaded(ast.Attribute, lambda node: node.attr)
    unused = sorted(m for m in public_methods()
                    if m.rsplit(".", 1)[1] not in attrs)
    assert not unused, f"public methods no package module uses: {unused}"
