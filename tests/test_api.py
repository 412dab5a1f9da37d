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
"""

import ast
from pathlib import Path

import ofdma_sra

PACKAGE = Path(ofdma_sra.__file__).parent


def loaded_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


def test_every_public_name_is_used_by_the_package():
    public = set(ofdma_sra.__all__) - {"__version__"}
    unused = sorted(public - loaded_names())
    assert not unused, f"public names no package module uses: {unused}"
