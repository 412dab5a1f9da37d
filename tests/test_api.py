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
import os
import subprocess
import sys
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


def test_no_module_but_kernels_reaches_a_private_kernel_name():
    """Every atom pass goes through the ``get_kernels()`` namespace.

    A module other than ``kernels.py`` may neither import a ``_name`` from
    ``kernels`` nor load one as ``kernels._name``.
    """
    private = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("kernels", "ofdma_sra.kernels")):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "kernels"):
                names = [node.attr]
            else:
                continue
            private += [f"{path.name}: {n}" for n in names if n.startswith("_")]
    assert not private, f"private kernel names outside kernels.py: {private}"


def is_scipy_stats(name: str) -> bool:
    return name == "scipy.stats" or name.startswith("scipy.stats.")


def test_no_module_imports_scipy_stats():
    """The atoms call the special functions behind ``scipy.stats.ncx2``
    directly; importing ``scipy.stats`` costs every process about half a
    second and 45 MB."""
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if is_scipy_stats(n)]
    assert not found, f"scipy.stats imports in the package: {found}"


def test_a_fresh_trial_loads_no_scipy_stats():
    code = """if True:
        import sys
        from ofdma_sra import ChannelConfig, ScenarioConfig, run_trial
        cfg = ScenarioConfig(channel=ChannelConfig(n_subchannels=4, n_users=2),
                             n_mcs=2, sweep_values=(-10.0,), n_trials=1,
                             n_atoms=4, subgradient_updates=2)
        assert run_trial(cfg, 0, 0)
        print(" ".join(sorted(sys.modules)))
    """
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    loaded_stats = [m for m in proc.stdout.split() if is_scipy_stats(m)]
    assert not loaded_stats, f"a trial loaded {loaded_stats}"
