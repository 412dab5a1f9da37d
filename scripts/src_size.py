#!/usr/bin/env python3
"""Size of the package source: the measure of the "fewer paths, less code" aim.

    python3 scripts/src_size.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script.  Prints four lines
for the ``.py`` files under CHECKOUT's ``src/``:

* ``lines``: every line;
* ``code_lines``: the lines left after dropping blank lines, comment lines
  and docstrings.  Docstrings are found with ``ast``: a string-constant
  expression that opens a module, class or function body, over all the
  lines it spans.  A comment line is one whose first non-blank character
  is ``#`` outside any docstring;
* ``all``: the number of names in ``ofdma_sra.__all__``, read from the
  literal list in ``src/ofdma_sra/__init__.py`` without importing it;
* ``knobs``: the settings a run takes, from CHECKOUT's own package: the
  leaf fields of ``ScenarioConfig`` (a field that is itself a dataclass,
  such as ``ChannelConfig``, counted field by field) plus the options of
  the ``run`` subcommand.
"""

import argparse
import ast
import dataclasses
import sys
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def public_names(init: Path) -> int:
    for node in ast.parse(init.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return len(ast.literal_eval(node.value))
    raise ValueError(f"no __all__ list in {init}")


def leaf_fields(cls) -> int:
    hints = typing.get_type_hints(cls)
    return sum(leaf_fields(hints[f.name]) if dataclasses.is_dataclass(hints[f.name])
               else 1 for f in dataclasses.fields(cls))


def knobs(src: Path) -> int:
    sys.path.insert(0, str(src))
    from ofdma_sra.cli import build_parser
    from ofdma_sra.experiments import ScenarioConfig

    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = [action for action in commands.choices["run"]._actions
               if action.option_strings
               and not isinstance(action, argparse._HelpAction)]
    return leaf_fields(ScenarioConfig) + len(options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = (Path(argv[0]) if argv else ROOT) / "src"
    sources = [path.read_text() for path in sorted(src.rglob("*.py"))]
    print(f"lines: {sum(len(s.splitlines()) for s in sources)}")
    print(f"code_lines: {sum(code_lines(s) for s in sources)}")
    print(f"all: {public_names(src / 'ofdma_sra' / '__init__.py')}")
    print(f"knobs: {knobs(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
