#!/usr/bin/env python3
"""Count the settable values of the imported ``pirep`` package.

Three parts, each listed and totalled:

* defaulted parameters of public functions, constructors and public
  methods of public classes, read from the package source;
* defaulted fields of dataclasses;
* the arguments of each CLI subcommand, as ``cli.build_parser()``
  defines them (``--help`` excluded), counted once per subcommand.

Usage:
    PYTHONPATH=src python scripts/settable_values.py

The package counted is the one ``import pirep`` finds, so pointing
PYTHONPATH at another checkout's ``src`` counts that checkout.
"""

import argparse
import ast
import pathlib

import pirep
from pirep import cli


def _defaults(fn: ast.FunctionDef) -> list:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def source_parts(package_dir: pathlib.Path):
    """(parameters, fields): lists of 'module.qualname(name)' entries."""
    params, fields = [], []
    for path in sorted(package_dir.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params += [f"{module}.{node.name}({a})" for a in _defaults(node)]
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                    params += [f"{module}.{node.name}.{item.name}({a})" for a in _defaults(item)]
                if _is_dataclass(node) and isinstance(item, ast.AnnAssign) and item.value is not None:
                    fields.append(f"{module}.{node.name}.{item.target.id}")
    return params, fields


def cli_arguments() -> list:
    """'subcommand --flag' entries, one per argument per subcommand."""
    out = []
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for arg in sub._actions:
                    if not isinstance(arg, argparse._HelpAction):
                        out.append(f"{name} {arg.option_strings[0] if arg.option_strings else arg.dest}")
    return out


def main() -> int:
    params, fields = source_parts(pathlib.Path(pirep.__file__).parent)
    parts = [
        ("defaulted parameters", params),
        ("defaulted dataclass fields", fields),
        ("CLI arguments", cli_arguments()),
    ]
    for title, entries in parts:
        print(f"# {title}: {len(entries)}")
        for entry in entries:
            print(f"  {entry}")
    for title, entries in parts:
        print(f"{title}: {len(entries)}")
    print(f"total: {sum(len(entries) for _, entries in parts)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
