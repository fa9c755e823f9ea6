"""Switch off each guard of the package in turn and report the ones that no
test catches.

A guard is every ``raise`` statement and every ``bad(...)`` call in
``src/minibank``, and every entry of a residual dict passed to
``worst_residual``.  For each one the probe copies the repository to a
temporary directory once, switches the guard off there (a statement ``S``
becomes ``if False: S``, a residual ``r`` becomes ``0.0 * (r)``, so every
name the guard reads stays read), and runs the tier-1 suite with ``-x``.
A guard whose copy still passes is a survivor.  A full pass runs the suite
once per guard, so it takes minutes; it is not part of tier-1.

    python tools/guard_probe.py            # every guard
    python tools/guard_probe.py --list     # list the guards, run nothing
    python tools/guard_probe.py --only ledger.py:199
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "minibank"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_out",
                              ".benchmarks", "*.egg-info")


def _offset(lines: list[str], line: int, col: int) -> int:
    """Character offset of an AST (line, col) position; col counts UTF-8 bytes."""
    text = lines[line - 1]
    return sum(map(len, lines[:line - 1])) + len(text.encode()[:col].decode())


def guards(path: Path) -> list[tuple[int, str, int, int, str]]:
    """(line, kind, start, end, replacement) for every guard in one module."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    found = []

    def span(node):
        return (_offset(lines, node.lineno, node.col_offset),
                _offset(lines, node.end_lineno, node.end_col_offset))

    for node in ast.walk(ast.parse(source, str(path))):
        statement = None
        if isinstance(node, ast.Raise):
            statement, kind = node, "raise"
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "bad"):
            statement, kind = node, "bad"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "worst_residual" and isinstance(node.args[0], ast.Dict)):
            for name, value in zip(node.args[0].keys, node.args[0].values):
                start, end = span(value)
                found.append((value.lineno, f"residual {ast.literal_eval(name)}", start, end,
                              f"0.0 * ({source[start:end]})"))
        if statement is not None:
            start, end = span(statement)
            found.append((statement.lineno, kind, start, end,
                          f"if False: {source[start:end]}"))
    return sorted(found)


def run_tier1(tree: Path) -> tuple[bool, str]:
    """Run the tier-1 suite in ``tree`` with -x; (passed, first failure)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, (failed[0] if failed else done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="list the guards and exit")
    parser.add_argument("--only", action="append", default=[],
                        help="probe only this FILE:LINE (repeatable)")
    args = parser.parse_args(argv)

    found = [(path.name, *guard) for path in sorted((ROOT / PACKAGE).glob("*.py"))
             for guard in guards(path)]
    if args.only:
        found = [g for g in found if f"{g[0]}:{g[1]}" in args.only]
    if args.list:
        for name, line, kind, *_ in found:
            print(f"{name}:{line} {kind}")
        print(f"{len(found)} guards")
        return 0

    survivors = []
    with tempfile.TemporaryDirectory(prefix="guard-probe-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        for name, line, kind, start, end, replacement in found:
            module = tree / PACKAGE / name
            source = module.read_text()
            module.write_text(source[:start] + replacement + source[end:])
            try:
                passed, detail = run_tier1(tree)
            finally:
                module.write_text(source)
            where = f"{name}:{line} {kind}"
            print(f"{'SURVIVED' if passed else 'caught':8}  {where}  {detail}", flush=True)
            if passed:
                survivors.append(where)
    print(f"{len(found)} guards, {len(survivors)} survived")
    for where in survivors:
        print(f"  survivor: {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
