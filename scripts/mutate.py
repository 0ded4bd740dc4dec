#!/usr/bin/env python3
"""Mutation check: apply one-line mutants to named functions and report
the ones the Tier-1 tests do not kill.

Usage:
    python3 scripts/mutate.py src/flyswarm/evolution.py apply_sharing Swarm \\
        [--timeout 300] [--jobs 1] [-- PYTEST_ARGS...]

A name is a function (``apply_sharing``), a method (``Image.__init__``)
or a class, which stands for all of its methods. The mutants are:
comparison flips, +/-1 on integer constants, swapped arithmetic and
boolean operators, a dropped ``not`` or unary minus, a dropped call to
round/ceil/floor/min/max/rint/abs (its first argument kept), a numpy
dtype swap, and a statement replaced by ``pass``. Each mutant is written
into a copy of the repository in a temporary directory, never into the
checkout, and Tier-1 runs there with ``-x`` and the tests marked
``timing`` deselected; a failure or a timeout kills the mutant. The
unmutated copy must pass first. Each live mutant is printed as it is
found, with the line and column of the node it changed. Exit code 1
when a mutant lives.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESELECT = ["-m", "not timing"]  # tests marked timing assert wall-clock bounds
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mult,
         ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.And: ast.Or, ast.Or: ast.And}
DROPPED = {"round", "ceil", "floor", "min", "max", "rint", "abs"}
DTYPES = {"int64": "int32", "int32": "int64", "int16": "int32", "float64": "float32", "uint8": "int8", "uint64": "int64",
          "complex128": "complex64"}


def _functions(body: list, prefix: str = ""):
    """(qualified name, node) of every function in ``body``, methods and nested ones too."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef):
                yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _swaps(node: ast.AST):
    """(label, holder, field, index, replacement) for each mutant at ``node`` and its children."""
    for field, value in ast.iter_fields(node):
        for index, child in enumerate(value) if isinstance(value, list) else [(None, value)]:
            where = (node, field, index)
            if isinstance(child, ast.stmt) and not isinstance(child, ast.FunctionDef):
                if not (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):  # docstring
                    yield ("pass", *where, ast.Pass())
            if isinstance(child, ast.Constant) and type(child.value) is int:
                yield from ((f"{child.value}{d:+d}", *where, ast.Constant(child.value + d)) for d in (1, -1))
            if isinstance(child, ast.UnaryOp) and isinstance(child.op, (ast.Not, ast.USub)):
                yield ("drop unary", *where, child.operand)
            func = getattr(child, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if isinstance(child, ast.Call) and name in DROPPED and child.args:
                yield (f"drop {name}()", *where, child.args[0])
            if isinstance(child, ast.Attribute) and child.attr in DTYPES and getattr(child.value, "id", "") == "np":
                yield (f"np.{child.attr}->{DTYPES[child.attr]}", *where, ast.Attribute(child.value, DTYPES[child.attr]))
    op = getattr(node, "op", None)
    if type(op) in ARITH:
        yield f"{type(op).__name__}->{ARITH[type(op)].__name__}", node, "op", None, ARITH[type(op)]()
    for i, cmp in enumerate(getattr(node, "ops", [])):
        yield f"{type(cmp).__name__}->{COMPARE[type(cmp)].__name__}", node, "ops", i, COMPARE[type(cmp)]()


def _put(holder, field, index, new):
    """Set one child node in place; returns the node it replaced."""
    if index is None:
        old = getattr(holder, field)
        setattr(holder, field, new)
    else:
        seq = getattr(holder, field)
        old, seq[index] = seq[index], new
    return old


def mutants(source: str, names: list[str]):
    """Yield ("line:column", label, mutated source) for every mutant of the named functions."""
    tree = ast.parse(source)
    chosen = {n: [f for q, f in _functions(tree.body) if q == n or q.startswith(n + ".")] for n in names}
    missing = [n for n, funcs in chosen.items() if not funcs]
    if missing:
        raise SystemExit(f"no function named {missing}")
    for func in {id(f): f for funcs in chosen.values() for f in funcs}.values():
        for node in ast.walk(func):
            for label, *where, new in list(_swaps(node)):
                old = _put(*where, new)
                text = ast.unparse(tree)
                _put(*where, old)
                at = old if hasattr(old, "lineno") else node
                yield f"{at.lineno}:{at.col_offset}", label, text


def _passes(workdir: Path, timeout: float, pytest_args: list[str]) -> bool:
    """True when Tier-1 passes in ``workdir``; a timeout is a failure. Each
    run has its own temporary directory (concurrent runs sharing pytest's
    default one delete each other's files), no Hypothesis database left by
    the last mutant, and a fixed Hypothesis seed, so a verdict repeats."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--basetemp", str(workdir / ".tmp"),
           "--hypothesis-seed=0", *DESELECT, *pytest_args]
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("file", type=Path, help="source file in the repository")
    ap.add_argument("names", nargs="+", help="functions, methods or classes to mutate")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per Tier-1 run")
    ap.add_argument("--jobs", type=int, default=1, help="copies tested at once")
    args, pytest_args = ap.parse_known_args(argv)
    pytest_args = [a for a in pytest_args if a != "--"]
    rel = args.file.resolve().relative_to(ROOT)
    source = (ROOT / rel).read_text(encoding="utf-8")
    found = list(mutants(source, args.names))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        free = [shutil.copytree(ROOT, Path(tmp) / str(j), ignore=ignore) for j in range(max(args.jobs, 1))]
        # the mutants are unparsed source, so the unmutated check is too
        (free[0] / rel).write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if not _passes(free[0], args.timeout, pytest_args):
            raise SystemExit("Tier-1 fails on the unmutated copy")

        def killed(mutant) -> bool:
            copy = free.pop()  # one copy per worker thread, so one is always free
            try:
                (copy / rel).write_text(mutant[2], encoding="utf-8")
                return not _passes(copy, args.timeout, pytest_args)
            finally:
                free.append(copy)

        live = 0
        with concurrent.futures.ThreadPoolExecutor(len(free)) as pool:
            for (line, label, _), dead in zip(found, pool.map(killed, found)):
                if not dead:
                    live += 1
                    print(f"LIVE {rel}:{line}: {label}", flush=True)
    print(f"{rel}: {len(found) - live} of {len(found)} mutants killed")
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
