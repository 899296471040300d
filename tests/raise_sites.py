"""The library's raise sites, and whether some test pins the text of each.

A site is a ``raise`` statement or a call of ``check_budget``,
``fileio._fail`` or ``CheckReport.require`` in ``src/legch``; the bodies of
those three helpers are not sites of their own.  A site's text is the
longest literal fragment of its message, the string constants of the
message split at each ``%`` conversion (``check_budget``'s ``what``,
``_fail``'s message, ``require``'s prefix).  It is pinned when some string
constant of a test module under ``tests/`` holds that fragment, read with
regex escapes undone.  A site whose message has no literal fragment of
``MIN_TEXT`` characters or more (a bare ``raise``, a report's own detail)
is listed as ``dynamic``.

``python tests/raise_sites.py``, run from the repository root, prints one
``path:line kind status text`` row per site, status ``pinned``,
``unpinned`` or ``dynamic``, then one ``sites N pinned P unpinned U dynamic
D`` row.  It always exits 0.  Pytest does not collect it.
"""

import ast
import re
import sys
from pathlib import Path

HELPERS = {"check_budget", "_fail", "require"}
MIN_TEXT = 8
CONVERSION = re.compile(r"%[-#0 +]*[\d*]*(?:\.[\d*]+)?[diouxXeEfFgGcrsa%]")


def _called(node: ast.AST) -> str:
    """The name of a call's function, attribute or plain; else ""."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return ""


def _message(node: ast.AST, assigned: list) -> list:
    """The message expressions of a site: its message argument, each name in
    it read as its last assignment above the site (``assigned``: (line,
    name, value) in file order); a budget's ``what`` with the suffix
    ``check_budget`` adds."""
    if isinstance(node, ast.Raise):
        call = node.exc
        message = call.args[0] if isinstance(call, ast.Call) and call.args else None
    else:
        index = {"check_budget": 3, "_fail": 1, "require": 1}[_called(node)]
        message = node.args[index] if len(node.args) > index else None
    parts = [message] if message is not None else []
    for name in [n.id for part in parts for n in ast.walk(part) if isinstance(n, ast.Name)]:
        values = [v for line, target, v in assigned if target == name and line < node.lineno]
        parts += values[-1:]
    if _called(node) == "check_budget" and isinstance(parts[-1], ast.Constant):
        name = node.args[0].value if isinstance(node.args[0], ast.Constant) else "%s"
        parts[-1] = ast.Constant("%s the budget %s = %%d" % (parts[-1].value, name))
    return parts


def _text(parts: list) -> str:
    """The longest literal fragment of the message expressions."""
    fragments = [""]
    for node in (n for part in parts for n in ast.walk(part)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            fragments += CONVERSION.split(node.value)
    return max((f.strip() for f in fragments), key=len)


def sites(root: Path):
    """(path, line, kind, text) of every site under ``root``, in file order."""
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped, found, assigned = set(), [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in HELPERS:
                skipped.update(id(inner) for inner in ast.walk(node) if inner is not node)
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                assigned.append((node.lineno, node.targets[0].id, node.value))
        assigned.sort(key=lambda item: item[0])
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Raise):
                found.append((node, "raise"))
            elif _called(node) in HELPERS:
                found.append((node, _called(node)))
        for node, kind in sorted(found, key=lambda item: item[0].lineno):
            yield path, node.lineno, kind, _text(_message(node, assigned))


def tested_strings(tests: Path) -> list:
    """Every string constant of the test modules, and its regex-unescaped form."""
    strings = []
    for path in sorted(tests.rglob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings += [node.value, re.sub(r"\\(.)", r"\1", node.value)]
    return strings


def main() -> int:
    strings = tested_strings(Path("tests"))
    counts = {"pinned": 0, "unpinned": 0, "dynamic": 0}
    for path, line, kind, text in sites(Path("src/legch")):
        if len(text) < MIN_TEXT:
            status = "dynamic"
        else:
            status = "pinned" if any(text in s for s in strings) else "unpinned"
        counts[status] += 1
        print("%s:%d %s %s %r" % (path.as_posix(), line, kind, status, text))
    print("sites %d %s" % (sum(counts.values()), " ".join("%s %d" % kv for kv in counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
