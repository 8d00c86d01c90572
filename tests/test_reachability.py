"""Reachability guard: every top-level ``def`` and ``class`` in
``engine/`` is reached from an entry point, or is allowlisted with a
reason.

The roots are the driver contract (``__ray_entry__.py``), ``bench.py``,
the CLI (``engine/cli.py``, ``engine/__main__.py``), the repo benchmark
(``perfbench/*.py``), the standalone scripts (``BENCH/*.py``), and the
module-level statements of every engine module that are not a ``def``
or ``class``. A top-level definition is live when a root or a live body
names it. Identifiers count as names, and so does every identifier-shaped
word inside a string literal (``perfbench/trace.py`` wraps functions by
name). Docstrings and comments do not count.

Matching is by bare name, so a name defined in two modules is live in
both once either is named; the check errs toward keeping code.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: dead-by-scan definitions that stay, with the reason. Each entry is a
#: root, so its own helpers need no entry.
ALLOWED = {
    "pattern_score_distributed": "SURVEY ledger row A2",
    "dump_csv": "SURVEY ledger row S5",
    "bloom_semi_join": "ledger row J1; planned caller: touched-file MERGE (ROADMAP direction 10)",
    "broadcast_semi_join": "ledger row J1; planned caller: touched-file MERGE (ROADMAP direction 10)",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _root_files(repo: Path) -> list[Path]:
    files = [repo / "__ray_entry__.py", repo / "bench.py",
             repo / "engine" / "cli.py", repo / "engine" / "__main__.py"]
    files += sorted((repo / "perfbench").glob("*.py"))
    files += sorted((repo / "BENCH").glob("*.py"))
    return [f for f in files if f.exists()]


def _names(src: str, tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` for every identifier token and every word of a
    string literal, skipping docstrings (comments are not tokens here)."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.NAME:
            out.append((tok.start[0], tok.string))
        elif tok.type == tokenize.STRING and tok.start not in docstrings:
            out += [(tok.start[0], w) for w in _WORD.findall(tok.string)]
    return out


def scan(repo: Path, allowed=()) -> tuple[dict, set]:
    """Return ``(defs, live)``: ``defs`` maps each top-level engine
    definition name to its ``(module, first_line, last_line)`` sites;
    ``live`` is the set of those names reached from the roots plus
    ``allowed``."""
    roots = set(allowed)
    for f in _root_files(repo):
        src = f.read_text()
        roots.update(n for _, n in _names(src, ast.parse(src)))
    defs, bodies = {}, {}
    for f in sorted((repo / "engine").glob("*.py")):
        src = f.read_text()
        tree = ast.parse(src)
        spans = {}
        for node in tree.body:
            if isinstance(node, _DEFS):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name] = (start, node.end_lineno)
                defs.setdefault(node.name, []).append((f.name, start, node.end_lineno))
                bodies.setdefault(node.name, set())
        for line, name in _names(src, tree):
            owner = next((d for d, (a, b) in spans.items() if a <= line <= b), None)
            if owner is None:
                roots.add(name)  # a module-level statement
            else:
                bodies[owner].add(name)
    live, todo = set(), [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [n for n in bodies[name] if n in defs and n not in live]
    return defs, live


def test_engine_has_no_unreachable_definitions():
    defs, live = scan(REPO, ALLOWED)
    dead = [
        f"engine/{mod}:{a}-{b} {name} ({b - a + 1} lines)"
        for name in sorted(set(defs) - live)
        for mod, a, b in defs[name]
    ]
    assert not dead, (
        "top-level engine code that no entry point reaches; delete it, or "
        "add it to ALLOWED with a reason:\n  " + "\n  ".join(dead)
    )


def test_allowlist_is_current():
    defs, live = scan(REPO)
    missing = sorted(n for n in ALLOWED if n not in defs)
    reached = sorted(n for n in ALLOWED if n in live)
    assert not missing, f"ALLOWED names no engine definition: {missing}"
    assert not reached, f"ALLOWED names are reachable without the allowlist: {reached}"


def test_scan_follows_bodies_and_ignores_prose(tmp_path):
    """The rule itself: a dead caller keeps no helper alive, a docstring
    or comment mention is not a reference, a string literal is."""
    (tmp_path / "engine").mkdir()
    (tmp_path / "engine" / "mod.py").write_text(
        '"""Mentions dead_in_docstring."""\n'
        "LIMIT = helper_of_const()\n"
        "\n"
        "def helper_of_const():\n"
        "    return 1\n"
        "\n"
        "def entry():\n"
        '    """Calls dead_in_docstring (prose only)."""\n'
        "    # dead_in_comment()\n"
        '    return used_by_entry(), "by_name"\n'
        "\n"
        "def used_by_entry():\n"
        "    return 2\n"
        "\n"
        "def by_name():\n"
        "    return 3\n"
        "\n"
        "@dead_decorator\n"
        "def dead_root():\n"
        "    return dead_helper()\n"
        "\n"
        "def dead_helper():\n"
        "    return 4\n"
        "\n"
        "def dead_decorator(f):\n"
        "    return f\n"
        "\n"
        "def dead_in_docstring():\n"
        "    return 5\n"
        "\n"
        "def dead_in_comment():\n"
        "    return 6\n"
    )
    (tmp_path / "bench.py").write_text("from engine.mod import entry\nentry()\n")
    defs, live = scan(tmp_path)
    assert live == {"helper_of_const", "entry", "used_by_entry", "by_name"}
    assert set(defs) - live == {
        "dead_root", "dead_helper", "dead_decorator", "dead_in_docstring", "dead_in_comment",
    }
    assert "dead_helper" in scan(tmp_path, {"dead_root"})[1]
