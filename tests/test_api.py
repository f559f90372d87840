"""Every public name has a caller, or a stated reason to stay.

A name in ``indivisible.__all__`` is reached when the command line, a Python
example in the README, the acceptance tests or the benchmark uses it,
directly or through the package's own definitions.  A name that nothing
reaches stays only if KEEP gives the open ROADMAP item (or other reason)
that will call it, so uncalled API cannot come back unnoticed.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import indivisible

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "indivisible"

KEEP = {
    "PseudoQuaternionElement": "README's package summary names the group",
    "pq_mul": "README's package summary names the group",
    "markov_compose": "ROADMAP item 11: the witness S at full dephasing",
    "time_reverse": "ROADMAP item 9: embed's form of time reversal K",
    "time_reverse_state": "ROADMAP item 9: the state form of K",
}


def identifiers(tree: ast.AST) -> set[str]:
    """Names, attributes, imported names and identifier-like strings (the
    benchmark wraps functions by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def reached() -> set[str]:
    """Names reached from the roots, closed over top-level definitions in
    ``src/indivisible``."""
    uses: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                uses.setdefault(name, set()).update(identifiers(node))
    readme = (ROOT / "README.md").read_text()
    roots = [ast.parse(block) for block in
             re.findall(r"```python\n(.*?)```", readme, flags=re.S)]
    for path in [SRC / "cli.py", ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "bench").glob("*.py"))]:
        roots.append(ast.parse(path.read_text()))
    todo = set().union(*map(identifiers, roots))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= uses.get(name, set()) - seen
    return seen


def test_every_public_name_has_a_caller_or_a_reason():
    seen = reached()
    public = set(indivisible.__all__)
    assert sorted(public - seen - set(KEEP)) == []
    # a kept name that gained a caller, or left the API, leaves KEEP too
    assert sorted(name for name in KEEP
                  if name in seen or name not in public) == []


def test_all_lists_api_names_only():
    assert not [name for name in indivisible.__all__
                if isinstance(getattr(indivisible, name), ModuleType)]
    assert isinstance(indivisible.stochastic, ModuleType)
