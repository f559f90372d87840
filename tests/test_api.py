"""Every public name has a caller, or a stated reason to stay.

A name in ``indivisible.__all__`` is reached when the command line, a Python
example in the README, the acceptance tests or the benchmark uses it,
directly or through the package's own definitions.  A name that nothing
reaches stays only if KEEP gives the open ROADMAP item (or other reason)
that will call it, so uncalled API cannot come back unnoticed.

The package resolves those names, and its submodule names, only when they
are first used; the rest of this file checks that the lazy namespace hands
out the same objects as the modules that define them.
"""

import ast
import json
import pickle
import re
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import indivisible
from indivisible import TransitionMatrix

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


SUBMODULES = ["cli", "complex_repr", "correspondence", "embed", "errors", "lp",
              "oscillator", "serialize", "stochastic"]


def test_every_api_name_is_its_modules_object():
    for name in indivisible.__all__:
        value = getattr(indivisible, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_every_api_name():
    namespace = {}
    exec("from indivisible import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == indivisible.__all__
    assert all(value is getattr(indivisible, name)
               for name, value in namespace.items())
    listed = dir(indivisible)
    assert set(indivisible.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        indivisible.no_such_name
    assert not hasattr(indivisible, "SquareMatrix")  # in errors, not exported


def test_a_fresh_import_loads_nothing_until_a_name_is_used(fresh_python):
    """What the benchmark does to install its spans, getattr(package, module),
    works on a package that has imported none of its modules."""
    out = fresh_python(
        "import json, sys\n"
        "import indivisible\n"
        "before = sorted(m for m in sys.modules if m.startswith('indivisible.'))\n"
        "indivisible.TransitionMatrix\n"
        "after = sorted(m for m in sys.modules if m.startswith('indivisible.'))\n"
        f"names = [getattr(indivisible, m).__name__ for m in {SUBMODULES!r}]\n"
        "print(json.dumps([before, after, names,\n"
        "                  'TransitionMatrix' in vars(indivisible)]))\n")
    before, after, names, cached = json.loads(out)
    assert before == []
    assert after == ["indivisible.errors", "indivisible.lp",
                     "indivisible.stochastic"]
    assert names == [f"indivisible.{m}" for m in SUBMODULES]
    assert cached


def test_a_pickle_loads_in_a_process_that_imported_only_the_package(
        fresh_python):
    gamma = TransitionMatrix([[0.25, 0.5], [0.75, 0.5]], t=2.0, t0=0.5)
    out = fresh_python(
        "import json, pickle, indivisible\n"
        f"g = pickle.loads(bytes.fromhex({pickle.dumps(gamma).hex()!r}))\n"
        "print(json.dumps([type(g) is indivisible.TransitionMatrix,\n"
        "                  g.matrix.tolist(), g.t, g.t0]))\n")
    same_type, matrix, t, t0 = json.loads(out)
    assert same_type
    assert np.array_equal(matrix, gamma.matrix) and (t, t0) == (2.0, 0.5)
