"""Every public top-level function and class in ``src/direx`` must be alive:
reachable from a root without passing through the tests.

The roots are the benchmark's ``perfbench/*.py``, the names inside
``README.md``'s backticked code spans, the package's top-level statements
other than definitions and imports, and ``KEEP``.  A definition is alive
when a root or an alive definition reads its name; the scan follows these
reads to a fixpoint, so a helper that only a test-only name reads is dead
too.  A name kept for another reason sits on ``KEEP`` with that reason.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "direx"

KEEP = {
    # xorgames
    "classical_optimum": "criterion 1 compares the quantum score with it",
    "eval_pg": "the README's score polynomial; oracle for scoring_operator",
    "eval_zg": "the README's cosine form; oracle for optimal_score",
    "score_certificate": "certifies a claimed score, as analyze_game does",
    "scoring_operator": "its tests pin the max-entry-modulus norm rule that "
                        "the trust check relies on",
    # entropy
    "dmax": "the README's max-divergence; criterion 13 bounds D_2 by it",
    "pinching_channel": "criterion 13's data-processing channel",
    "smooth_from_renyi": "the README's smoothing",
    "trace_distance": "oracle for the smoothing postconditions",
    # rates
    "feasible": "criterion 4's feasibility boundary",
    "one_round_rate": "the README's one-round rate",
    # protocols and postprocess
    "biased_bit_sampler": "criterion 10 measures its seed use against h(q)",
    "expansion_schedule": "the README's expansion schedules",
    "stages_to_reach": "the README's expansion schedules",
    # qkd
    "agreement_bound_check": "the README's agreement-rate machinery",
    "bad_event": "the README's agreement-rate machinery",
    "eta_bar": "the agreement margin of the agreement-rate machinery",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _identifiers(node):
    """Names a subtree reads, imports or spells as a whole string (the
    benchmark patches functions by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def survey(package, roots):
    """Reads of the package modules and the root modules, given as source
    texts: (bodies, rooted).  bodies maps each top-level definition of the
    package to the names its statement reads; rooted holds the names that
    the package's other statements, imports excepted, and every statement
    of the root modules read."""
    bodies, rooted = {}, set()
    for text in package:
        for stmt in ast.parse(text).body:
            if isinstance(stmt, _DEFINITIONS):
                bodies.setdefault(stmt.name, set()).update(_identifiers(stmt))
            elif not isinstance(stmt, _IMPORTS):
                rooted.update(_identifiers(stmt))
    for text in roots:
        rooted.update(_identifiers(ast.parse(text)))
    return bodies, rooted


def readme_names(text):
    """Identifiers inside the backticked code spans of a markdown text,
    fenced blocks included."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def unreached(bodies, rooted):
    """Public definitions that no chain of reads reaches from rooted."""
    alive, todo = set(), list(rooted)
    while todo:
        name = todo.pop()
        if name not in alive:
            alive.add(name)
            todo.extend(bodies.get(name, ()))
    return {name for name in bodies
            if not name.startswith("_") and name not in alive}


@lru_cache(maxsize=1)
def _package_scan():
    bodies, rooted = survey(
        [p.read_text() for p in sorted(SRC.glob("*.py"))],
        [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])
    return bodies, frozenset(rooted | readme_names((ROOT / "README.md").read_text()))


def test_every_public_name_has_a_reader():
    bodies, rooted = _package_scan()
    missing = sorted(unreached(bodies, rooted | set(KEEP)))
    assert not missing, (
        f"public names only tests reach: {missing}; delete them, or add "
        f"each to KEEP with its reason")


def test_keep_list_names_only_unreferenced_names():
    bodies, rooted = _package_scan()
    assert set(KEEP) <= unreached(bodies, rooted)
    assert all(reason.strip() for reason in KEEP.values())


def test_scan_follows_reachability():
    # test_only is named in README prose and imported by a second module;
    # helper is read by test_only alone; kept and its helper _private are
    # alive through TABLE
    package = ["""
def test_only():
    return helper()

def helper():
    return 2

def kept():
    return _private()

def _private():
    return 1

TABLE = {"k": kept}
""", "from .first import test_only\n"]
    readme = "The test_only metric; `kept` is the table's entry."
    bodies, rooted = survey(package, [])
    assert unreached(bodies, rooted | readme_names(readme)) == {
        "test_only", "helper"}
    # the rule this scan replaced: a read from any other statement, an
    # import included, or the name anywhere in the README
    plain = set(re.findall(r"\w+", readme))
    for text in package:
        for stmt in ast.parse(text).body:
            plain.update(set(_identifiers(stmt)) - {getattr(stmt, "name", None)})
    assert unreached(bodies, plain) == set()
