"""Every public top-level function and class in ``src/direx`` must be alive:
reachable from a root without passing through the tests.

The roots are the benchmark's ``perfbench/*.py``, the names inside
``README.md``'s backticked code spans, the package's top-level statements
other than definitions and imports, and ``KEEP``.  A definition is alive
when a root or an alive definition reads its name; the scan follows these
reads to a fixpoint, so a helper that only a test-only name reads is dead
too.  A name kept for another reason sits on ``KEEP`` with that reason.

Every keyword parameter with a default, of a top-level function or of a
top-level class's ``__init__``, must be passed by some call of that name
in ``src/direx`` or ``perfbench/*.py``; a parameter only tests set is a
constant in disguise.  A knob kept for another reason sits on
``KEEP_KNOBS`` with that reason.

Every identifier in a README code span that has an inner underscore or is
CamelCase must be spelled in ``src/direx`` or ``perfbench/*.py`` (defined,
read, or inside a string), or be the stem of a file in ``tests/``.
"""

import ast
import math
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "direx"

KEEP = {
    # xorgames
    "classical_optimum": "criterion 1 compares the quantum score with it",
    "eval_pg": "oracle for scoring_operator's entries, and the score "
               "polynomial whose modulus bounds eval_zg",
    "eval_zg": "oracle for optimal_score: the maximiser must attain the score",
    "score_certificate": "certifies a claimed score, as analyze_game does",
    "scoring_operator": "its tests pin the max-entry-modulus norm rule that "
                        "the trust check relies on",
    # entropy
    "dmax": "criterion 13 bounds D_2 by it",
    "pinching_channel": "criterion 13's data-processing channel",
    # rates
    "feasible": "criterion 4's feasibility boundary",
    "one_round_rate": "oracle for worst_case_rate, its minimum over t "
                      "(tests/test_rates.py)",
    # protocols
    "biased_bit_sampler": "criterion 10 measures its seed use against h(q)",
    # qkd: the agreement group, which KdConfig.lam_prime feeds; wiring it
    # into direx qkd is an open ROADMAP decision
    "agreement_bound_check": "the agreement-rate check on counted bad events",
    "bad_event": "the event agreement_bound_check counts",
    "eta_bar": "the agreement margin agreement_bound_check takes",
}

KEEP_KNOBS = {
    "CategoricalSampler.block": "the decoder property tests need short "
                                "blocks to reach the 4096-symbol reset",
    "random_partially_trusted.device_half_dim": "the only source of dq = 4 "
                                                "devices for the stack tests",
    "analyze_game.vg_lower": "lets tests skip the trust search",
    "analyze_game.provenance": "lets tests skip the trust search",
    "trust_coefficient_search.samples": "gives tests a smaller sampling budget",
    "eir_run.hash_family": "the short-seed hash family (ROADMAP) will set it",
    "eta_bar.f": "part of the open decision on eta_bar (ROADMAP)",
    "main.argv": "tests drive the CLI in-process",
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


def knobs(package):
    """The keyword parameters with a default of the package's top-level
    functions and top-level classes' __init__, as a map from "name.param"
    to the parameter's position in a call (None when keyword-only)."""
    found = {}
    for text in package:
        for stmt in ast.parse(text).body:
            fn, skip = stmt, 0
            if isinstance(stmt, ast.ClassDef):
                fn = next((s for s in stmt.body if isinstance(s, ast.FunctionDef)
                           and s.name == "__init__"), None)
                skip = 1  # self
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            for i in range(len(pos) - len(args.defaults), len(pos)):
                found[f"{stmt.name}.{pos[i].arg}"] = i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{stmt.name}.{arg.arg}"] = None
    return found


def unset_knobs(package, callers):
    """The package's knobs that no call in the caller texts passes, by
    keyword or by position.  A starred argument fills every later position
    and a double-starred one passes every keyword."""
    keywords, filled = set(), {}
    for text in callers:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords.update(f"{name}.{k.arg or '*'}" for k in call.keywords)
            n = (math.inf if any(isinstance(a, ast.Starred) for a in call.args)
                 else len(call.args))
            filled[name] = max(filled.get(name, 0), n)
    unset = set()
    for knob, at in knobs(package).items():
        name = knob.split(".")[0]
        if (knob not in keywords and f"{name}.*" not in keywords
                and not (at is not None and filled.get(name, 0) > at)):
            unset.add(knob)
    return unset


@lru_cache(maxsize=1)
def _sources():
    return ([p.read_text() for p in sorted(SRC.glob("*.py"))],
            [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])


@lru_cache(maxsize=1)
def _package_scan():
    bodies, rooted = survey(*_sources())
    return bodies, frozenset(rooted | readme_names((ROOT / "README.md").read_text()))


def _spelled(tree):
    """Names a module defines, reads, or spells anywhere inside a string."""
    for sub in ast.walk(tree):
        if isinstance(sub, _DEFINITIONS):
            yield sub.name
        elif isinstance(sub, ast.arg):
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from re.findall(r"[A-Za-z_]\w*", sub.value)
    yield from _identifiers(tree)


def _code_like(name):
    """An inner underscore or CamelCase: a spelling prose does not use."""
    return ("_" in name.strip("_")
            or re.fullmatch(r"[A-Z][a-z0-9]+[A-Z]\w*", name) is not None)


def test_readme_names_exist():
    # a README code span must not name what the code no longer has, such
    # as a deleted function in the layout table
    package, roots = _sources()
    known = {name for text in package + roots for name in _spelled(ast.parse(text))}
    known |= {p.stem for p in (ROOT / "tests").glob("*.py")}
    named = {name for name in readme_names((ROOT / "README.md").read_text())
             if _code_like(name)}
    assert not named - known, (
        f"README code spans name what src/direx and perfbench/*.py never "
        f"spell: {sorted(named - known)}")


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


def test_every_knob_is_set_by_a_caller():
    package, roots = _sources()
    unset = unset_knobs(package, package + roots)
    assert unset - set(KEEP_KNOBS) == set(), (
        "keyword parameters no program caller sets; make each a constant, "
        "or add it to KEEP_KNOBS with its reason")
    assert set(KEEP_KNOBS) - unset == set(), "KEEP_KNOBS names a knob in use"
    assert all(reason.strip() for reason in KEEP_KNOBS.values())


def test_knob_scan_flags_an_unused_knob():
    # solve's knobs are passed through a starred call and by keyword;
    # Sampler(1, 2) fills block but not skew; plant's knob is unset until
    # a second caller text passes it
    package = ["""
def solve(x, tol=1e-9, steps=10, *, verbose=False):
    return x

class Sampler:
    def __init__(self, w, block=4096, skew=0):
        pass

def plant(x, knob=3):
    return x

def spread(*args):
    return solve(*args)

def run():
    Sampler(1, 2)
    plant(1)
    return solve(1, verbose=True)
"""]
    assert unset_knobs(package, package) == {"Sampler.skew", "plant.knob"}
    assert unset_knobs(package, package + ["plant(2, knob=4)"]) == {"Sampler.skew"}
