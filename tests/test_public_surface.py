"""Every public top-level function, class and constant in ``src/direx`` must
be alive: reachable from a root without passing through the tests.  A
constant is a top-level assignment to plain names.

The roots are the benchmark's ``perfbench/*.py``, the names inside
``README.md``'s backticked code spans, the package's top-level statements
other than definitions and imports, and ``KEEP``.  A definition is alive
when a root or an alive definition reads its name; the scan follows these
reads to a fixpoint, so a helper that only a test-only name reads is dead
too.  A name kept for another reason sits on ``KEEP`` with that reason.

Every keyword parameter with a default, of a top-level function or of a
top-level class's ``__init__`` (a dataclass's init fields when it has
none), must be passed by some call of that name in ``src/direx`` or
``perfbench/*.py``; a parameter only tests set is a constant in disguise.
A knob kept for another reason sits on ``KEEP_KNOBS`` with that reason.

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
}

KEEP_KNOBS = {
    "CategoricalSampler.block": "the decoder property tests need short "
                                "blocks to reach the 4096-symbol reset",
    "random_partially_trusted.device_half_dim": "the only source of dq = 4 "
                                                "devices for the stack tests",
    "trust_coefficient_search.samples": "gives tests a smaller sampling budget",
    "eir_run.hash_family": "the short-seed hash family (ROADMAP) will set it",
    "main.argv": "tests drive the CLI in-process",
    "CrossFeedStage.ext_error_exp": "the ledger tests vary the extractor "
                                    "error that each stage's entry carries",
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


def _defined(stmt):
    """The names a top-level statement defines: a function's or class's
    name, or the targets of an assignment to plain names."""
    if isinstance(stmt, _DEFINITIONS):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    if targets and all(isinstance(t, ast.Name) for t in targets):
        return [t.id for t in targets]
    return []


def survey(package, roots):
    """Reads of the package modules and the root modules, given as source
    texts: (bodies, rooted).  bodies maps each top-level definition of the
    package, constants included, to the names its statement reads; rooted
    holds the names that the package's other statements, imports excepted,
    and every statement of the root modules read."""
    bodies, rooted = {}, set()
    for text in package:
        for stmt in ast.parse(text).body:
            names = _defined(stmt)
            for name in names:
                bodies.setdefault(name, set()).update(_identifiers(stmt))
            if not names and not isinstance(stmt, _IMPORTS):
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


def _dataclass_knobs(cls):
    """The init fields with a default of a dataclass, as a map from field
    name to its position in a call.  A field(...) value gives a default
    through default= or default_factory=, and init=False takes the field
    out of the call."""
    found, pos = {}, 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value, has_default = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            has_default = "default" in kw or "default_factory" in kw
        if has_default:
            found[stmt.target.id] = pos
        pos += 1
    return found


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def knobs(package):
    """The keyword parameters with a default of the package's top-level
    functions and top-level classes' __init__, or a dataclass's fields, as
    a map from "name.param" to the parameter's position in a call (None
    when keyword-only)."""
    found = {}
    for text in package:
        for stmt in ast.parse(text).body:
            fn, skip = stmt, 0
            if isinstance(stmt, ast.ClassDef):
                fn = next((s for s in stmt.body if isinstance(s, ast.FunctionDef)
                           and s.name == "__init__"), None)
                skip = 1  # self
                if fn is None and _is_dataclass(stmt):
                    found.update((f"{stmt.name}.{name}", at)
                                 for name, at in _dataclass_knobs(stmt).items())
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
    # alive through TABLE, which a top-level call reads
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
register(TABLE)
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


def test_scan_flags_an_unread_constant():
    # UNREAD and its value's helper are dead; LIMIT is alive through run,
    # and _PRIVATE, unread too, is not public
    package = ["""
def helper():
    return 3

def run():
    return LIMIT

UNREAD = helper()
LIMIT: float = 1e-9
_PRIVATE = 2
"""]
    bodies, rooted = survey(package, ["run()"])
    assert unreached(bodies, rooted) == {"UNREAD", "helper"}


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
    # a dataclass's init fields are its __init__: field(init=False) takes
    # no position, so Stage(1, 2, 3, "t") fills tag but not log, and
    # Stage(1, 2, 3) neither; Plain's explicit __init__ is scanned instead
    # of its fields
    package = ["""
@dataclass(frozen=True)
class Stage:
    N: int
    need: int = field(repr=False)
    rounds: int = 10
    memo: list = field(default_factory=list, init=False)
    tag: str = field(default="")
    log: list = field(default_factory=list)

@dataclass
class Plain:
    x: int = 0

    def __init__(self, y=1):
        pass

def run():
    Plain()
    return Stage(1, 2, 3, "t")
"""]
    assert unset_knobs(package, package) == {"Stage.log", "Plain.y"}
    assert unset_knobs(package, ["Stage(1, 2, 3)"]) == {
        "Stage.tag", "Stage.log", "Plain.y"}


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _guarded(node, parents):
    """Whether a condition around node calls hasattr: an if, a
    conditional expression or a comprehension's filter."""
    while node in parents:
        node = parents[node]
        tests = ([node.test] if isinstance(node, (ast.If, ast.IfExp))
                 else [t for gen in node.generators for t in gen.ifs]
                 if isinstance(node, _COMPREHENSIONS) else [])
        if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None)
               == "hasattr" for test in tests for sub in ast.walk(test)):
            return True
    return False


def benchmark_hooks(text):
    """The (module, attribute) pairs that the benchmark text hooks through
    _after_calls(<module>, "<name>", ...) with a literal name and no
    hasattr guard; the module is named as `from direx import` binds it."""
    tree = ast.parse(text)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "direx"
               for alias in node.names}
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    hooks = set()
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_after_calls"
                and len(call.args) >= 2
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in modules
                and isinstance(call.args[1], ast.Constant)
                and isinstance(call.args[1].value, str)
                and not _guarded(call, parents)):
            hooks.add((modules[call.args[0].id], call.args[1].value))
    return hooks


def test_benchmark_hooks_name_existing_attributes():
    # the benchmark wraps these by name when its workloads run, which no
    # other test does; a deleted or renamed one would fail only there
    import importlib

    hooks = benchmark_hooks((ROOT / "perfbench" / "workloads.py").read_text())
    assert hooks
    missing = sorted((module, name) for module, name in hooks
                     if not hasattr(importlib.import_module(f"direx.{module}"),
                                    name))
    assert not missing, f"perfbench/workloads.py hooks what direx lacks: {missing}"


def test_hook_scan_skips_guarded_and_computed_names():
    text = """
from direx import protocols as p, xorgames

def run():
    _after_calls(p, "run_protocol", f)
    if hasattr(xorgames, "_chunk"):
        _after_calls(xorgames, "_chunk", f)
    [_after_calls(xorgames, name, f) for name in NAMES if hasattr(xorgames, name)]
    [_after_calls(xorgames, "listed", f) for _ in (0,) if hasattr(xorgames, "listed")]
    _after_calls(other, "elsewhere", f)
    return _after_calls(xorgames, "analyze", f) if ok else None
"""
    assert benchmark_hooks(text) == {("protocols", "run_protocol"),
                                     ("xorgames", "analyze")}
