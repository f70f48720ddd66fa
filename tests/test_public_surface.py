"""Every public top-level function and class in ``src/direx`` must have a
reader besides the tests: a reference outside its own definition in
``src/direx``, in the benchmark's ``perfbench/*.py`` or in ``README.md``.
A name kept for another reason sits on ``KEEP`` with that reason.
"""

import ast
import re
from collections import defaultdict
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
    # matrixcore and rates
    "matrix_power": "the validated PSD power the Loewner-property tests use",
    "feasible": "criterion 4's feasibility boundary",
    "one_round_rate": "the README's one-round rate",
    # devices, protocols and postprocess
    "protocol_round_input_dist": "the input distribution deviation reads",
    "biased_bit_sampler": "criterion 10 measures its seed use against h(q)",
    "expansion_schedule": "the README's expansion schedules",
    "stages_to_reach": "the README's expansion schedules",
    # qkd
    "agreement_bound_check": "the README's agreement-rate machinery",
    "bad_event": "the README's agreement-rate machinery",
    "eta_bar": "the agreement margin of the agreement-rate machinery",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _survey():
    """Public top-level definitions as name -> (module path, statement
    index), and references as name -> set of (path, index of the top-level
    statement holding it)."""
    defined = {}
    refs = defaultdict(set)
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, stmt in enumerate(tree.body):
            if path.parent == SRC and isinstance(stmt, _DEFINITIONS) \
                    and not stmt.name.startswith("_"):
                defined[stmt.name] = (path, i)
            for name in _identifiers(stmt):
                refs[name].add((path, i))
    return defined, refs


@lru_cache(maxsize=1)
def _unreferenced() -> frozenset:
    defined, refs = _survey()
    readme = (ROOT / "README.md").read_text()
    return frozenset(
        name for name, home in defined.items()
        if refs[name] <= {home} and not re.search(rf"\b{name}\b", readme))


def test_every_public_name_has_a_reader():
    missing = sorted(_unreferenced() - set(KEEP))
    assert not missing, (
        f"public names only tests reach: {missing}; delete them, or add "
        f"each to KEEP with its reason")


def test_keep_list_names_only_unreferenced_names():
    assert set(KEEP) <= _unreferenced()
    assert all(reason.strip() for reason in KEEP.values())
