"""Every certificate text in src/unitlift, reached by a test or listed.

The stdlib ast module finds each InternalDefectError(...) call of the
package.  Its text is the string literal it passes, or the longest literal
piece of an f-string; a test reaches the text when another file under
tests/ holds its first 25 characters.  A call that passes a text built
elsewhere, such as the first defect a batch helper returned, and a text
that no test reaches are listed in ALLOWED, each with a one-line reason.
The list may only shrink: an entry that names no unreached call fails, and
so does a list longer than ALLOWED_MOST.
"""

import ast
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parents[1] / "src" / "unitlift"
TESTS = "\n".join(path.read_text() for path in sorted(HERE.parent.glob("*.py"))
                  if path != HERE)
PREFIX = 25

# (module, enclosing function, text or the source of the message): reason
ALLOWED = {
    ("semiunits.py", "collapse_semi_inverse_set",
     "product of 1 - s*r terms is not of that form"):
        "the product of the 1 - s_i*r expands to 1 - s*r; only arithmetic "
        "that breaks the ring laws misses it",
    ("semiunits.py", "collapse_semi_inverse_set",
     "collapsed singleton is not a semi-inverse set"):
        "s is a semi-inverse whenever the s_i are, by the same expansion; "
        "only arithmetic that breaks the ring laws fails it",
    ("cli.py", "_cmd_star_check", "defect"):
        "re-raises the first defect text of star._crt_unit_lifts",
    ("matrices.py", "gl_lift", "defect"):
        "re-raises the text of matrices._lift_defects",
    ("semiunits.py", "semi_unit_decomposition", "defects[0]"):
        "re-raises the text of semiunits._decompositions",
    ("spectrum.py", "crt_solve", "defects[0]"):
        "re-raises the text of spectrum._crt_solve_many",
    ("star.py", "star_report", "defect"):
        "re-raises the text of star._star_reports",
    ("star.py", "crt_unit_lift", "defects[0]"):
        "re-raises the text of star._crt_unit_lifts",
    ("star.py", "product_fields_adjust", "defects[0]"):
        "re-raises the text of star._fields_adjust_many",
    ("star.py", "reduce_mod_rad_equiv", "defect"):
        "re-raises the text of star._reduce_mod_rad_many",
    ("verify.py", "count", "defect"):
        "re-raises the text a criterion's batch helper returned for its ring",
}
ALLOWED_MOST = 11


def _text(arg):
    """(text, literal): the text of a string literal, the longest literal
    piece of an f-string, or the source of any other message."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, True
    if isinstance(arg, ast.JoinedStr):
        return max((v.value for v in arg.values if isinstance(v, ast.Constant)), key=len), True
    return ast.unparse(arg), False


def _calls(node, module, function):
    """(module, innermost enclosing function, text, literal) per call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, module, child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "InternalDefectError"):
            yield (module, function, *_text(child.args[0]))
        yield from _calls(child, module, function)


SITES = [site for path in sorted(SRC.glob("*.py"))
         for site in _calls(ast.parse(path.read_text(), str(path)), path.name, "<module>")]
UNREACHED = {(module, function, text) for module, function, text, literal in SITES
             if not (literal and text[:PREFIX] in TESTS)}


def test_the_walk_finds_the_certificates():
    assert ("rings.py", "ideal_closure", "ideal closure is not additively closed", True) in SITES
    assert ("rings.py", "check_ring_axioms", "addition not associative at ", True) in SITES


def test_every_defect_text_is_reached_or_allowed():
    assert sorted(UNREACHED - set(ALLOWED)) == []


def test_the_allowlist_only_shrinks():
    # an entry whose call a test now reaches, or that is gone, leaves the list
    assert sorted(set(ALLOWED) - UNREACHED) == []
    assert len(ALLOWED) <= ALLOWED_MOST
    assert all(reason and "\n" not in reason for reason in ALLOWED.values())
