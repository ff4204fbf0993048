"""A table of mutants: one clause of the library changed, and the tests that
must fail on it.

    python3 tools/mutants.py

Each row changes one rule clause or undoes one mended bug: a name, a file
under src/tropgeo, the exact old text, which must occur there once, and the
new text.  A row names the tests that must kill it, as pytest node ids, or
is marked equivalent with the reason no test can.  For each killable row,
in order and one process at a time, the tool copies src, tests and
pyproject.toml fresh into a temporary directory, applies the row and runs
``pytest -x -q`` on the named tests there.  Before any mutant it runs every
named test once on the unchanged copy, so a kill means the mutant broke a
passing test.

Exits 1 when an old text does not occur exactly once, a named test does not
exist, the unchanged copy fails, or a mutant survives.  A refactor that
moves a clause updates its row.  tests/test_mutants.py checks the table's
texts and test names in tier-1, without running a mutant.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# seconds for one pytest run; a mutant that hangs a test fails the table
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/tropgeo
    old: str
    new: str
    tests: tuple = ()  # pytest node ids; the mutant must fail one of them
    equivalent: str = ""  # for a row no test can kill: why


MUTANTS = [
    # the rule clauses of the mutation probe at c084836 that tier-1 killed
    Mutant(
        "contains_batch skips the pair test of a chunk wholly inside the box",
        "_batch.py",
        "                pair_test(rows, okk)\n",
        "                pass\n",
        ("tests/test_geodesy.py::test_contains_batch_matches_the_row_major_oracle",),
    ),
    Mutant(
        "the containing count takes a candidate at 1 + eps as outside",
        "_batch.py",
        "np.add.reduce(h <= 1.0 + eps, axis=0)",
        "np.add.reduce(h < 1.0 + eps, axis=0)",
        ("tests/test_honeycomb.py::test_containing_counts_match_the_exhaustive_oracle",),
    ),
    Mutant(
        "_stable_rank breaks ties unstably",
        "_batch.py",
        "moves = np.less(f[i + 1 :], f[i],",
        "moves = np.less_equal(f[i + 1 :], f[i],",
        ("tests/test_honeycomb.py::test_stable_rank_matches_two_argsorts",),
    ),
    Mutant(
        "_verify_block calls a snapped row with two centers interior",
        "_batch.py",
        "        interior &= ~snapped | (count == 1)\n",
        "        pass\n",
        ("tests/test_honeycomb.py::test_verify_block_applies_the_status_rule_to_wrong_answers",),
    ),
    Mutant(
        "the batch closure keeps -0.0",
        "_batch.py",
        "    L += 0.0\n",
        "",
        ("tests/test_geodesy.py::test_every_zero_bound_is_stored_as_positive_zero",),
    ),
    Mutant(
        "_fast_center raises too few coordinates at a tie at the cut",
        "honeycomb.py",
        "        if cut != least:\n",
        "        if True:\n",
        ("tests/test_honeycomb.py::test_fast_center_breaks_a_tie_at_the_cut_by_index",),
    ),
    # the two clauses the probe found no test for, closed since
    Mutant(
        "_verify_block's boundary rule without count < 2",
        "_batch.py",
        "far = (d > 1.0 + eps) | ((np.abs(d - 1.0) > eps) & (count < 2))",
        "far = d > 1.0 + eps",
        ("tests/test_honeycomb.py::test_verify_block_applies_the_status_rule_to_wrong_answers",),
    ),
    Mutant(
        "segment without its in-loop dedupe",
        "core.py",
        "        if p != last:\n",
        "        if True:\n",
        ("tests/test_core.py::test_segment_drops_a_stop_that_rounds_back_onto_the_start",),
    ),
    Mutant(
        "locate's status without len(all_centers) == 1",
        "honeycomb.py",
        'status = "interior" if (d < 1.0 - eps and len(all_centers) == 1) else "boundary"',
        'status = "interior" if d < 1.0 - eps else "boundary"',
        equivalent="distinct centers lie at least 2 apart, since a root's norm is 2, so "
        "with d < 1 - eps no second center lies within 1 + eps in exact arithmetic; "
        "only the rounding of two distances could list one",
    ),
    # the batch locator only flags a snapped row, and scalar locate answers it
    Mutant(
        "_verify_block keeps the batch distance of a snapped row",
        "_batch.py",
        "            d[idx], count[idx] = res.distance, len(res.all_centers)\n",
        "            count[idx] = len(res.all_centers)\n",
        ("tests/test_honeycomb.py::test_verify_block_applies_the_status_rule_to_wrong_answers",),
    ),
    # mended bugs that were one clause, after their CHANGES.md MENDED lines
    Mutant(
        "_fast_center takes a raised delta as 1 - f, rounded twice (item 17)",
        "honeycomb.py",
        "    if k and least >= 0.5 and -1 in floors and (\n",
        "    if False and (\n",
        ("tests/test_honeycomb.py::test_fast_center_matches_the_rounding_rule_bit_for_bit",),
    ),
    Mutant(
        "as_point rejects finite coordinates whose sum overflows",
        "core.py",
        "    if s - s != 0.0 and not all(map(math.isfinite, pt)):\n"
        '        raise DomainError("coordinates must be finite',
        "    if s - s != 0.0:\n"
        '        raise DomainError("coordinates must be finite',
        ("tests/test_core.py::test_as_point_matches_its_first_body",
         "tests/test_core.py::test_metric_overflow_is_a_domain_error"),
    ),
    Mutant(
        "check_eps takes an eps of 1/4 or more",
        "core.py",
        "        ok = 0 < eps < 0.25\n",
        "        ok = 0 < eps\n",
        ("tests/test_core.py::test_every_entry_point_rejects_a_bad_eps",),
    ),
    Mutant(
        "check_eps leaks the TypeError of an eps that is no number",
        "core.py",
        "    except (TypeError, ValueError):  # not a number, or not one number\n",
        "    except ValueError:\n",
        ("tests/test_entry_checks.py::test_a_bad_eps_raises_a_library_error",),
    ),
    Mutant(
        "a dimension that is no integer leaks a TypeError",
        "core.py",
        '    n = _as_int("dimension", n)\n',
        "",
        ("tests/test_core.py::test_a_bad_dimension_or_box_raises_domain_error",),
    ),
    Mutant(
        "lp_distances returns inf from finite input",
        "core.py",
        "    return _finite(sum(deltas)), _finite(max(deltas))\n",
        "    return sum(deltas), max(deltas)\n",
        ("tests/test_core.py::test_metric_overflow_is_a_domain_error",),
    ),
    Mutant(
        "format_number prints a large lattice coordinate as a float",
        "core.py",
        "    if isinstance(v, int):\n        return str(v)\n",
        "",
        ("tests/test_cli.py::test_honeycomb_locate_prints_large_centers_exactly",),
    ),
    Mutant(
        "hrep lets its difference bounds overflow",
        "ball.py",
        "        raise DomainError(\"the ball's difference bound overflows float64\")\n",
        "        pass\n",
        ("tests/test_ball.py::test_hrep_names_the_bound_that_overflows",),
    ),
    Mutant(
        "iter_vertices checks its dimension on the first next()",
        "ball.py",
        "    return _vertices(_as_dim(n))\n",
        "    return _vertices(n)\n",
        ("tests/test_ball.py::test_iter_vertices_checks_the_dimension_at_the_call",),
    ),
    Mutant(
        "the closure leaks numpy's TypeError for a difference table of non-numbers",
        "_batch.py",
        "        except (TypeError, ValueError, OverflowError) as exc:\n"
        '            raise DimensionMismatch("diff_lb must be',
        "        except (ValueError, OverflowError) as exc:\n"
        '            raise DimensionMismatch("diff_lb must be',
        ("tests/test_geodesy.py::test_region_rejects_a_malformed_difference_table",),
    ),
    Mutant(
        "hull lets its differences overflow",
        "_batch.py",
        "    if not np.isfinite(diff).all():\n"
        '        raise DomainError("coordinate differences overflow float64")\n',
        "",
        ("tests/test_geodesy.py::test_bound_overflow_is_a_domain_error",),
    ),
    Mutant(
        "curve_length's bracket is its last estimate twice",
        "geodesy.py",
        "    bracket = (cur if prev is None else prev, cur)\n",
        "    bracket = (cur, cur)\n",
        ("tests/test_geodesy.py::test_curve_length_reports_bracket_on_nonconvergence",),
    ),
    Mutant(
        "is_geodesic calls no point a geodesic",
        "geodesy.py",
        "    pts = [as_point(p) for p in points]\n    # _length runs first",
        "    pts = [as_point(p) for p in points]\n"
        "    if len(pts) < 2:\n"
        "        return True\n"
        "    # _length runs first",
        ("tests/test_geodesy.py::test_is_geodesic_worked_values",),
    ),
]


def _test_defined(node_id: str) -> bool:
    """Whether the file of a node id defines its test, at module level or in
    its class; a parametrized id is looked up without its [...] part."""
    path, *names = node_id.split("[")[0].split("::")
    full = os.path.join(ROOT, path)
    if not names or not os.path.isfile(full):
        return False
    with open(full) as f:
        body = ast.parse(f.read()).body
    for name in names:
        found = [node for node in body if getattr(node, "name", None) == name]
        if not found:
            return False
        body = getattr(found[0], "body", [])
    return True


def problems(row: Mutant) -> list:
    """What is wrong with a row, without running it: an old text that does
    not occur exactly once, or a missing or extra test list."""
    out = []
    with open(os.path.join(ROOT, "src", "tropgeo", row.path)) as f:
        count = f.read().count(row.old)
    if count != 1:
        out.append("its old text occurs %d times in %s" % (count, row.path))
    if bool(row.tests) == bool(row.equivalent):
        out.append("it needs either tests that kill it or a reason it is equivalent")
    out += ["test %s does not exist" % t for t in row.tests if not _test_defined(t)]
    return out


def _copy(tmp: str, row=None) -> str:
    """A fresh copy of src, tests and pyproject.toml under tmp, with row
    applied."""
    root = tempfile.mkdtemp(dir=tmp)
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(root, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), root)
    if row is not None:
        path = os.path.join(root, "src", "tropgeo", row.path)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace(row.old, row.new))
    return root


def _pytest(root: str, tests) -> tuple:
    """The exit code of pytest -x -q on tests, run in root on root's src,
    and the summary line of its failed test, if any."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        return -1, "timed out after %d s" % TIMEOUT
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, (failed or [""])[0]


def main() -> int:
    failed = False
    for row in MUTANTS:
        for problem in problems(row):
            print("%s: %s" % (row.name, problem))
            failed = True
    if failed:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for r in MUTANTS for t in r.tests})
        code, failure = _pytest(_copy(tmp), tests)
        if code != 0:
            print("the unchanged copy fails its named tests (pytest exit %d) %s" % (code, failure))
            return 1
        for row in MUTANTS:
            if row.equivalent:
                print("equivalent  %s: %s" % (row.name, row.equivalent))
                continue
            start = time.perf_counter()
            code, failure = _pytest(_copy(tmp, row), row.tests)
            # pytest exits 1 when a test failed; any other code is an error
            # of the run, not a kill
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR (exit %d)" % code)
            print("%-11s %s (%.1f s)" % (verdict, row.name, time.perf_counter() - start))
            if failure:
                print("            %s" % failure)
            failed = failed or code != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
