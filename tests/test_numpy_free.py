"""numpy stays off the scalar path, and each module loads on first use.

Only ``tropgeo._batch`` imports numpy, and only the batch entry points
import ``_batch``: ``contains_batch``, ``verify_tiling``, and a region or a
``hull`` above ``geodesy._SMALL_WORK`` (a closure past n = 6, an ndarray).
Small regions and hulls, such as the CLI's ``hull``, ``classify2d`` and
``honeycomb neighbors`` examples, close in pure Python.  ``import tropgeo``
loads no submodule; a CLI command loads only the modules it runs, and a
region closed in numpy loads ``core``, ``geodesy`` and ``_batch``.  Each
test runs a fresh interpreter, since this process has every module loaded
already.
"""

import os
import subprocess
import sys

import pytest

from tropgeo.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# sys.modules["numpy"] = None makes every later "import numpy" raise
BLOCKED_CLI = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from tropgeo.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)

NUMPY_FREE_EXAMPLES = [
    ["dist", "0,0", "1,2"],
    ["norm", "--", "-3,-2,1"],
    ["segment", "0,0", "2,1"],
    ["circle-length", "--radius", "1"],
    ["ball", "decompose", "--point=-0.4,0.3"],
    ["sphere", "poles", "--point", "0.2,1"],
    ["honeycomb", "locate", "--point", "1.2,0.7"],
    # a boundary point: locate lists its containing centers
    ["honeycomb", "locate", "--point", "1,0"],
    ["--format", "csv", "honeycomb", "plot2d", "--box", "3"],
    # small bound systems, closed in pure Python
    ["hull", "0,0,0", "1,0,0", "1,1,0", "1,1,1"],
    ["classify2d", "--a=-1", "--a2", "1", "--b=-1", "--b2", "1", "--c=-1", "--c2", "1"],
    ["honeycomb", "neighbors", "--center", "0,0"],
]

# prints the exit code and which of the space-separated modules in argv[1]
# a CLI command (the rest of argv) leaves loaded
LOADED_BY_CLI = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "from tropgeo.cli import main\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[2:])\n"
    "print(code, sorted(set(sys.argv[1].split()) & set(sys.modules)))\n"
)

# runs its code after asserting that import tropgeo loaded no submodule
LAZY_PACKAGE = (
    "import sys\n"
    "import tropgeo\n"
    "def submodules():\n"
    "    return sorted(m for m in sys.modules if m.startswith('tropgeo.'))\n"
    "assert submodules() == [], submodules()\n"
)

# run with numpy importable; only verify needs it
BATCH_EXAMPLES = [
    ["hull", "0,0,0", "1,0,0", "1,1,0", "1,1,1"],
    ["--seed", "7", "honeycomb", "verify", "--dim", "2", "--samples", "2000"],
]


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60, check=False)


def in_process(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_importing_the_package_and_the_cli_loads_no_numpy():
    # nor fractions, which only spans_same_lattice needs and which brings
    # decimal and numbers with it
    proc = python("-c", "import sys, tropgeo, tropgeo.cli; "
                  "print(sorted({'numpy', 'fractions'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv", NUMPY_FREE_EXAMPLES, ids=" ".join)
def test_scalar_commands_run_with_numpy_unimportable(capsys, argv):
    proc = python("-c", BLOCKED_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == in_process(capsys, argv)


def test_a_batch_command_fails_with_numpy_unimportable():
    # the blocking above must bite, or the scalar tests would prove nothing
    proc = python("-c", BLOCKED_CLI, *BATCH_EXAMPLES[1])
    assert proc.returncode != 0
    assert "numpy" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["honeycomb", "verify", "--dim", "9007199254740993", "--samples", "1"],
     ["honeycomb", "basis", "--dim", "9007199254740993"],
     ["ball", "hrep", "--dim", "9007199254740993"]],
    ids=["verify", "basis", "hrep"],
)
def test_a_dimension_above_its_cap_fails_before_numpy_loads(argv):
    # one error line, where a MemoryError traceback was
    proc = python("-c", BLOCKED_CLI, *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", BATCH_EXAMPLES, ids=" ".join)
def test_batch_commands_run_with_numpy(capsys, argv):
    proc = python("-m", "tropgeo.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == in_process(capsys, argv)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["dist", "0,0", "1,2"],
         ["tropgeo.geodesy", "tropgeo.ball", "tropgeo.honeycomb", "logging", "numpy",
          "dataclasses", "inspect"]),
        (["honeycomb", "locate", "--point", "1.2,0.7"],
         ["tropgeo.geodesy", "logging", "numpy", "dataclasses", "inspect"]),
        (["ball", "decompose", "--point=-0.4,0.3"],
         ["tropgeo.geodesy", "tropgeo.honeycomb", "dataclasses", "numpy"]),
        (["hull", "0,0,0", "1,0,0", "1,1,0", "1,1,1"],
         ["tropgeo._batch", "tropgeo.ball", "tropgeo.honeycomb", "numpy", "dataclasses"]),
    ],
    ids=["dist", "honeycomb locate", "ball decompose", "hull"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    proc = python("-c", LOADED_BY_CLI, " ".join(unloaded), *argv)
    assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr


def test_a_region_closed_in_numpy_loads_core_geodesy_and_batch_only():
    # _batch loads honeycomb only for verify_tiling's snapped rows
    proc = python("-c", (
        "import sys\n"
        "import numpy as np\n"
        "import tropgeo as tg\n"
        "region = tg.hull(np.arange(72.0).reshape(9, 8))\n"
        "assert region.contains_batch(np.zeros((5, 8))).shape == (5,)\n"
        "print(sorted(m for m in sys.modules if m.startswith('tropgeo.')))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['tropgeo._batch', 'tropgeo.core', 'tropgeo.geodesy']\n"


def test_circle_length_loads_neither_ball_nor_numpy():
    # it reads the radius by Ball's rule, which lives in core
    proc = python("-c", LOADED_BY_CLI, "tropgeo.ball tropgeo.honeycomb numpy",
                  "circle-length", "--radius", "1")
    assert (proc.returncode, proc.stdout) == (0, "0 []\n"), proc.stderr


def test_importtime_lists_every_module_a_command_loads():
    # the package loads a submodule through __import__, whose path
    # -X importtime times; importlib.import_module leaves it out of the log
    proc = python("-X", "importtime", "-m", "tropgeo.cli", "honeycomb", "locate",
                  "--point", "1.2,0.7")
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"tropgeo.core", "tropgeo.ball", "tropgeo.honeycomb"} <= listed


def test_star_import_binds_every_public_name():
    proc = python("-c", LAZY_PACKAGE + (
        "ns = {}\n"
        "exec('from tropgeo import *', ns)\n"
        "print(sorted(set(tropgeo.__all__) - set(ns)))\n"
    ))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_every_public_name_is_its_modules_object_and_named_once():
    proc = python("-c", LAZY_PACKAGE + (
        "named = [x for names in tropgeo._EXPORTS.values() for x in names]\n"
        "assert sorted(named + ['__version__']) == sorted(set(tropgeo.__all__))\n"
        "print([x for m, names in tropgeo._EXPORTS.items() for x in names\n"
        "       if getattr(getattr(tropgeo, m), x) is not getattr(tropgeo, x)])\n"
    ))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_dir_lists_every_public_name_and_loads_nothing():
    proc = python("-c", LAZY_PACKAGE + (
        "print(sorted(set(tropgeo.__all__) - set(dir(tropgeo))), submodules())\n"
    ))
    assert (proc.returncode, proc.stdout) == (0, "[] []\n"), proc.stderr


def test_an_unknown_attribute_raises_and_loads_nothing():
    proc = python("-c", LAZY_PACKAGE + (
        "try:\n"
        "    tropgeo.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc, submodules())\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'tropgeo' has no attribute 'no_such_name' []\n"
