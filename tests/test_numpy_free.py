"""numpy stays off the scalar path.

Only ``tropgeo._batch`` imports numpy, and only the batch entry points
(region construction, ``hull``, ``contains_batch``, ``verify_tiling``)
import ``_batch``.  Each test runs a fresh interpreter, since this process
has numpy loaded already.
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
    ["--format", "csv", "honeycomb", "plot2d", "--box", "3"],
]

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
    proc = python("-c", BLOCKED_CLI, *BATCH_EXAMPLES[0])
    assert proc.returncode != 0
    assert "numpy" in proc.stderr


@pytest.mark.parametrize("argv", BATCH_EXAMPLES, ids=" ".join)
def test_batch_commands_run_with_numpy(capsys, argv):
    proc = python("-m", "tropgeo.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == in_process(capsys, argv)
