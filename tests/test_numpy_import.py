"""numpy is imported only by the code that computes with it.

``import fairsic`` and the Gaussian desk commands never load it; the DMC
backend, the axiom gate, ``validate`` and ``gen`` load it on first use.
Each case runs in a fresh interpreter, since an imported module stays in
``sys.modules`` for the rest of a process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairsic.cli
from fairsic.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
TWO_USER = str(SCENARIOS / "two_user_gaussian.json")
TABULATED = str(SCENARIOS / "tabulated_two_user.json")
XOR_DMC = str(SCENARIOS / "xor_dmc.json")

GAUSSIAN_COMMANDS = [
    ["solve", "--scenario", TWO_USER],
    ["solve", "--format", "structured", "--scenario", TWO_USER],
    ["rates", "--scenario", TWO_USER, "--profile", "2 1; 2"],
    ["certify", "--scenario", TWO_USER],
]

# Runs ``fairsic.cli.main`` on each argv list in argv[2]; with argv[1] ==
# "block", as if numpy were not installed.  Prints a JSON list: whether numpy
# was loaded after ``import fairsic``, then per command its exit code, stdout,
# stderr and whether numpy was loaded after it.
PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import fairsic.cli
results = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fairsic.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps(results))
"""


def probe(mode, *commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, mode, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_gaussian_commands_never_load_numpy():
    tabulated = [
        ["rates", "--scenario", TABULATED, "--profile", "2 1; 2"],
        ["solve", "--force", "--scenario", TABULATED],
    ]
    imported, *results = probe("keep", *GAUSSIAN_COMMANDS, *tabulated)
    assert imported is False
    assert [(code, loaded) for code, _, _, loaded in results] == [(0, False)] * 6


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--scenario", TWO_USER],
        ["solve", "--scenario", XOR_DMC],
        ["solve", "--scenario", TABULATED],
        ["gen", "--kind", "gaussian", "--k", "2", "--seed", "1"],
    ],
)
def test_numpy_loads_on_first_use(argv):
    imported, (code, _, _, loaded) = probe("keep", argv)
    assert (imported, code, loaded) == (False, 0, True)


def test_without_numpy_gaussian_commands_run_and_the_others_refuse(capsys):
    needs_numpy = [
        ["solve", "--scenario", XOR_DMC],
        ["validate", "--scenario", TWO_USER],
        ["gen", "--kind", "dmc", "--k", "2", "--seed", "1"],
    ]
    _, *results = probe("block", *needs_numpy, *GAUSSIAN_COMMANDS)
    for argv, (code, out, err, _) in zip(needs_numpy, results):
        message = f"error: {argv[0]} on this input needs numpy, which is not installed\n"
        assert (code, out, err) == (1, "", message)
    for argv, (code, out, err, _) in zip(GAUSSIAN_COMMANDS, results[len(needs_numpy):]):
        assert (code, out, err) == (main(argv), capsys.readouterr().out, "")


def test_other_missing_modules_propagate(monkeypatch):
    def missing(*args, **kwargs):
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

    monkeypatch.setattr(fairsic.cli, "generate_channel", missing)
    with pytest.raises(ModuleNotFoundError):
        main(["gen", "--kind", "gaussian", "--k", "2", "--seed", "1"])
