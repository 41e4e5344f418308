"""Import hygiene: the package loads lazily and the runtime never needs scipy."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import polyslip
from polyslip.geometry import polycrystal_to_dict, quadrant_disk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_fresh(argv, watch=("scipy", "numpy")) -> dict:
    """``cli.run(argv)`` in a fresh interpreter: its status and the loaded modules
    that are, or belong to a top-level package, named in ``watch``."""
    code = (
        "import contextlib, io, json, sys\n"
        "import polyslip.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.run({argv!r})\n"
        f"watch = {tuple(watch)!r}\n"
        "loaded = sorted(m for m in sys.modules if m in watch or m.split('.')[0] in watch)\n"
        "print(json.dumps({'status': status, 'loaded': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_taylor_subcommand_loads_neither_scipy_nor_numpy():
    assert _run_fresh(["taylor", "--angles", "0,1"]) == {"status": 0, "loaded": []}


def test_outer_subcommand_loads_neither_scipy_nor_numpy(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    argv = ["outer", "--polycrystal", str(path), "--matrix", "1,0,0,1"]
    assert _run_fresh(argv) == {"status": 0, "loaded": []}


@pytest.mark.parametrize("argv", [
    ["taylor", "--angles", "0,1"],
    ["member", "--angles", "0,1", "--matrix", "1,0,0,1"],
    ["member", "--angles", "0,1", "--matrix", "1,0,0,1", "--space", "M"],
], ids=["taylor", "member", "member-M"])
def test_taylor_subcommands_load_only_what_they_call(argv):
    unused = ("scipy", "numpy", "polyslip.shear_square", "polyslip.compat", "polyslip.svg",
              "fractions")
    assert _run_fresh(argv, unused) == {"status": 0, "loaded": []}


def test_subcommands_that_call_no_taylor_function_do_not_load_it(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    for argv in (["compat", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--normal", "1,0"],
                 ["laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", "1,1"],
                 ["outer", "--polycrystal", str(path), "--matrix", "1,0,0,1"]):
        assert _run_fresh(argv, ("polyslip.taylor",)) == {"status": 0, "loaded": []}, argv[0]


def test_every_public_name_resolves():
    for name in polyslip.__all__:
        assert getattr(polyslip, name) is not None, name
    assert "connector_search" not in polyslip.__all__
    assert polyslip.geometry.ANGULAR_TOL == polyslip.mat2.ANGULAR_TOL


def test_every_submodule_resolves_by_attribute(monkeypatch):
    for name in sorted(polyslip._SUBMODULES):
        module = importlib.import_module(f"polyslip.{name}")
        monkeypatch.delattr(polyslip, name, raising=False)  # unbound: the lookup takes __getattr__
        assert getattr(polyslip, name) is module, name
    assert set(dir(polyslip)) >= set(polyslip.__all__) | polyslip._SUBMODULES


def test_star_import():
    namespace = {}
    exec("from polyslip import *", namespace)
    assert set(polyslip.__all__) <= set(namespace)


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(polycrystal_to_dict(quadrant_disk())))
    subcommands = {
        "taylor": ["taylor", "--angles", "0,1"],
        "member": ["member", "--angles", "0,1", "--matrix", "1,0,0,1"],
        "member-M": ["member", "--angles", "0,1", "--matrix", "1,0,0,1", "--space", "M"],
        "compat": ["compat", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--normal", "1,0"],
        "laminate": ["laminate", "--matrix", "2,0,0,0.5", "--slip", "1,0", "--slip2", "1,1"],
        "lambda-plot": ["lambda-plot", "--thetas", "0.314,2.827", "--grid", "8",
                        "--svg", str(tmp_path / "r.svg")],
        "outer": ["outer", "--polycrystal", str(path), "--matrix", "1,0,0,1"],
        "shear": ["shear", "--gamma", "1/2", "--verify"],
        "mc": ["mc", "--k", "3", "--n", "100", "--seed", "1"],
    }
    for name, argv in subcommands.items():
        # numpy imports inspect, so mc, the one subcommand that loads numpy, is exempt from it
        watch = ("dataclasses",) if name == "mc" else ("dataclasses", "inspect")
        assert _run_fresh(argv, watch) == {"status": 0, "loaded": []}, name
