"""Smoke test: every demo script runs to the end and writes its artifacts."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import polyslip

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(polyslip.__file__)))

ARTIFACTS = {
    "01_taylor_regions.py": ["taylor_regions.svg", "taylor_regions.csv"],
    "02_compatibility_and_laminates.py": [],
    "03_outer_bounds.py": [],
    "04_random_textures.py": [],
    "05_sheared_square.py": ["sheared_square.svg", "sheared_square_mesh.json"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(ARTIFACTS)


@pytest.mark.parametrize("demo", sorted(ARTIFACTS))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS[demo])
    for name in ARTIFACTS[demo]:
        text = (tmp_path / name).read_text()
        if name.endswith(".svg"):
            assert text.startswith("<svg") and text.endswith("</svg>\n")
        elif name.endswith(".json"):
            json.loads(text)
        else:
            assert text.startswith("theta,beta,gamma_minus,gamma_plus\n")
