"""Golden CLI corpus: stdout, exit codes and written files stay byte-identical.

``tests/data/cli_golden.json`` records, for each argv, the exit code, the
exact stdout and the sha256 of every file the command writes, together
with the polycrystal inputs the ``outer`` cases read.  It was recorded
before the closed forms were merged into one kernel each, so any change
in these bytes is a behaviour change, not a refactor.  The two
lambda-plot SVG digests (``r.svg``, ``d.svg``) were re-recorded when the
regions changed from one rectangle per raster cell to one polygon per
angle; the CSV digests and stdout of those cases did not change.  All
five lambda-plot file digests were re-recorded once more when the shear
interval became exact at beta = 1 (each curve's top row ends at 0.0) and the
rows came to be sampled quadratically toward the tip; stdout did not change.
"""

import hashlib
import json
import pathlib

import pytest

from polyslip.cli import run

CORPUS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, content in CORPUS["inputs"].items():
        (tmp_path / name).write_text(json.dumps(content))
    return tmp_path


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_corpus(case, workdir, capsys):
    code = run(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    for name, digest in case["files"].items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("case", [c for c in CORPUS["cases"] if c["argv"][0] == "outer"],
                         ids=lambda c: " ".join(c["argv"]))
def test_outer_analyzes_boundary_once(case, workdir, capsys, monkeypatch):
    from polyslip import geometry
    calls = []
    analyze = geometry._analyze_boundary  # the computation behind the memo

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(geometry, "_analyze_boundary", counted)
    assert run(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    assert len(calls) == 1


def test_corpus_covers_every_subcommand_and_format():
    argvs = [c["argv"] for c in CORPUS["cases"]]
    assert {a[0] for a in argvs} == {"taylor", "member", "compat", "laminate", "outer",
                                     "mc", "shear", "lambda-plot"}
    assert any("csv" in a for a in argvs)
    assert sum(bool(c["files"]) for c in CORPUS["cases"]) >= 3
