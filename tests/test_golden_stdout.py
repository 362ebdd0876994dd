"""CLI stdout pinned byte for byte against committed captures.

Criterion 12 only checks that reruns agree with each other; these captures
pin the output itself, so a refactor that moves a single printed digit fails
here. ``tests/golden/<name>.out`` holds the stdout of each command below.
"""

import json
from pathlib import Path

import pytest

from contest_forge import compstat
from contest_forge.cli import main
from test_cli import CONTEST_DOC, RECT_DOC

GOLDEN = Path(__file__).resolve().parent / "golden"

# criterion 12's seven commands, then a large design and a JSON breakpoint table
COMMANDS = {
    "design": ["design", "--n", "5", "--prize", "1", "--cost", "0.4"],
    "compstat": ["compstat", "--n", "10"],
    "poisson": ["poisson", "--prize", "1", "--cost", "0.3"],
    "scan": ["scan", "--vc-min", "50", "--vc-max", "500", "--steps", "3"],
    "hetero_eq": ["hetero-eq", "--dist", "{dist}", "--contest", "{contest}",
                  "--n", "6", "--m", "60", "--seed", "5"],
    "approx": ["approx", "--dist", "{dist}", "--n", "6", "--prize", "1",
               "--m", "60", "--replicas", "500", "--seed", "5"],
    "example_obj": ["example-obj", "--prize", "160", "--n", "200", "--eps", "0.01",
                    "--seed", "1"],
    "design_n2000": ["design", "--n", "2000", "--prize", "500", "--cost", "1"],
    "compstat_n300_json": ["compstat", "--n", "300", "--format", "json"],
}


def cli_stdout(capsys, tmp_path, argv):
    """Run one command in-process and return its stdout."""
    dist = tmp_path / "dist.json"
    contest = tmp_path / "contest.json"
    dist.write_text(json.dumps(RECT_DOC))
    contest.write_text(json.dumps(CONTEST_DOC))
    argv = [arg.format(dist=dist, contest=contest) for arg in argv]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_capture(capsys, tmp_path, name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert cli_stdout(capsys, tmp_path, COMMANDS[name]) == want


@pytest.mark.parametrize("name", ["compstat", "compstat_n300_json"])
def test_stdout_from_a_kept_breakpoint_chain_matches_capture(capsys, tmp_path, name):
    """The second run reads the chain the first one solved."""
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert cli_stdout(capsys, tmp_path, COMMANDS[name]) == want
    assert cli_stdout(capsys, tmp_path, COMMANDS[name]) == want
    assert compstat._breakpoint_chain.cache_info().hits == 1
