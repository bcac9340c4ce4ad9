"""The README's examples run and print what it says."""

import re
from pathlib import Path

from qwasser.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block uses the first one's imports
        exec(compile(block, "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    _, status, gap = lines[0].split()
    assert status == "converged" and float(gap) <= 1e-8
    # the pi turn about z through rotation_to_unitary: a D_z isometry that keeps b3
    assert lines[1:] == ["isometry_within_tol", "True"]


def test_distance_transcript(capsys):
    m = re.search(r"^\$ qwasser (distance --cost z plus_z minus_z)\n(.*?)\n\n", README, re.M | re.S)
    assert m is not None
    assert main(m.group(1).split()) == 0
    assert capsys.readouterr().out == m.group(2) + "\n"
