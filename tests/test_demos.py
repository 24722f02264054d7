"""Every demo script runs to completion, and prints what it printed when its
output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: The sha256 of each demo's stdout.  The demos are deterministic: each
#: digest is the same under any PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_terms_and_normal_forms.py": "cc5d481f04caf55b378cb0a37d67ac001097abeb24b5ada5d49ef019d2fe3754",
    "02_unification_and_operators.py": "348801b66ef36fd4c48b303a03633ef2752ff98add73e17d4e9c20145a29bf75",
    "03_tree_diagram_groups.py": "0babe0291dc2d3c23f9a2505fd3989f377e0905c0d0e14f27f634c2bb554266c",
    "04_axiom_soundness.py": "3ef03adae5022e87e614aab422b54401e4f8483e04ff02043c1d9e4a5cc2e266",
    "05_coherence_and_symmetry.py": "6c3500d2138d796adb32245a33ab9c5567b5fcfcc25995d0ee95ca8af1bfaa9d",
}


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()


def test_demo_outputs_are_pinned():
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]
    for demo in DEMOS:
        out = _run(demo).stdout
        assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[demo.name], demo.name
