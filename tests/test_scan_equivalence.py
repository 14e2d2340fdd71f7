"""Bitwise pin of the scanner's reports.

``tests/data/scan-equivalence.json`` holds, for each builtin surface case
and grid, the sha256 of ``repr(find_complex_points(surface, grid))``.  A
refactor of the scanner that must not change its output is checked
against it; a change that moves results on purpose regenerates the pin
with ``python tests/test_scan_equivalence.py`` and says why.  The digests
depend on the floating-point results of the numpy build they were made
with.
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from realsurf.bishop import find_complex_points, flat_torus, graph_normal_form, round_sphere, wrinkled_sphere

PIN = Path(__file__).resolve().parent / "data" / "scan-equivalence.json"

GRIDS = (32, 64, 128, 256)
_EPS = (0.05, 0.2, 0.35, 0.45, 0.503, 0.6, 0.7, 0.761574153176165, 0.8441278066920379, 0.95)
_ALPHAS = (0.0, 0.3, 0.7, 1.3, 2.0, 4.0, math.inf)

SURFACES = {
    **{f"wrinkled-sphere:{eps!r}": (wrinkled_sphere, eps) for eps in _EPS},
    "round-sphere": (round_sphere,),
    "flat-torus": (flat_torus,),
    **{f"graph-normal-form:{a!r}": (graph_normal_form, a) for a in _ALPHAS},
}


def _digests(name, grids=GRIDS, jet=True):
    make, *args = SURFACES[name]
    surface = make(*args)
    if not jet:
        surface = dataclasses.replace(surface, charts=tuple(dataclasses.replace(c, jet=None) for c in surface.charts))
    return {
        f"{name}@{grid}": hashlib.sha256(repr(find_complex_points(surface, grid)).encode()).hexdigest()
        for grid in grids
    }


def test_pin_covers_every_case():
    assert sorted(json.loads(PIN.read_text())) == sorted(
        f"{name}@{grid}" for name in SURFACES for grid in GRIDS
    )


@pytest.mark.parametrize("name", list(SURFACES))
def test_reports_match_the_pin(name):
    pin = json.loads(PIN.read_text())
    changed = [case for case, digest in _digests(name).items() if pin[case] != digest]
    assert not changed, f"scanner reports changed for {changed}"


@pytest.mark.parametrize(
    "name",
    ["wrinkled-sphere:0.35", "wrinkled-sphere:0.6", "round-sphere", "flat-torus", "graph-normal-form:2.0"],
)
def test_charts_without_a_jet_match_the_pin(name):
    """A chart without a jet takes the coarse pass's difference branch,
    which must reproduce the pinned reports of the builtin surfaces."""
    pin = json.loads(PIN.read_text())
    changed = [case for case, digest in _digests(name, (64, 256), jet=False).items() if pin[case] != digest]
    assert not changed, f"scanner reports changed without the jet for {changed}"


if __name__ == "__main__":
    pin = {case: digest for name in SURFACES for case, digest in _digests(name).items()}
    PIN.write_text(json.dumps(pin, indent=2) + "\n")
    print(f"wrote {len(pin)} digests to {PIN}", file=sys.stderr)
