"""Bitwise and structural pins of the scanner's reports.

``tests/data/scan-equivalence.json`` holds, for each builtin surface case
and grid, the sha256 of ``repr(find_complex_points(surface, grid))`` and
a structural record of the same report: per point the chart, winding
index, sign, type, location and alpha.  A refactor of the scanner that
must not change its output is checked against the digests.  A change
that moves results on purpose must still match the record, with the
structure exact, each location to 1e-12 and each alpha to 1e-7
relative; it regenerates the pin with ``python
tests/test_scan_equivalence.py`` and says why.  The digests depend on
the floating-point results of the numpy build they were made with.
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


def _reports(name, grids=GRIDS, jet=True):
    make, *args = SURFACES[name]
    surface = make(*args)
    if not jet:
        surface = dataclasses.replace(surface, charts=tuple(dataclasses.replace(c, jet=None) for c in surface.charts))
    return {f"{name}@{grid}": find_complex_points(surface, grid) for grid in grids}


def _digest(points):
    return hashlib.sha256(repr(points).encode()).hexdigest()


def _structure(points):
    return [
        {"chart": p.chart, "winding": p.winding_index, "sign": p.sign, "type": p.ptype.value,
         "location": list(p.location), "alpha": p.alpha}
        for p in points
    ]


def _assert_structure_matches(points, pinned):
    found = _structure(points)
    assert len(found) == len(pinned)
    for p, q in zip(found, pinned):
        assert p.pop("location") == pytest.approx(q.pop("location"), abs=1e-12)
        assert p.pop("alpha") == pytest.approx(q.pop("alpha"), rel=1e-7, abs=0.0)
        assert p == q


def test_pin_covers_every_case():
    assert sorted(json.loads(PIN.read_text())) == sorted(
        f"{name}@{grid}" for name in SURFACES for grid in GRIDS
    )


@pytest.mark.parametrize("name", list(SURFACES))
def test_reports_match_the_pin(name):
    pin = json.loads(PIN.read_text())
    reports = _reports(name)
    for case, points in reports.items():
        _assert_structure_matches(points, pin[case]["points"])
    changed = [case for case, points in reports.items() if pin[case]["sha256"] != _digest(points)]
    assert not changed, f"scanner reports changed for {changed}"


@pytest.mark.parametrize(
    "name",
    ["wrinkled-sphere:0.35", "wrinkled-sphere:0.6", "round-sphere", "flat-torus", "graph-normal-form:2.0"],
)
def test_charts_without_a_jet_match_the_pin(name):
    """A chart without a jet reads grad delta from ``_probe``'s stencil,
    which must reproduce the pinned structure of the builtin surfaces."""
    pin = json.loads(PIN.read_text())
    for case, points in _reports(name, (64, 256), jet=False).items():
        _assert_structure_matches(points, pin[case]["points"])


if __name__ == "__main__":
    pin = {
        case: {"sha256": _digest(points), "points": _structure(points)}
        for name in SURFACES for case, points in _reports(name).items()
    }
    lines = (f"{json.dumps(case)}: {json.dumps(record)}" for case, record in pin.items())
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pin)} cases to {PIN}", file=sys.stderr)
