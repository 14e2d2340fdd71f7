"""Structural pin of the scanner on seeded synthetic charts.

``tests/data/scan-synthetic.json`` holds, for each case and grid, what
``find_complex_points`` reports: per point the chart, winding index,
sign, type and location.  The cases are the charts a coarse grid pass is most likely to get wrong,
where ``tests/data/scan-equivalence.json`` pins only analytic builtins:

- bumpy graphs w = |z|^2 / 2 + a sum of one to three complex sinusoids,
  given without partials, so the scan differentiates them numerically;
- close pairs, delta = (z - a) conj(z - c) with |a - c| from 1e-3 to 0.3
  (a pair inside one cell winds 0 and is reported by neither pass).

Structure must match exactly and each location to 1e-10.  The pin was
generated with the full-lattice grid pass (commit a8f2d01) by
``python tests/test_scan_synthetic.py``; run it again only for a change
that moves the reports on purpose, and say why.
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from realsurf.bishop import Chart, ParametrizedSurface, find_complex_points

PIN = Path(__file__).resolve().parent / "data" / "scan-synthetic.json"

GRIDS = (64, 256)


def bumpy_graph(seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(rng.randint(1, 3)):
        k, theta = rng.uniform(3.0, 20.0), rng.uniform(0.0, 2 * math.pi)
        amplitude = rng.uniform(0.4, 1.5) / k * complex(math.cos(rng.uniform(0, 6.3)), math.sin(rng.uniform(0, 6.3)))
        terms.append((amplitude, k * math.cos(theta), k * math.sin(theta), rng.uniform(0.0, 2 * math.pi)))

    def ev(u, v):
        w = 0.5 * (u * u + v * v) + 0j
        for amplitude, ku, kv, phase in terms:
            w = w + amplitude * np.sin(ku * u + kv * v + phase)
        return u + 1j * v, w

    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0))
    return ParametrizedSurface(f"bumpy-graph:{seed}", (chart,), True, False, None, None)


def close_pair(seed):
    rng = random.Random(seed)
    a = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
    # |a - c| log-spaced over the seeds, from 1e-3 to 0.3
    c = a + 1e-3 * 300 ** (seed / 9) * complex(math.cos(rng.uniform(0, 6.3)), math.sin(rng.uniform(0, 6.3)))

    def ev(u, v):
        return u + 1j * v, 0j * u

    def d_du(u, v):
        return 1.0 + 0j * u, 0j * u

    def d_dv(u, v):
        z = u + 1j * v
        return 1j + 0j * u, (z - a) * np.conj(z - c)

    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0), False, False, d_du, d_dv)
    return ParametrizedSurface(f"close-pair:{seed}", (chart,), True, False, None, None)


CASES = {
    **{f"bumpy-graph:{seed}": (bumpy_graph, seed) for seed in range(10)},
    **{f"close-pair:{seed}": (close_pair, seed) for seed in range(10)},
}


def _report(name, grid):
    make, seed = CASES[name]
    return [
        {"chart": p.chart, "winding": p.winding_index, "sign": p.sign, "type": p.ptype.value,
         "location": list(p.location)}
        for p in find_complex_points(make(seed), grid)
    ]


def test_pin_covers_every_case():
    assert sorted(json.loads(PIN.read_text())) == sorted(f"{name}@{grid}" for name in CASES for grid in GRIDS)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", list(CASES))
def test_reports_match_the_pin(name, grid):
    pinned, found = json.loads(PIN.read_text())[f"{name}@{grid}"], _report(name, grid)
    assert len(found) == len(pinned)
    for p, q in zip(found, pinned):
        assert p["location"] == pytest.approx(q.pop("location"), abs=1e-10)
        del p["location"]
        assert p == q


if __name__ == "__main__":
    pin = {f"{name}@{grid}": _report(name, grid) for name in CASES for grid in GRIDS}
    lines = (f"{json.dumps(case)}: {json.dumps(points)}" for case, points in pin.items())
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pin)} cases to {PIN}", file=sys.stderr)
