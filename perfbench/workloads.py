"""The four workloads: seeded job streams, job execution and the
known-answer checks.

A job is a small JSON-able dict.  Streams are built in rounds: every
round holds one job from each cost stratum of the workload, in a fixed
order, and the seed draws the parameters inside each stratum.  So any
prefix of a stream has nearly the same mix of cheap and dear jobs
whatever the seed, which keeps a time-bounded run steady, while two
seeds still give two different job lists.

Every check compares against a closed form that does not depend on how
realsurf computes it (the E(n) and CP^2#m lattices, the Stein and
totally-real counts, the scanner counts of the builtin surfaces, and
the CLI exit codes).  A check returns a list of mismatch messages; an
empty list is a pass.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from tracing import NULL_TRACER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMED = Path(__file__).resolve().parent / "cli_timed.py"

WORKLOADS = ("exact-large", "exact-small", "scan", "cli-mix")

# Jobs per round of each stream.  A timed run checks the clock only
# between rounds, so every run holds whole rounds.
ROUND_JOBS = {"exact-large": 8, "exact-small": 10, "scan": 10, "cli-mix": 8}

# Rounds of the finite exact-large stream (it needs a fresh ambient per
# job); the full list takes 20-35 s on a 2-core Xeon.
EXACT_LARGE_ROUNDS = 6

# A timed run stops after this many times --seconds.  exact-large is a
# fixed list of work and runs to its end: cut short on a slow machine,
# it would hold fewer and smaller ambients and read a lower peak_rss_mb.
# Its limit only guards against a hung run.
BUDGET_FACTOR = {"exact-large": 4}

# Jobs of the traced pass: whole rounds, so the traced counts cover
# every stratum of the workload.
TRACED_JOBS = {"exact-large": 8, "exact-small": 4000, "scan": 20, "cli-mix": 16}


def _rs():
    """The realsurf modules, looked up at call time so that the
    tracing wrappers installed after import are the ones called."""
    import realsurf.ambient as ambient
    import realsurf.bishop as bishop
    import realsurf.constructions as constructions
    import realsurf.embedded as embedded
    import realsurf.lattice as lattice

    return ambient, lattice, embedded, constructions, bishop


# --- job streams -------------------------------------------------------------


def _log_strata(lo: int, hi: int, k: int) -> list[list[int]]:
    """Split the integers lo..hi into k strata of equal width in log
    scale, so that small and large sizes are equally represented."""
    edges = [round(lo * (hi / lo) ** (i / k)) for i in range(k + 1)]
    edges[-1] = hi + 1
    return [list(range(a, b)) for a, b in zip(edges, edges[1:])]


def _spread(values: list[int], k: int, rng) -> list[int]:
    """The k values at the centres of k equal slices of ``values``, in
    seeded order.  Every seed gets the same sizes, so the run time of
    the finite stream does not depend on the seed; the seed sets the
    order and the other parameters."""
    step = len(values) / k
    picks = [values[int((i + 0.5) * step)] for i in range(k)]
    rng.shuffle(picks)
    return picks


def exact_large_jobs(seed: int):
    """Each job a user task on a large ambient no earlier job used.

    Six rounds of eight jobs.  Each round has six E(m) jobs, one from
    each of six log-scale strata of m in [20, 160], alternately Stein
    disc bundles D(g, 2g - m) and nonorientable bundles by a section of
    E(m), and two CP^2#k jobs, k from each log-scale half of [40, 200].
    """
    rng = random.Random(seed)
    e_picks = [_spread(s, EXACT_LARGE_ROUNDS, rng) for s in _log_strata(20, 160, 6)]
    cp_picks = [_spread(s, EXACT_LARGE_ROUNDS, rng) for s in _log_strata(40, 200, 2)]
    for r in range(EXACT_LARGE_ROUNDS):
        for slot in (0, "cp0", 3, 1, "cp1", 4, 2, 5):
            chi = rng.randint(-12, 1)
            if isinstance(slot, str):
                k = cp_picks[int(slot[2])][r]
                yield {"kind": "nonor-stein", "strategy": "blow-up-cp2", "chi": chi,
                       "n": 2 * chi - 4 - k, "m": k}
                continue
            m = e_picks[slot][r]
            if (slot + r) % 2 == 0:
                g = rng.randint(2, 40)
                yield {"kind": "stein", "g": g, "n": 2 * g - m, "m": m}
            else:
                yield {"kind": "nonor-stein", "strategy": "section-of-em", "chi": chi,
                       "n": 2 * chi - 4 - m, "m": m}


_QUERY_AMBIENTS = [("K3", 0), ("K3", 1), ("E(3)", 0)] + [(f"E({m})", 0) for m in range(4, 9)] \
    + [("CP2", k) for k in (3, 9, 17, 30)]


def _small_ambients():
    """Every (base, blow_ups) pair an exact-small job touches."""
    out = [("K3", 0), ("K3", 1), ("E(3)", 0)]
    out += [(f"E({m})", 0) for m in range(1, 9)]
    out += [("CP2", k) for k in range(0, 31)]
    return out


def _query_job(rng) -> dict:
    base, blow_ups = rng.choice(_QUERY_AMBIENTS)
    if rng.random() < 0.25:
        chi = rng.randint(-20, 1)
        return {"kind": "query-nonor", "base": base, "blow_ups": blow_ups, "chi": chi,
                "nu": rng.randint(-40, 40)}
    if base == "CP2":
        names = ["h"] + [f"e{i}" for i in range(1, min(blow_ups, 4) + 1)]
    else:
        names = ["s", "f", "s1", "f1"] + (["e1"] if blow_ups else [])
    coeffs = {name: rng.randint(-3, 3) for name in names}
    return {"kind": "query", "base": base, "blow_ups": blow_ups,
            "chi": 2 - 2 * rng.randint(0, 8), "coeffs": coeffs}


def exact_small_jobs(seed: int):
    """Small certify/encode/decode/verify round trips and invariant
    queries over a few repeating ambients, with the expected negatives
    (Infeasible, NoRecipe) in the mix."""
    rng = random.Random(seed)
    while True:
        g = rng.randint(0, 12)
        yield {"kind": "tr-oriented", "g": g}
        yield _query_job(rng)
        g, m = rng.randint(1, 12), rng.randint(2, 8)
        yield {"kind": "stein", "g": g, "n": 2 * g - m, "m": m}
        yield {"kind": "tr-nonor", "chi": rng.randint(-30, 1),
               "ambient": rng.choice(["k3", "k3-blow-up", "e3"])}
        chi, m = rng.randint(-8, 1), rng.randint(0, 30)
        yield {"kind": "nonor-stein", "strategy": "blow-up-cp2", "chi": chi, "n": 2 * chi - 4 - m,
               "m": m}
        yield _query_job(rng)
        g = rng.randint(0, 12)
        yield {"kind": "stein-infeasible", "g": g, "n": 2 * g - 2 + rng.randint(1, 6)}
        chi, m = rng.randint(-8, 1), rng.randint(1, 8)
        yield {"kind": "nonor-stein", "strategy": "section-of-em", "chi": chi,
               "n": 2 * chi - 4 - m, "m": m}
        chi = rng.randint(-8, 1)
        yield {"kind": "nonor-infeasible", "chi": chi, "n": -chi + rng.randint(1, 6)}
        yield _query_job(rng)


def _alpha(rng) -> float:
    """A Bishop invariant away from the parabolic value 1."""
    return rng.uniform(0.2, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 4.0)


def scan_jobs(seed: int):
    """Surveys of the builtin surfaces at grid 256 and 512; wrinkled
    spheres on both sides of the transition at eps = 1/2."""
    rng = random.Random(seed)
    while True:
        for grid in (256, 512):
            yield {"surface": "wrinkled", "eps": rng.uniform(0.55, 0.95), "grid": grid}
            yield {"surface": "torus", "grid": grid}
            yield {"surface": "wrinkled", "eps": rng.uniform(0.05, 0.45), "grid": grid}
            yield {"surface": "graph", "alpha": _alpha(rng), "grid": grid}
            yield {"surface": "round", "grid": grid}


def _unit(rng) -> complex:
    t = rng.uniform(0.0, 2 * math.pi)
    return complex(math.cos(t), math.sin(t))


def _complex_text(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def cli_jobs(seed: int):
    """One realsurf CLI process per job (two for certify | verify), with
    the exit-2 expected negatives and exit-1 malformed input."""
    rng = random.Random(seed)
    surfaces = ["round-sphere", "wrinkled-sphere", "flat-torus", "graph-normal-form"]
    for r in itertools.count():
        chi = rng.randint(-20, 1)
        yield {"kind": "massey", "argv": ["massey", str(chi)], "code": 0, "chi": chi}
        k, chi = rng.randint(-3, 6), 2 - 2 * rng.randint(0, 6)
        yield {"kind": "invariants", "code": 0, "chi": chi, "k": k,
               "argv": ["invariants", "--ambient", "k3", "--chi", str(chi), "--class", f"s{k:+d}f"]}
        if rng.random() < 0.5:
            n, b = rng.randint(1, 8), rng.randint(0, 6)
            yield {"kind": "ambient-info", "code": 0, "base": "e", "n": n, "blow_ups": b,
                   "argv": ["ambient", "info", f"e({n})", "--blow-ups", str(b)]}
        else:
            b = rng.randint(0, 20)
            yield {"kind": "ambient-info", "code": 0, "base": "cp2", "n": 0, "blow_ups": b,
                   "argv": ["ambient", "info", "cp2", "--blow-ups", str(b)]}
        g, m = rng.randint(1, 10), rng.randint(2, 12)
        yield {"kind": "cert-verify", "code": 0, "g": g, "n": 2 * g - m, "m": m,
               "argv": ["certify", "stein-disc", "--genus", str(g), "--euler", str(2 * g - m)]}
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = 2 * abs(c) * _alpha(rng) * _unit(rng)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        text = {"a": _complex_text(a), "b": _complex_text(b), "c": _complex_text(c)}
        yield {"kind": "classify", "code": 0, **text,
               "argv": ["bishop", "classify"] + [f"--{k}={v}" for k, v in text.items()]}
        # surfaces and grids cycle with the round, so every run scans each
        # surface at both grids within its first eight rounds
        surface, grid, alpha = surfaces[r % 4], (256, 128)[r // 4 % 2], None
        if surface == "graph-normal-form":
            alpha = round(_alpha(rng), 4)
            surface = f"graph-normal-form:{alpha}"
        yield {"kind": "scan", "code": 0, "surface": surface, "alpha": alpha,
               "argv": ["bishop", "scan", "--surface", surface, "--grid", str(grid)]}
        if rng.random() < 0.5:
            g = rng.randint(0, 10)
            n = 2 * g - 2 + rng.randint(1, 5)
            yield {"kind": "negative", "code": 2, "status": "infeasible",
                   "argv": ["certify", "stein-disc", "--genus", str(g), "--euler", str(n)]}
        else:
            chi = 1 - 2 * rng.randint(0, 10)
            yield {"kind": "negative", "code": 2, "status": "no-recipe",
                   "argv": ["certify", "totally-real", "--chi", str(chi), "--ambient", "k3"]}
        malformed = [
            ["massey", str(rng.randint(2, 9))],
            ["ambient", "info", "e(0)"],
            ["invariants", "--ambient", "k3", "--chi", str(2 * rng.randint(0, 3) + 1),
             "--class", "s"],
            ["bishop", "scan", "--surface", "klein-bottle"],
            ["verify", "-"],
        ]
        argv = rng.choice(malformed)
        yield {"kind": "malformed", "code": 1, "argv": argv,
               "stdin": "{not json" if argv == ["verify", "-"] else ""}


STREAMS = {"exact-large": exact_large_jobs, "exact-small": exact_small_jobs,
           "scan": scan_jobs, "cli-mix": cli_jobs}


# --- closed forms ------------------------------------------------------------


def named_class_table(base: str, blow_ups: int) -> dict[str, tuple[int, int]]:
    """Square and c1 pairing of every named class of a catalog surface,
    from the definitions: E(n) has f.f = 0, s.s = -n, f_j.f_j = 0,
    s_j.s_j = -2 and c1 = (2 - n) f; CP^2 has h.h = 1 and c1 = 3h; each
    exceptional class has e.e = -1 and c1.e = 1."""
    key = base.lower()
    if key == "cp2":
        table = {"h": (1, 3)}
    else:
        n = 2 if key == "k3" else int(key[2:-1])
        table = {"f": (0, 0), "s": (-n, 2 - n)}
        for j in range(1, 2 * (n - 1) + 1):
            table[f"f{j}"] = (0, 0)
            table[f"s{j}"] = (-2, 0)
    for i in range(1, blow_ups + 1):
        table[f"e{i}"] = (-1, 1)
    return table


def _class_numbers(base: str, coeffs: dict[str, int]) -> tuple[int, int]:
    """[S].[S] and <c1, [S]> of a combination of named classes.  The
    named classes are orthogonal except f.s = f_j.s_j = 1."""
    table = named_class_table(base, sum(1 for k in coeffs if k.startswith("e")))
    square = sum(c * c * table[name][0] for name, c in coeffs.items())
    for f, s in (("f", "s"), ("f1", "s1")):
        square += 2 * coeffs.get(f, 0) * coeffs.get(s, 0)
    c1 = sum(c * table[name][1] for name, c in coeffs.items())
    return square, c1


def _expect(out: list, what: str, expected, actual) -> None:
    if expected != actual:
        out.append(f"{what}: expected {expected!r}, got {actual!r}")


def check_ambient(base: str, blow_ups: int, info: dict) -> list[str]:
    """``info``: rank, signature, determinant, euler_char and the
    (square, c1 pairing) of each named class."""
    out: list[str] = []
    key = base.lower()
    if key == "cp2":
        rank, sig, chi = 1 + blow_ups, (1, blow_ups, 0), 3 + blow_ups
    else:
        n = 2 if key == "k3" else int(key[2:-1])
        rank, sig, chi = 12 * n - 2 + blow_ups, (2 * n - 1, 10 * n - 1 + blow_ups, 0), 12 * n + blow_ups
    _expect(out, f"{base}#{blow_ups} rank", rank, info["rank"])
    _expect(out, f"{base}#{blow_ups} signature", sig, tuple(info["signature"]))
    _expect(out, f"{base}#{blow_ups} |det|", 1, abs(info["determinant"]))
    _expect(out, f"{base}#{blow_ups} euler characteristic", chi, info["euler_char"])
    _expect(out, f"{base}#{blow_ups} named classes", named_class_table(base, blow_ups),
            info["named"])
    return out


def check_claims(job: dict, claimed) -> list[str]:
    """The claims of a certificate against the closed forms of its job."""
    out: list[str] = []
    kind = job["kind"]
    if kind == "stein":
        g, n, m = job["g"], job["n"], job["m"]
        _expect(out, "I+", 2 - m, claimed.i_plus)
        _expect(out, "I-", 0, claimed.i_minus)
        _expect(out, "normal euler number", n, claimed.normal_euler)
        _expect(out, "euler characteristic", 2 - 2 * g, claimed.euler_char)
        _expect(out, "I", 2 - 2 * g + n, claimed.i_total)
    elif kind in ("nonor-stein", "tr-nonor"):
        chi = job["chi"]
        n = job["n"] if kind == "nonor-stein" else -chi
        _expect(out, "orientable", False, claimed.orientable)
        _expect(out, "normal euler number", n, claimed.normal_euler)
        _expect(out, "I", chi + n, claimed.i_total)
        _expect(out, "euler characteristic", chi, claimed.euler_char)
    elif kind == "tr-oriented":
        g = job["g"]
        _expect(out, "(I+, I-)", (0, 0), (claimed.i_plus, claimed.i_minus))
        _expect(out, "euler characteristic", 2 - 2 * g, claimed.euler_char)
        _expect(out, "normal euler number", 2 * g - 2, claimed.normal_euler)
    return out


def check_certificate(job: dict, cert, decoded, report) -> list[str]:
    out = check_claims(job, cert.claimed)
    _expect(out, "JSON round trip", True, decoded == cert)
    _expect(out, "verification passed", True, report.passed)
    return out


def check_query(job: dict, report) -> list[str]:
    out: list[str] = []
    if job["kind"] == "query-nonor":
        _expect(out, "I", job["chi"] + job["nu"], report.i_total)
        return out
    square, c1 = _class_numbers(job["base"], job["coeffs"])
    chi = job["chi"]
    _expect(out, "I", chi + square, report.i_total)
    _expect(out, "(I+, I-)", ((chi + c1 + square) // 2, (chi - c1 + square) // 2),
            (report.i_plus, report.i_minus))
    return out


def expected_scan(job: dict) -> tuple[int, int]:
    """(e, h) of a closed builtin surface."""
    surface = job["surface"]
    if surface in ("torus", "flat-torus"):
        return 0, 0
    if surface in ("round", "round-sphere"):
        return 2, 0
    eps = job.get("eps", 0.6)
    return (4, 2) if eps > 0.5 else (2, 0)


def check_survey(job: dict, e_count: int, h_count: int, passed: bool) -> list[str]:
    out: list[str] = []
    _expect(out, "(e, h)", expected_scan(job), (e_count, h_count))
    _expect(out, "survey checks passed", True, passed)
    return out


def check_points(alpha: float, points: list[tuple[float, str]]) -> list[str]:
    """A graph normal form has one point, of invariant alpha."""
    out: list[str] = []
    if len(points) != 1:
        return [f"graph normal form: expected one complex point, got {len(points)}"]
    got, ptype = points[0]
    if not (isinstance(got, (int, float)) and abs(got - alpha) <= 1e-6 * max(1.0, alpha)):
        out.append(f"alpha: expected {alpha!r}, got {got!r}")
    _expect(out, "point type", "elliptic" if alpha > 1 else "hyperbolic", ptype)
    return out


def check_cli(job: dict, code: int, stdout: str) -> list[str]:
    """Exit code, JSON shape and the closed-form answer of one CLI job."""
    out: list[str] = []
    _expect(out, f"exit code of {' '.join(job['argv'])}", job["code"], code)
    if out:
        return out
    if job["code"] == 1:
        _expect(out, "stdout of a malformed call", "", stdout)
        return out
    try:
        data = json.loads(stdout)
    except ValueError:
        return [f"output of {' '.join(job['argv'])} is not JSON"]
    kind = job["kind"]
    if kind == "negative":
        _expect(out, "status", job["status"], data.get("status"))
    elif kind == "massey":
        chi = job["chi"]
        _expect(out, "normal euler range", list(range(2 * chi - 4, 5 - 2 * chi, 4)),
                data.get("normal_euler_range"))
    elif kind == "invariants":
        square = 2 * job["k"] - 2
        total = job["chi"] + square
        _expect(out, "(I, I+, I-)", (total, total // 2, total // 2),
                (data.get("i_total"), data.get("i_plus"), data.get("i_minus")))
    elif kind == "ambient-info":
        base = "CP2" if job["base"] == "cp2" else f"E({job['n']})"
        if not {"rank", "signature", "determinant", "euler_char", "named_classes"} <= data.keys():
            return ["ambient info JSON lacks keys"]
        named = {name: (v.get("square"), v.get("c1_pairing"))
                 for name, v in data["named_classes"].items()}
        out += check_ambient(base, job["blow_ups"], {**data, "named": named})
    elif kind == "cert-verify":
        if not {"ambient", "steps", "claimed"} <= data.keys():
            return ["certificate JSON lacks keys"]
        claimed = data["claimed"]
        _expect(out, "(I+, I-, normal euler)", (2 - job["m"], 0, job["n"]),
                (claimed.get("i_plus"), claimed.get("i_minus"), claimed.get("normal_euler")))
    elif kind == "verify":
        _expect(out, "verification passed", True, data.get("passed"))
    elif kind == "classify":
        b, c = (complex(job[k].replace("i", "j")) for k in "bc")
        alpha = abs(b) / (2 * abs(c))
        got = data.get("alpha")
        if not (isinstance(got, (int, float)) and abs(got - alpha) <= 1e-9 * max(1.0, alpha)):
            out.append(f"alpha: expected {alpha!r}, got {got!r}")
        _expect(out, "type", "elliptic" if alpha > 1 else "hyperbolic", data.get("type"))
    elif kind == "scan":
        points = data.get("points")
        if not isinstance(points, list):
            return ["scan JSON lacks points"]
        if job["alpha"] is not None:
            out += check_points(job["alpha"], [(p.get("alpha"), p.get("type")) for p in points])
        else:
            counts = data.get("counts", {})
            out += check_survey(
                {"surface": job["surface"]},
                counts.get("e_plus", 0) + counts.get("e_minus", 0),
                counts.get("h_plus", 0) + counts.get("h_minus", 0),
                data.get("passed"),
            )
    return out


# --- running jobs ------------------------------------------------------------


class Runner:
    """Runs the jobs of one workload in this process; ``tracer`` records
    spans around every call into realsurf (``NULL_TRACER`` when off)."""

    def __init__(self, workload: str, tracer):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.tracer = tracer
        self.env = child_env()

    def setup(self) -> None:
        """The workload's declared warm-up."""
        if self.workload == "exact-small":
            ambient = _rs()[0]
            for base, blow_ups in _small_ambients():
                ambient.by_name(base, blow_ups)
        elif self.workload == "cli-mix":
            self._cli(["massey", "0", "--format", "json"], "")

    def run(self, job: dict) -> list[str]:
        if self.workload == "exact-large":
            return self._exact(job, info=True)
        if self.workload == "exact-small":
            return self._exact(job, info=False)
        if self.workload == "scan":
            return self._scan(job)
        return self._cli_job(job)

    # exact workloads

    def _info(self, base: str, blow_ups: int) -> dict:
        ambient, lattice = _rs()[:2]
        surface = ambient.by_name(base, blow_ups)
        return {
            "rank": surface.rank,
            "signature": lattice.signature(surface.lattice),
            "determinant": lattice.determinant(surface.lattice),
            "euler_char": surface.euler_char,
            "named": {name: (surface.pair(h, h), surface.pair(surface.c1, h))
                      for name, h in surface.named.items()},
        }

    def _exact(self, job: dict, info: bool) -> list[str]:
        ambient, lattice, embedded, constructions, _ = _rs()
        tr = self.tracer
        kind = job["kind"]
        if kind in ("query", "query-nonor"):
            surface = ambient.by_name(job["base"], job["blow_ups"])
            if kind == "query":
                h = lattice.HClass.zero(surface.rank)
                for name, c in job["coeffs"].items():
                    h = h + c * surface.named[name]
                s = embedded.SurfaceClass(surface, True, job["chi"], h)
            else:
                s = embedded.SurfaceClass(surface, False, job["chi"], None, job["nu"])
            return check_query(job, embedded.invariant_report(s))
        expected_error = None
        if kind in ("stein-infeasible", "nonor-infeasible"):
            expected_error = constructions.Infeasible
        elif kind == "tr-nonor" and job["ambient"] == "k3" and job["chi"] % 2:
            expected_error = constructions.NoRecipe
        out: list[str] = []
        if info:
            base = "CP2" if job.get("strategy") == "blow-up-cp2" else f"E({job['m']})"
            blow_ups = job["m"] if base == "CP2" else 0
            out += check_ambient(base, blow_ups, self._info(base, blow_ups))
        try:
            with tr.span("constructions.certify") as sp:
                if kind in ("stein", "stein-infeasible"):
                    cert = constructions.stein_disc_bundle(job["g"], job["n"])
                elif kind in ("nonor-stein", "nonor-infeasible"):
                    cert = constructions.stein_disc_bundle_nonorientable(
                        job["chi"], job["n"], job.get("strategy", "blow-up-cp2"))
                elif kind == "tr-oriented":
                    cert = constructions.totally_real_oriented_in_k3(job["g"])
                else:
                    cert = constructions.totally_real_nonorientable(job["chi"], job["ambient"])
                sp.n = len(cert.steps)
        except (constructions.Infeasible, constructions.NoRecipe) as exc:
            if expected_error is not None and type(exc) is expected_error:
                return out
            raise
        if expected_error is not None:
            return out + [f"expected {expected_error.__name__}, got a certificate"]
        with tr.span("constructions.encode") as sp:
            text = cert.to_json()
            sp.n = len(text)
        with tr.span("constructions.decode"):
            decoded = constructions.Certificate.from_json(text)
        with tr.span("constructions.verify") as sp:
            report = constructions.verify_certificate(decoded)
            sp.n = len(report.checks)
        return out + check_certificate(job, cert, decoded, report)

    # scan

    def _scan(self, job: dict) -> list[str]:
        bishop = _rs()[4]
        name, grid = job["surface"], job["grid"]
        if name == "wrinkled":
            surface = bishop.wrinkled_sphere(job["eps"])
        elif name == "round":
            surface = bishop.round_sphere()
        elif name == "torus":
            surface = bishop.flat_torus()
        else:
            surface = bishop.graph_normal_form(job["alpha"])
        surface = self.tracer.surface(surface)
        with self.tracer.span("bishop.survey"):
            if name == "graph":
                points = bishop.find_complex_points(surface, grid)
            else:
                report = bishop.survey(surface, grid)
        if name == "graph":
            return check_points(job["alpha"], [(p.alpha, p.ptype.value) for p in points])
        return check_survey(job, report.e_count, report.h_count, report.passed)

    # cli

    def _cli(self, argv: list[str], stdin: str) -> subprocess.CompletedProcess:
        traced = self.tracer is not NULL_TRACER
        command = [str(CLI_TIMED)] if traced else ["-m", "realsurf.cli"]
        with self.tracer.span("cli.process") as sp:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *command, *argv], input=stdin, capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=120,
            )
            sp.n = len(proc.stdout.encode())
            if traced:
                stderr, _, marks = proc.stderr.rstrip("\n").rpartition("\n")
                started, imported, done = (float(x) for x in marks.split()[1:])
                self.tracer.record("cli.start", start, started)
                self.tracer.record("cli.import", started, imported)
                self.tracer.record("cli.main", imported, done)
                proc.stderr = stderr
        return proc

    def _cli_job(self, job: dict) -> list[str]:
        argv = job["argv"] + (["--format", "json"] if job["code"] != 1 else [])
        proc = self._cli(argv, job.get("stdin", ""))
        out = check_cli(job, proc.returncode, proc.stdout)
        if job["kind"] == "cert-verify" and not out:
            verify = self._cli(["verify", "-", "--format", "json"], proc.stdout)
            out += check_cli({"kind": "verify", "code": 0, "argv": ["verify", "-"]},
                             verify.returncode, verify.stdout)
        return out


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment of workers and CLI processes: src on the path, one
    BLAS/OpenMP thread (the loop is closed with a single client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env
