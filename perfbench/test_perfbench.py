"""Tests of the benchmark itself: seeded job streams, the known-answer
checks, metric names and deterministic traced counts.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import workloads
from run import END_TO_END, tail
from tracing import NULL_TRACER, PER_LAYER
from workloads import check_certificate, check_cli, check_points, check_survey

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    stream = workloads.STREAMS[workload]
    first = list(islice(stream(7), 60))
    assert first == list(islice(stream(7), 60))
    assert first != list(islice(stream(8), 60))


def test_exact_large_ambients_are_never_reused():
    jobs = list(workloads.exact_large_jobs(3))
    ambients = [("CP2" if j.get("strategy") == "blow-up-cp2" else "E", j["m"]) for j in jobs]
    assert len(ambients) == len(set(ambients)) == 8 * workloads.EXACT_LARGE_ROUNDS


def test_tampered_certificate_claim_is_a_failure():
    from realsurf.constructions import Certificate, stein_disc_bundle, verify_certificate

    job = {"kind": "stein", "g": 3, "n": 2, "m": 4}
    cert = stein_disc_bundle(3, 2)
    decoded = Certificate.from_json(cert.to_json())
    assert check_certificate(job, cert, decoded, verify_certificate(decoded)) == []

    claimed = dataclasses.replace(cert.claimed, i_plus=cert.claimed.i_plus + 1)
    tampered = dataclasses.replace(cert, claimed=claimed)
    decoded = Certificate.from_json(tampered.to_json())
    problems = check_certificate(job, tampered, decoded, verify_certificate(decoded))
    assert any(p.startswith("I+") for p in problems)
    assert any(p.startswith("verification passed") for p in problems)


def test_miscounted_survey_is_a_failure():
    above = {"surface": "wrinkled", "eps": 0.7, "grid": 256}
    assert check_survey(above, 4, 2, True) == []
    assert check_survey(above, 2, 0, True)
    assert check_survey(above, 4, 2, False)
    assert check_survey({"surface": "torus", "grid": 256}, 0, 0, True) == []
    assert check_survey({"surface": "torus", "grid": 256}, 1, 1, True)
    assert check_points(0.5, [(0.5, "hyperbolic")]) == []
    assert check_points(0.5, [(0.5, "hyperbolic")] * 2)
    assert check_points(0.5, [(0.6, "hyperbolic")])
    assert check_points(0.5, [(0.5, "elliptic")])


def test_wrong_cli_exit_code_is_a_failure():
    negative = next(j for j in islice(workloads.cli_jobs(1), 200) if j["kind"] == "negative")
    answer = json.dumps({"status": negative["status"], "reason": "expected"})
    assert check_cli(negative, 2, answer) == []
    assert check_cli(negative, 0, answer)
    assert check_cli(negative, 1, "")

    massey = {"kind": "massey", "code": 0, "chi": -1, "argv": ["massey", "-1"]}
    answer = json.dumps({"chi": -1, "normal_euler_range": [-6, -2, 2, 6]})
    assert check_cli(massey, 0, answer) == []
    assert check_cli(massey, 2, answer)
    assert check_cli(massey, 0, "not json")
    assert check_cli(massey, 0, json.dumps({"chi": -1, "normal_euler_range": [-6, -2, 2]}))

    malformed = {"kind": "malformed", "code": 1, "argv": ["massey", "5"]}
    assert check_cli(malformed, 1, "") == []
    assert check_cli(malformed, 0, "")


@pytest.mark.parametrize("workload,count", [("exact-large", 2), ("exact-small", 40), ("scan", 4)])
def test_first_jobs_pass_their_checks(workload, count):
    runner = workloads.Runner(workload, NULL_TRACER)
    runner.setup()
    for job in islice(workloads.STREAMS[workload](5), count):
        assert runner.run(job) == [], job


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(1, 101)), 90) == (90, 90, 10)
    value, percentile, beyond = tail(list(range(1, 31)), 90)
    assert beyond >= 10 and percentile < 90 and value == sorted(range(1, 31))[-beyond - 1]


def _traced_counts(tmp_path, tag):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "exact-small", "--seed", "4",
         "--mode", "fixed", "--jobs", "300", "--trace", "--spans", str(tmp_path / f"{tag}.gz")],
        capture_output=True, text=True, env=workloads.child_env(), check=True, timeout=120,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in layers.items() if units.get(k) in ("count", "bytes")}


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "a")
    assert first["lattice.pairing_calls"] > 0 and first["constructions.steps"] > 0
    assert first == _traced_counts(tmp_path, "b")


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds",
         "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
