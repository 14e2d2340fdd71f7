import dataclasses
import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from realsurf import constructions, lattice
from realsurf.constructions import (
    AmbientRecipe,
    Certificate,
    Claims,
    ConnectedSum,
    DiscBundle,
    EmbedInChart,
    Infeasible,
    MalformedCertificate,
    NoRecipe,
    Resolve,
    UseNamedClass,
    _dumps_indented,
    _finish,
    stein_disc_bundle,
    stein_disc_bundle_nonorientable,
    totally_real_nonorientable,
    totally_real_oriented_in_k3,
    verify_certificate,
)


DATA = Path(__file__).resolve().parent / "data"


# --- oriented totally real surfaces in K3 ------------------------------------


def test_oriented_k3_instances():
    cert = totally_real_oriented_in_k3(0)
    assert cert.claimed.euler_char == 2
    assert cert.claimed.normal_euler == -2
    assert cert.claimed.i_plus == 0 and cert.claimed.i_minus == 0
    assert verify_certificate(cert).passed

    cert = totally_real_oriented_in_k3(2)
    assert cert.claimed.euler_char == -2
    assert cert.claimed.normal_euler == 2
    assert cert.claimed.totally_real_possible
    assert verify_certificate(cert).passed

    cert = totally_real_oriented_in_k3(1)
    assert cert.claimed.euler_char == 0
    assert cert.claimed.i_total == 0
    assert verify_certificate(cert).passed


def test_oriented_k3_range():
    for g in range(13):
        assert verify_certificate(totally_real_oriented_in_k3(g)).passed


def test_oriented_rejects_negative_genus():
    with pytest.raises(ValueError):
        totally_real_oriented_in_k3(-1)


# --- nonorientable totally real surfaces --------------------------------------


def test_nonorientable_k3_even_classes():
    cert = totally_real_nonorientable(0, "k3")
    assert len(cert.steps) == 1
    assert cert.claimed.i_total == 0
    assert verify_certificate(cert).passed

    cert = totally_real_nonorientable(-2, "k3")
    assert cert.claimed.i_total == 0
    assert verify_certificate(cert).passed


def test_nonorientable_k3_odd_classes_need_blow_up():
    for chi in (1, -1, -3, -5):
        with pytest.raises(NoRecipe):
            totally_real_nonorientable(chi, "k3")
        for kind in ("k3-blow-up", "e3"):
            cert = totally_real_nonorientable(chi, kind)
            assert cert.claimed.i_total == 0
            assert cert.claimed.euler_char == chi
            assert verify_certificate(cert).passed


def test_nonorientable_chart_counts_match_case_analysis():
    # chi = -1 is 3 mod 4: blow-up recipe embeds with count 1 then sums with e1
    cert = totally_real_nonorientable(-1, "k3-blow-up")
    chart = cert.steps[0]
    assert isinstance(chart, EmbedInChart)
    assert chart.chi + chart.normal_euler == 1
    assert isinstance(cert.steps[1], UseNamedClass) and cert.steps[1].name == "e1"

    # chi = 1 in E(3): count 3 then one sum with the section
    cert = totally_real_nonorientable(1, "e3")
    chart = cert.steps[0]
    assert chart.chi + chart.normal_euler == 3
    assert cert.steps[1].name == "s"

    # chi = -1 in E(3): count 5, then totally real sphere and section
    cert = totally_real_nonorientable(-1, "e3")
    chart = cert.steps[0]
    assert chart.chi + chart.normal_euler == 5
    assert [s.name for s in cert.steps[1:3]] == ["s1", "s"]


def test_nonorientable_full_range():
    for chi in range(1, -13, -1):
        for kind in ("k3", "k3-blow-up", "e3"):
            if kind == "k3" and chi % 4 in (1, 3):
                with pytest.raises(NoRecipe):
                    totally_real_nonorientable(chi, kind)
                continue
            assert verify_certificate(totally_real_nonorientable(chi, kind)).passed


def test_nonorientable_rejects_bad_inputs():
    with pytest.raises(ValueError):
        totally_real_nonorientable(2, "k3")
    with pytest.raises(ValueError):
        totally_real_nonorientable(0, "cp17")
    # only the documented names; these spellings were once folded into them
    for kind in ("K3", "k3blowup", "k3_blow_up", "K3-blow-up", "e(3)", "E(3)", "E3", " k3"):
        with pytest.raises(ValueError, match="unknown ambient kind"):
            totally_real_nonorientable(0, kind)


# --- Stein disc bundles over oriented bases -----------------------------------


def test_stein_disc_examples():
    cert = stein_disc_bundle(2, 2)
    assert cert.ambient == AmbientRecipe("E(2)")
    assert cert.claimed.i_plus == 0
    assert cert.claimed.normal_euler == 2
    assert cert.claimed.disc_bundle == DiscBundle(True, 2, genus=2)
    assert verify_certificate(cert).passed

    cert = stein_disc_bundle(3, -1)
    assert cert.ambient == AmbientRecipe("E(7)")
    assert cert.claimed.i_plus == -5
    assert cert.claimed.stein_basis_possible
    assert verify_certificate(cert).passed

    with pytest.raises(Infeasible):
        stein_disc_bundle(1, 1)


def test_stein_disc_range_and_boundary():
    for g in range(11):
        for n in range(2 * g - 2, 2 * g - 9, -2):
            cert = stein_disc_bundle(g, n)
            m = 2 * g - n
            assert cert.claimed.i_plus == 2 - m
            assert cert.claimed.i_minus == 0
            assert cert.claimed.normal_euler == n
            assert verify_certificate(cert).passed
        with pytest.raises(Infeasible):
            stein_disc_bundle(g, 2 * g - 1)


# --- Stein disc bundles over nonorientable bases -------------------------------


def test_stein_nonorientable_examples():
    cert = stein_disc_bundle_nonorientable(1, -1, "blow-up-cp2")
    assert cert.ambient == AmbientRecipe("CP2", 3)
    assert cert.claimed.i_total == 0
    assert verify_certificate(cert).passed

    cert = stein_disc_bundle_nonorientable(0, 0, "blow-up-cp2")
    assert cert.ambient == AmbientRecipe("CP2", 0)
    assert len(cert.steps) == 1
    assert verify_certificate(cert).passed

    cert = stein_disc_bundle_nonorientable(-2, 2, "blow-up-cp2")
    assert cert.ambient == AmbientRecipe("CP2", 2)
    assert verify_certificate(cert).passed

    with pytest.raises(Infeasible):
        stein_disc_bundle_nonorientable(0, 1, "blow-up-cp2")


def test_stein_nonorientable_both_strategies_agree():
    for chi in range(1, -11, -1):
        for n in range(-chi, -chi - 7, -1):
            a = stein_disc_bundle_nonorientable(chi, n, "blow-up-cp2")
            b = stein_disc_bundle_nonorientable(chi, n, "section-of-em")
            assert verify_certificate(a).passed
            assert verify_certificate(b).passed
            for cert in (a, b):
                assert cert.claimed.euler_char == chi
                assert cert.claimed.normal_euler == n
                assert cert.claimed.i_total == chi + n
        with pytest.raises(Infeasible):
            stein_disc_bundle_nonorientable(chi, -chi + 1, "blow-up-cp2")
        with pytest.raises(Infeasible):
            stein_disc_bundle_nonorientable(chi, -chi + 1, "section-of-em")


def test_stein_nonorientable_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        stein_disc_bundle_nonorientable(0, 0, "magic")
    for strategy in ("blowupcp2", "sectionofem", "blow_up_cp2", "Section-Of-Em", " blow-up-cp2"):
        with pytest.raises(ValueError, match="unknown strategy"):
            stein_disc_bundle_nonorientable(0, 0, strategy)


# --- verifier ------------------------------------------------------------------


def test_tampered_certificate_fails_with_named_claim():
    cert = stein_disc_bundle(2, 2)
    tampered = dataclasses.replace(
        cert, claimed=dataclasses.replace(cert.claimed, i_plus=cert.claimed.i_plus + 1)
    )
    report = verify_certificate(tampered)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["claimed signed count I+"]


def test_hand_written_genus3_certificate():
    steps = (
        UseNamedClass("s", 2),
        UseNamedClass("f", 0),
        UseNamedClass("f", 0),
        UseNamedClass("f", 0),
        Resolve((0, 1, 2, 3), 3),
    )
    hclass = [0] * 22
    hclass[20] = 3  # three fibers
    hclass[21] = 1  # one section
    claimed = Claims(
        orientable=True,
        euler_char=-4,
        normal_euler=4,
        hclass=tuple(hclass),
        i_total=0,
        i_plus=0,
        i_minus=0,
        totally_real_possible=True,
    )
    report = verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))
    assert report.passed


def test_malformed_resolve_after_nonorientable():
    steps = (
        EmbedInChart(0, 0),
        UseNamedClass("s", 2),
        Resolve((0, 1), 1),
    )
    claimed = Claims(False, 2, -2, None, 0, None, None)
    with pytest.raises(MalformedCertificate):
        verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))


def test_malformed_index_reuse_and_leftovers():
    claimed = Claims(True, 2, -2, None, 0, None, None)
    with pytest.raises(MalformedCertificate):
        verify_certificate(
            Certificate(
                AmbientRecipe("K3"),
                (UseNamedClass("s", 2), Resolve((0, 0), 0)),
                claimed,
            )
        )
    with pytest.raises(MalformedCertificate):
        verify_certificate(
            Certificate(
                AmbientRecipe("K3"),
                (UseNamedClass("s", 2), UseNamedClass("f", 0)),
                claimed,
            )
        )
    with pytest.raises(MalformedCertificate):
        verify_certificate(
            Certificate(AmbientRecipe("K3"), (UseNamedClass("zap", 2),), claimed)
        )


def test_malformed_base_step_kind_and_operand_index_are_named():
    claimed = Claims(True, 2, -2, None, 0, None, None)
    with pytest.raises(MalformedCertificate, match="unknown ambient surface 'K9'"):
        verify_certificate(Certificate(AmbientRecipe("K9"), (UseNamedClass("s", 2),), claimed))
    data = totally_real_oriented_in_k3(2).to_dict()
    data["steps"][0]["kind"] = "fold"
    with pytest.raises(MalformedCertificate, match=r"step\[0\]: unknown step kind 'fold'"):
        Certificate.from_json(json.dumps(data))
    steps = (UseNamedClass("s", 2), Resolve((0, 1), 0))
    with pytest.raises(MalformedCertificate, match=r"step\[1\]: operand index 1 out of range"):
        verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))


def test_resolve_crossings_are_bounded_by_pairings():
    # s.f = 1 in K3: the two sheets meet an odd number of times, at least once
    for k in range(4):
        steps = (UseNamedClass("s", 2), UseNamedClass("f", 0), Resolve((0, 1), k))
        if k % 2:
            cert = _finish(AmbientRecipe("K3"), list(steps))
            assert cert.claimed.euler_char == 2 - 2 * k
            assert verify_certificate(cert).passed
        else:
            claimed = Claims(True, 2 - 2 * k, 0, None, 2 - 2 * k, None, None)
            with pytest.raises(MalformedCertificate, match=r"step\[2\]: .*crossings"):
                verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))


# A sphere in s, a genus-2 surface A in s + 2f and a torus B in s + f, each
# resolved with the least crossing count of the right parity.  s.A = 0 but
# s.B = -1 and A.B = 1, so the three cannot be disjoint, although the sum
# s + A pairs to zero with B.
_LINKED_K3_STEPS = (
    UseNamedClass("s", 2),
    UseNamedClass("s", 2), UseNamedClass("f", 0), UseNamedClass("f", 0), Resolve((1, 2, 3), 2),
    UseNamedClass("s", 2), UseNamedClass("f", 0), Resolve((5, 6), 1),
)


def test_linked_connected_sum_fails_in_every_operand_order():
    claimed = Claims(True, -4, 0, None, -4, None, None)
    for order in itertools.permutations((0, 4, 7)):
        steps = (*_LINKED_K3_STEPS, ConnectedSum(order))
        with pytest.raises(MalformedCertificate, match=r"step\[8\]: .*cannot be disjoint"):
            verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))


def _operand_orders(operands, rng):
    """Every order of at most 4 operands, else 3 seeded shuffles."""
    if len(operands) <= 4:
        return list(itertools.permutations(operands))
    return [tuple(rng.sample(operands, len(operands))) for _ in range(3)]


def _summed_certificates():
    for kind in ("k3", "k3-blow-up", "e3"):
        for chi in range(-7, 2):
            if kind != "k3" or chi % 2 == 0:
                yield totally_real_nonorientable(chi, kind)
    for strategy in ("blow-up-cp2", "section-of-em"):
        for chi, n in ((1, -1), (-2, 2), (-3, -1), (0, -4)):
            yield stein_disc_bundle_nonorientable(chi, n, strategy)
    cert = stein_disc_bundle_nonorientable(1, -32, "blow-up-cp2")
    assert cert.ambient == AmbientRecipe("CP2", 30)
    yield cert


def test_connected_sum_verdict_ignores_operand_order():
    rng = random.Random(16)
    sums = 0
    for cert in _summed_certificates():
        if not isinstance(cert.steps[-1], ConnectedSum):
            continue
        sums += 1
        report = verify_certificate(cert)
        assert report.passed
        for order in _operand_orders(cert.steps[-1].operands, rng):
            steps = (*cert.steps[:-1], ConnectedSum(order))
            assert verify_certificate(dataclasses.replace(cert, steps=steps)) == report
            claimed = _finish(cert.ambient, list(steps), (), cert.claimed.disc_bundle).claimed
            assert claimed == cert.claimed
    assert sums >= 20


def test_wrong_named_class_chi_is_a_failed_check():
    cert = totally_real_oriented_in_k3(0)
    bad_steps = (UseNamedClass("s", 0), Resolve((0,), 0))
    bad = dataclasses.replace(cert, steps=bad_steps)
    report = verify_certificate(bad)
    assert not report.passed
    assert any("catalog euler characteristic" in c.name for c in report.failures())


def test_predicate_claim_without_signed_counts_is_a_failed_check():
    # an oriented chart surface has no class, so I+- and the predicates are undefined
    claimed = Claims(True, -2, 0, None, -2, None, None, stein_basis_possible=True)
    cert = Certificate(AmbientRecipe("K3"), (EmbedInChart(-2, 0, True),), claimed)
    report = verify_certificate(cert)
    assert [(c.name, c.expected, c.actual) for c in report.failures()] == [
        ("claimed Stein neighborhood basis possibility", True, None)
    ]
    unclaimed = dataclasses.replace(claimed, stein_basis_possible=None)
    assert verify_certificate(dataclasses.replace(cert, claimed=unclaimed)).passed


def test_chart_normal_euler_outside_massey_fails():
    steps = (EmbedInChart(0, 2),)  # massey_set(0) = {-4, 0, 4}
    claimed = Claims(False, 0, 2, None, 2, None, None)
    report = verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))
    assert not report.passed
    assert any("realizable" in c.name for c in report.failures())


def test_certificate_serialization_round_trip():
    certs = [
        totally_real_oriented_in_k3(3),
        totally_real_nonorientable(-3, "e3"),
        stein_disc_bundle(4, -2),
        stein_disc_bundle_nonorientable(-1, -3, "section-of-em"),
    ]
    for cert in certs:
        clone = Certificate.from_json(cert.to_json())
        assert clone == cert
        assert verify_certificate(clone).passed


def _set(data, path, value):
    """data with the field at path (keys and list indices) set to value."""
    *outer, last = path
    target = data
    for key in outer:
        target = target[key]
    target[last] = value
    return data


# fields of totally_real_oriented_in_k3(2) given a value of the wrong JSON
# type, and the path the error names.  The decoder once read each of these
# by coercion: "yes" as true, 0.9 as 0, "2" as 2, 1 as true, "abc" as the
# notes ("a", "b", "c"), true as 1 crossing.
WRONG_TYPES = [
    (("claimed", "orientable"), "yes", "claimed.orientable"),
    (("claimed", "hclass", 0), 0.9, "claimed.hclass"),
    (("steps", 0, "chi"), "2", r"step\[0\].chi"),
    (("claimed", "totally_real_possible"), 1, "claimed.totally_real_possible"),
    (("ambient", "blow_ups"), 0.7, "ambient.blow_ups"),
    (("notes",), "abc", "notes"),
    (("steps", 3, "crossings"), True, r"step\[3\].crossings"),
    (("claimed", "euler_char"), "abc", "claimed.euler_char"),
]


def test_from_json_rejects_garbage():
    with pytest.raises(MalformedCertificate):
        Certificate.from_json("{not json")
    with pytest.raises(MalformedCertificate):
        Certificate.from_json('{"ambient": {"base": "K3"}}')
    with pytest.raises(MalformedCertificate):
        Certificate.from_json('[1, 2]')
    for path, value, named in WRONG_TYPES:
        text = json.dumps(_set(totally_real_oriented_in_k3(2).to_dict(), path, value))
        with pytest.raises(MalformedCertificate, match=named):
            Certificate.from_json(text)


def test_from_json_reads_absent_and_null_optional_fields():
    cert = stein_disc_bundle_nonorientable(-1, -3, "section-of-em")
    data = cert.to_dict()
    del data["ambient"]["blow_ups"], data["notes"], data["steps"][0]["orientable"]
    assert Certificate.from_dict(data) == cert
    for path in (("steps", 0, "orientable"), ("claimed", "i_plus"), ("claimed", "i_minus")):
        assert Certificate.from_dict(_set(cert.to_dict(), path, None)) == cert
    claims = dataclasses.replace(cert.claimed, hclass=None, stein_basis_possible=None,
                                 totally_real_possible=None, disc_bundle=None)
    data = cert.to_dict()
    for key in ("hclass", "stein_basis_possible", "totally_real_possible", "disc_bundle"):
        data["claimed"][key] = None
    assert Certificate.from_dict(data).claimed == claims
    for key in ("i_plus", "i_minus", "hclass", "stein_basis_possible", "totally_real_possible",
                "disc_bundle"):
        del data["claimed"][key]
    assert Certificate.from_dict(data).claimed == claims
    for path in (("ambient", "blow_ups"), ("notes",), ("claimed", "euler_char")):
        with pytest.raises(MalformedCertificate):
            Certificate.from_dict(_set(cert.to_dict(), path, None))


ENGINE_CERTIFICATES = {
    "totally-real-oriented": lambda: totally_real_oriented_in_k3(2),
    "totally-real": lambda: totally_real_nonorientable(-1, "e3"),
    "stein-disc": lambda: stein_disc_bundle(2, 0),
    "stein-disc-nonorientable": lambda: stein_disc_bundle_nonorientable(-1, -3, "blow-up-cp2"),
}


def _wrong_values(value):
    """JSON values of the wrong type for a field that holds value (no field is a float)."""
    if isinstance(value, bool):
        return [1.5, 1, "true"]
    if isinstance(value, int):
        return [1.5, True, str(value), [value]]
    if isinstance(value, str):
        return [1.5, 1, True, [value]]
    return [1.5, "1", False]  # null: an optional integer, boolean, array or object


@pytest.mark.parametrize("engine", ENGINE_CERTIFICATES)
def test_every_wrong_typed_field_is_malformed(engine):
    data = ENGINE_CERTIFICATES[engine]().to_dict()
    records = [("ambient",), *(("steps", i) for i in range(len(data["steps"]))), ("claimed",)]
    if data["claimed"]["disc_bundle"] is not None:
        records.append(("claimed", "disc_bundle"))
    paths = []
    for record in records:
        fields = data
        for key in record:
            fields = fields[key]
        for key, value in fields.items():
            if isinstance(value, list):
                paths += [(*record, key, i) for i in range(len(value))]
            elif not isinstance(value, dict):
                paths.append((*record, key))
    assert len(paths) > 20
    for path in paths:
        value = data
        for key in path:
            value = value[key]
        for wrong in _wrong_values(value):
            mutant = _set(json.loads(json.dumps(data)), path, wrong)
            with pytest.raises(MalformedCertificate):
                Certificate.from_dict(mutant)


def test_from_json_rejects_deep_nesting():
    for text in ("[" * 200000 + "]" * 200000, '{"a": ' * 100000 + "1" + "}" * 100000):
        with pytest.raises(MalformedCertificate, match="not valid JSON"):
            Certificate.from_json(text)


# --- the indented JSON emitter -------------------------------------------------

_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "a", " ", "é", "€", "\u2028",
          "\U0001f600", "\ud800"]
_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), 1.5,
           -2.25e-10, 1 / 3]


def _random_string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_json(rng, depth):
    """A value of dicts, lists and tuples nested down to ``depth``, with the
    leaves json spells specially; a few dict keys are not strings."""
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice([rng.randint(-10**30, 10**30), rng.randint(-3, 3), True, False, None])
    if kind == 1:
        return rng.choice(_FLOATS) if rng.random() < 0.7 else rng.uniform(-1e6, 1e6)
    if kind == 2:
        return _random_string(rng)
    size = rng.choice([0, 1, 2, 5])
    if kind == 3:
        keys = [rng.choice([7, -2.5, True, None]) if rng.random() < 0.1 else _random_string(rng)
                for _ in range(size)]
        return {key: _random_json(rng, depth - 1) for key in keys}
    items = [_random_json(rng, depth - 1) for _ in range(size)]
    return items if kind == 4 else tuple(items)


def test_dumps_indented_matches_json_dumps():
    rng = random.Random(20261018)
    for _ in range(2000):
        value = _random_json(rng, 4)
        assert _dumps_indented(value) == json.dumps(value, indent=2)
    for make in ENGINE_CERTIFICATES.values():
        cert = make()
        assert cert.to_json() == json.dumps(cert.to_dict(), indent=2)
    for bad in ({1, 2}, {(1,): 2}):
        with pytest.raises(TypeError):
            _dumps_indented(bad)


# the bytes of to_json as json.dumps(to_dict(), indent=2) wrote them
PINNED_TO_JSON = {
    "stein-disc-genus-30-euler--100": lambda: stein_disc_bundle(30, -100),
    "stein-disc-nonorientable-chi--8-euler--30-blow-up-cp2":
        lambda: stein_disc_bundle_nonorientable(-8, -30, "blow-up-cp2"),
}


@pytest.mark.parametrize("name", PINNED_TO_JSON)
def test_to_json_is_pinned(name):
    expected = (DATA / f"to-json-{name}.json").read_text(encoding="utf-8")
    assert PINNED_TO_JSON[name]().to_json() == expected


# --- work done per certificate ------------------------------------------------


def _counted_pairings(monkeypatch) -> list:
    """Route every realsurf module's ``pairing`` through a counter; the
    returned list holds the arguments of each call made from then on."""
    calls = []
    original = lattice.pairing

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("realsurf") and getattr(module, "pairing", None) is original:
            monkeypatch.setattr(module, "pairing", counted)
    return calls


def test_certify_and_verify_pair_each_class_once(monkeypatch):
    calls = _counted_pairings(monkeypatch)
    AmbientRecipe("E(4)").build()  # warm: a build pairs c1 with itself
    calls.clear()
    cert = stein_disc_bundle(12, 20)
    # 13 named steps and the resolved union square once each, I+- pairs c1
    # once and reads the square from the normal euler number
    assert len(calls) == 15
    decoded = Certificate.from_json(cert.to_json())
    calls.clear()
    assert verify_certificate(decoded).passed
    assert len(calls) == 15


def test_each_replay_step_builds_one_surface(monkeypatch):
    built = []
    post_init = constructions.SurfaceClass.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(constructions.SurfaceClass, "__post_init__", counted)
    for cert in (stein_disc_bundle(6, 4), totally_real_nonorientable(-1, "e3"),
                 stein_disc_bundle_nonorientable(-8, -30, "blow-up-cp2")):
        built.clear()
        verify_certificate(cert)
        assert len(built) == len(cert.steps)


def test_connected_sum_step_pairs_only_classes_that_share_a_block(monkeypatch):
    cert = stein_disc_bundle_nonorientable(1, -202, "blow-up-cp2")
    assert cert.ambient == AmbientRecipe("CP2", 200)
    calls = _counted_pairings(monkeypatch)
    summed = []
    original = constructions.connected_sum

    def counted(*parts):
        before = len(calls)
        result = original(*parts)
        summed.append((len(parts), len(calls) - before))
        return result

    monkeypatch.setattr(constructions, "connected_sum", counted)
    assert verify_certificate(cert).passed
    assert summed == [(201, 0)]


def test_chart_step_check_is_constant_time():
    chi = -10**12
    cert = stein_disc_bundle_nonorientable(chi, 0)
    assert cert.steps == (EmbedInChart(chi, 0),)
    start = time.perf_counter()
    assert verify_certificate(Certificate.from_json(cert.to_json())).passed
    outside = dataclasses.replace(cert, steps=(EmbedInChart(chi, 2 * chi - 2),))
    failures = verify_certificate(outside).failures()
    assert time.perf_counter() - start < 0.1
    assert failures[0].name == "step[0]: chart normal euler number is realizable"
