import dataclasses
import hashlib
import itertools
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from realsurf import constructions, lattice
from realsurf.ambient import AmbientSurface, by_name, e, k3
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


def test_none_for_a_class_or_signed_count_is_a_checked_claim():
    cert = stein_disc_bundle(2, 0)
    for key, name in (("hclass", "claimed homology class"), ("i_plus", "claimed signed count I+"),
                      ("i_minus", "claimed signed count I-")):
        claimed = dataclasses.replace(cert.claimed, **{key: None})
        report = verify_certificate(dataclasses.replace(cert, claimed=claimed))
        assert [c.name for c in report.failures()] == [name]


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


@pytest.mark.parametrize(
    "recipe, message",
    [
        (AmbientRecipe("K9"), "ambient.base: unknown ambient surface 'K9'"),
        (AmbientRecipe("E(0)"), "ambient.base: E(n) requires n >= 1, got 0"),
        (AmbientRecipe("K3", -1), "ambient.blow_ups: blow-up count must be nonnegative"),
    ],
    ids=["unknown", "e0", "negative-blow-ups"],
)
def test_ambient_recipe_errors_name_their_field(recipe, message):
    claimed = Claims(True, 2, -2, None, 0, None, None)
    with pytest.raises(MalformedCertificate, match=re.escape(message)):
        verify_certificate(Certificate(recipe, (UseNamedClass("s", 2),), claimed))


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


@pytest.mark.parametrize(
    "steps, claimed",
    [
        # D(0, 1): n <= 2g - 2 fails, and the replay has I+ = 3
        ([{"kind": "use-named-class", "name": "h", "chi": 2}],
         {"orientable": True, "euler_char": 2, "normal_euler": 1, "hclass": [1], "i_total": 3, "i_plus": 3,
          "i_minus": 0, "disc_bundle": {"kind": "D", "genus": 0, "euler_number": 1}}),
        # Dtilde(-1, 2): n + chi <= 0 fails, and the replay has I = 1
        ([{"kind": "embed-in-chart", "chi": -1, "normal_euler": 2, "orientable": False}],
         {"orientable": False, "euler_char": -1, "normal_euler": 2, "i_total": 1,
          "disc_bundle": {"kind": "Dtilde", "chi": -1, "euler_number": 2}}),
    ],
    ids=["D-0-1", "Dtilde--1-2"],
)
def test_disc_bundle_claim_needs_a_stein_surface(steps, claimed):
    # every other claim matches the replay of these CP2 certificates, but
    # the engines call both bundles infeasible
    text = json.dumps({"ambient": {"base": "CP2"}, "steps": steps, "claimed": claimed})
    report = verify_certificate(Certificate.from_json(text))
    assert [(c.name, c.expected, c.actual) for c in report.failures()] == [("disc bundle is Stein", True, False)]
    bundle = claimed["disc_bundle"]
    with pytest.raises(Infeasible):
        if bundle["kind"] == "D":
            stein_disc_bundle(bundle["genus"], bundle["euler_number"])
        else:
            stein_disc_bundle_nonorientable(bundle["chi"], bundle["euler_number"])


def test_disc_bundle_claim_fails_where_the_stein_rule_is_undefined():
    # an oriented chart surface has no class, so I+- are undefined
    claimed = Claims(True, 2, 0, None, 2, None, None, disc_bundle=DiscBundle(True, 0, genus=0))
    report = verify_certificate(Certificate(AmbientRecipe("K3"), (EmbedInChart(2, 0, True),), claimed))
    assert [(c.name, c.expected, c.actual) for c in report.failures()] == [("disc bundle is Stein", True, None)]


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


def _field_paths(data):
    """The path of every scalar and array element of a certificate dict's
    records: the ambient, each step, the claims and the disc bundle."""
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
    return paths


@pytest.mark.parametrize("engine", ENGINE_CERTIFICATES)
def test_every_wrong_typed_field_is_malformed(engine):
    data = ENGINE_CERTIFICATES[engine]().to_dict()
    paths = _field_paths(data)
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


# --- the JSON text ----------------------------------------------------------------


def test_engine_certificates_to_json_matches_json_dumps():
    for make in ENGINE_CERTIFICATES.values():
        cert = make()
        assert cert.to_json() == json.dumps(cert.to_dict(), indent=2)


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
    by_name.cache_clear()
    AmbientRecipe("E(4)").build()  # cold: no named surface built yet; a build pairs c1 with itself
    calls.clear()
    cert = stein_disc_bundle(12, 20)
    # the squares of s and f, each once for its 1 and 12 steps, then the
    # resolved union's square; I+- pairs c1 once and reads the square from
    # the normal euler number
    assert len(calls) == 4
    decoded = Certificate.from_json(cert.to_json())
    calls.clear()
    assert verify_certificate(decoded).passed
    # the named surfaces come from the ambient's memo
    assert len(calls) == 2


def test_each_replay_step_builds_one_surface(monkeypatch):
    built = []
    post_init = constructions.SurfaceClass.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(constructions.SurfaceClass, "__post_init__", counted)
    by_name.cache_clear()
    # (engine on a cold ambient, distinct named classes, other steps)
    for make, named, others in ((lambda: stein_disc_bundle(6, 4), 2, 1),
                                (lambda: totally_real_nonorientable(-1, "e3"), 2, 2),
                                (lambda: stein_disc_bundle_nonorientable(-8, -30, "blow-up-cp2"),
                                 10, 2)):
        built.clear()
        cert = make()
        assert len(built) == named + others
        built.clear()
        verify_certificate(cert)
        assert len(built) == others


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


# --- the schema emitter and decoder ---------------------------------------------


def _engine_sweep():
    """Certificates of all four engines over a grid of their parameters."""
    for g in range(41):
        yield totally_real_oriented_in_k3(g)
    for kind in ("k3", "k3-blow-up", "e3"):
        for chi in range(-40, 2):
            if kind != "k3" or chi % 2 == 0:
                yield totally_real_nonorientable(chi, kind)
    for g in range(31):
        for m in (2, 3, 5, 8):
            yield stein_disc_bundle(g, 2 * g - m)
    for chi in range(-12, 2):
        for n in range(-chi, -chi - 10, -3):
            for strategy in ("blow-up-cp2", "section-of-em"):
                yield stein_disc_bundle_nonorientable(chi, n, strategy)


# the SHA-256 of every _engine_sweep certificate's to_json text, each
# followed by a NUL, as the generic emitter wrote them
SWEEP_SHA256 = "a0f4a7ad47e21e2e70bac6d0246d09f1cd962f523977719fa242d72bcbac4a4c"


def test_to_json_is_byte_identical_over_an_engine_sweep():
    digest = hashlib.sha256()
    count = 0
    for cert in _engine_sweep():
        text = cert.to_json()
        assert text == json.dumps(cert.to_dict(), indent=2)
        assert Certificate.from_json(text) == cert
        assert Certificate.from_dict(cert.to_dict()) == cert
        digest.update(text.encode() + b"\0")
        count += 1
    assert count == 41 + 21 + 42 + 42 + 31 * 4 + 14 * 4 * 2
    assert digest.hexdigest() == SWEEP_SHA256


class _Int(int):
    pass


class _Str(str):
    pass


def _off_schema_certificates():
    """Hand-built certificates: values outside the schema's exact types,
    and exact ones that exercise the string escaper and empty arrays."""
    numpy = pytest.importorskip("numpy")
    cert = stein_disc_bundle(2, 0)
    claimed, steps = cert.claimed, cert.steps
    hclass, last = claimed.hclass, steps[-1]

    def claims(**changes):
        return dataclasses.replace(cert, claimed=dataclasses.replace(claimed, **changes))

    empty_claims = Claims(True, 2, 0, (), 2, None, None)
    return {
        "numpy-int64-in-hclass": claims(hclass=(numpy.int64(1), *hclass[1:])),
        "numpy-int64-hclass": claims(hclass=tuple(numpy.array(hclass, dtype=numpy.int64))),
        "int-subclass-in-hclass": claims(hclass=(*hclass[:-1], _Int(hclass[-1]))),
        "int-subclass-euler-char": claims(euler_char=_Int(-2)),
        "int-subclass-blow-ups": dataclasses.replace(cert, ambient=AmbientRecipe("E(4)", _Int(0))),
        "bool-for-int": dataclasses.replace(cert, steps=(UseNamedClass("s", True), *steps[1:])),
        "str-subclass-name": dataclasses.replace(cert, steps=(UseNamedClass(_Str("s"), 2),
                                                              *steps[1:])),
        "list-parts": dataclasses.replace(cert, steps=(*steps[:-1],
                                                       Resolve(list(last.parts), last.crossings))),
        "list-hclass": claims(hclass=list(hclass)),
        "none-required": claims(euler_char=None, i_total=None),
        "float-field": claims(normal_euler=2.0),
        "disc-genus-none": claims(disc_bundle=DiscBundle(True, 0)),
        "disc-orientable-int": claims(disc_bundle=DiscBundle(1, 0, genus=2)),
        "disc-dict": claims(disc_bundle={"kind": "D"}),
        "unknown-step": dataclasses.replace(cert, steps=(*steps, object())),
        "notes-list": dataclasses.replace(cert, notes=["a list"]),
        "notes-escaped": dataclasses.replace(cert, notes=(
            'say "hi"\n\tand \\', "\u2028\u2029\x00\x7f", "\U0001f600 \ud800 é €", "")),
        "notes-str-subclass": dataclasses.replace(cert, notes=(_Str("x"),)),
        "empty-arrays": Certificate(AmbientRecipe("K3"), (ConnectedSum(()), Resolve((), 0)),
                                    empty_claims),
        "no-steps": Certificate(AmbientRecipe("K3"), (), empty_claims),
    }


# the path each off-schema case's TypeError starts with, spelled as the
# reader spells it; stein_disc_bundle(2, 0) has the steps s, f, f, resolve
OFF_SCHEMA_PATHS = {
    "numpy-int64-in-hclass": "claimed.hclass",
    "numpy-int64-hclass": "claimed.hclass",
    "int-subclass-in-hclass": "claimed.hclass",
    "int-subclass-euler-char": "claimed.euler_char",
    "int-subclass-blow-ups": "ambient.blow_ups",
    "bool-for-int": "step[0].chi",
    "str-subclass-name": "step[0].name",
    "list-parts": "step[3].parts",
    "list-hclass": "claimed.hclass",
    "none-required": "claimed.euler_char",
    "float-field": "claimed.normal_euler",
    "disc-genus-none": "claimed.disc_bundle",
    "disc-orientable-int": "claimed.disc_bundle",
    "disc-dict": "claimed.disc_bundle",
    "unknown-step": "step[4]",
    "notes-list": "notes",
    "notes-str-subclass": "notes",
}

# the SHA-256 of each in-schema case's to_json text, pinned from the
# writer the schema templates replaced
IN_SCHEMA_SHA256 = {
    "notes-escaped": "b36824a165673e2135a3cc211f33cde3344b36ba8e2c51571bd4393be8494961",
    "empty-arrays": "59a9da80e753c73a04e461c0b3662922aa633af24e93ecd646783984d0092964",
    "no-steps": "9630adb1b243e52884a833a5bca62398d2c30b56f809f82e942cf8a061377406",
}


def test_to_json_outside_the_schema_raises_naming_the_field():
    certs = _off_schema_certificates()
    assert set(certs) == set(OFF_SCHEMA_PATHS) | set(IN_SCHEMA_SHA256)
    for name, path in OFF_SCHEMA_PATHS.items():
        for write in (certs[name].to_json, certs[name].to_dict):
            with pytest.raises(TypeError) as info:
                write()
            assert str(info.value).startswith(f"{path} must be "), (name, str(info.value))


def test_to_json_inside_the_schema_keeps_its_bytes():
    certs = _off_schema_certificates()
    for name, digest in IN_SCHEMA_SHA256.items():
        text = certs[name].to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert Certificate.from_json(text) == certs[name], name


def _records(data):
    """Every object of a certificate dict: the root, the ambient, each
    step, the claims and a claimed disc bundle."""
    claimed = data["claimed"]
    disc = [] if claimed.get("disc_bundle") is None else [claimed["disc_bundle"]]
    return [data, data["ambient"], *data["steps"], claimed, *disc]


def _reversed_keys(value):
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def _spellings(text):
    """Other spellings of a certificate's JSON that decode to the same
    certificate: every object's keys reversed, an unknown key in each
    record, the optional fields at their defaults absent, and those whose
    default is null or false written as null."""
    yield "reordered", _reversed_keys(json.loads(text))
    for i in range(len(_records(json.loads(text)))):
        data = json.loads(text)
        _records(data)[i]["x-unknown"] = {"kind": "fold", "chi": [1.5, None]}
        yield f"unknown key in record {i}", data
    absent, nulled = json.loads(text), json.loads(text)
    if absent["ambient"]["blow_ups"] == 0:
        del absent["ambient"]["blow_ups"]
    if absent["notes"] == []:
        del absent["notes"]
    for step, same in zip(absent["steps"], nulled["steps"]):
        if step.get("orientable") is False:
            del step["orientable"]
            same["orientable"] = None
    for key in [key for key, value in absent["claimed"].items() if value is None]:
        del absent["claimed"][key]
    yield "absent optionals", absent
    yield "null optionals", nulled


def test_decoder_reads_every_spelling_of_an_engine_certificate():
    for cert in _engine_sweep():
        for how, data in _spellings(cert.to_json()):
            assert Certificate.from_dict(data) == cert, how


def _malformed_messages(data):
    """The message of every test_every_wrong_typed_field_is_malformed mutant
    of a certificate dict, in order."""
    out = []
    for path in _field_paths(data):
        value = data
        for key in path:
            value = value[key]
        for wrong in _wrong_values(value):
            with pytest.raises(MalformedCertificate) as info:
                Certificate.from_dict(_set(json.loads(json.dumps(data)), path, wrong))
            out.append(str(info.value))
    return out


# per engine, the SHA-256 of its mutants' messages joined by newlines
MALFORMED_MESSAGES_SHA256 = {
    "totally-real-oriented":
        "ecc01852b407a57189651f20a64a73875b2b4dd1ec0152785d24262229492d6c",
    "totally-real":
        "7ddfff147d5f8bb4276373c5c6abe1af34cbc9b67091bdc5d6eb2145292465b5",
    "stein-disc":
        "675c74db04bacaa953fcdd0ab45770be6b4828c1204b675a4127ebcd7f05fbab",
    "stein-disc-nonorientable":
        "176caaa0f09ff4b2f359c4e772681d9d6c023792511d7215173f87594d7594c7",
}

# every mutant message of one engine's certificate, in order
STEIN_DISC_NONORIENTABLE_MESSAGES = [
    "ambient.base must be a JSON string, got 1.5",
    "ambient.base must be a JSON string, got 1",
    "ambient.base must be a JSON string, got True",
    "ambient.base must be a JSON string, got ['CP2']",
    "ambient.blow_ups must be a JSON integer, got 1.5",
    "ambient.blow_ups must be a JSON integer, got True",
    "ambient.blow_ups must be a JSON integer, got '1'",
    "ambient.blow_ups must be a JSON integer, got [1]",
    "step[0].kind must be a JSON string, got 1.5",
    "step[0].kind must be a JSON string, got 1",
    "step[0].kind must be a JSON string, got True",
    "step[0].kind must be a JSON string, got ['embed-in-chart']",
    "step[0].chi must be a JSON integer, got 1.5",
    "step[0].chi must be a JSON integer, got True",
    "step[0].chi must be a JSON integer, got '-1'",
    "step[0].chi must be a JSON integer, got [-1]",
    "step[0].normal_euler must be a JSON integer, got 1.5",
    "step[0].normal_euler must be a JSON integer, got True",
    "step[0].normal_euler must be a JSON integer, got '-2'",
    "step[0].normal_euler must be a JSON integer, got [-2]",
    "step[0].orientable must be a JSON boolean, got 1.5",
    "step[0].orientable must be a JSON boolean, got 1",
    "step[0].orientable must be a JSON boolean, got 'true'",
    "step[1].kind must be a JSON string, got 1.5",
    "step[1].kind must be a JSON string, got 1",
    "step[1].kind must be a JSON string, got True",
    "step[1].kind must be a JSON string, got ['use-named-class']",
    "step[1].name must be a JSON string, got 1.5",
    "step[1].name must be a JSON string, got 1",
    "step[1].name must be a JSON string, got True",
    "step[1].name must be a JSON string, got ['e1']",
    "step[1].chi must be a JSON integer, got 1.5",
    "step[1].chi must be a JSON integer, got True",
    "step[1].chi must be a JSON integer, got '2'",
    "step[1].chi must be a JSON integer, got [2]",
    "step[2].kind must be a JSON string, got 1.5",
    "step[2].kind must be a JSON string, got 1",
    "step[2].kind must be a JSON string, got True",
    "step[2].kind must be a JSON string, got ['connected-sum']",
    "step[2].operands must be a JSON array of integers, got [1.5, 1]",
    "step[2].operands must be a JSON array of integers, got [True, 1]",
    "step[2].operands must be a JSON array of integers, got ['0', 1]",
    "step[2].operands must be a JSON array of integers, got [[0], 1]",
    "step[2].operands must be a JSON array of integers, got [0, 1.5]",
    "step[2].operands must be a JSON array of integers, got [0, True]",
    "step[2].operands must be a JSON array of integers, got [0, '1']",
    "step[2].operands must be a JSON array of integers, got [0, [1]]",
    "claimed.orientable must be a JSON boolean, got 1.5",
    "claimed.orientable must be a JSON boolean, got 1",
    "claimed.orientable must be a JSON boolean, got 'true'",
    "claimed.euler_char must be a JSON integer, got 1.5",
    "claimed.euler_char must be a JSON integer, got True",
    "claimed.euler_char must be a JSON integer, got '-1'",
    "claimed.euler_char must be a JSON integer, got [-1]",
    "claimed.normal_euler must be a JSON integer, got 1.5",
    "claimed.normal_euler must be a JSON integer, got True",
    "claimed.normal_euler must be a JSON integer, got '-3'",
    "claimed.normal_euler must be a JSON integer, got [-3]",
    "claimed.hclass must be a JSON array of integers, got [1.5, 1]",
    "claimed.hclass must be a JSON array of integers, got [True, 1]",
    "claimed.hclass must be a JSON array of integers, got ['0', 1]",
    "claimed.hclass must be a JSON array of integers, got [[0], 1]",
    "claimed.hclass must be a JSON array of integers, got [0, 1.5]",
    "claimed.hclass must be a JSON array of integers, got [0, True]",
    "claimed.hclass must be a JSON array of integers, got [0, '1']",
    "claimed.hclass must be a JSON array of integers, got [0, [1]]",
    "claimed.i_total must be a JSON integer, got 1.5",
    "claimed.i_total must be a JSON integer, got True",
    "claimed.i_total must be a JSON integer, got '-4'",
    "claimed.i_total must be a JSON integer, got [-4]",
    "claimed.i_plus must be a JSON integer, got 1.5",
    "claimed.i_plus must be a JSON integer, got '1'",
    "claimed.i_plus must be a JSON integer, got False",
    "claimed.i_minus must be a JSON integer, got 1.5",
    "claimed.i_minus must be a JSON integer, got '1'",
    "claimed.i_minus must be a JSON integer, got False",
    "claimed.stein_basis_possible must be a JSON boolean, got 1.5",
    "claimed.stein_basis_possible must be a JSON boolean, got 1",
    "claimed.stein_basis_possible must be a JSON boolean, got 'true'",
    "claimed.totally_real_possible must be a JSON boolean, got 1.5",
    "claimed.totally_real_possible must be a JSON boolean, got 1",
    "claimed.totally_real_possible must be a JSON boolean, got 'true'",
    "unknown disc bundle kind in {'kind': 1.5, 'chi': -1, 'euler_number': -3}",
    "unknown disc bundle kind in {'kind': 1, 'chi': -1, 'euler_number': -3}",
    "unknown disc bundle kind in {'kind': True, 'chi': -1, 'euler_number': -3}",
    "unknown disc bundle kind in {'kind': ['Dtilde'], 'chi': -1, 'euler_number': -3}",
    "claimed.disc_bundle.chi must be a JSON integer, got 1.5",
    "claimed.disc_bundle.chi must be a JSON integer, got True",
    "claimed.disc_bundle.chi must be a JSON integer, got '-1'",
    "claimed.disc_bundle.chi must be a JSON integer, got [-1]",
    "claimed.disc_bundle.euler_number must be a JSON integer, got 1.5",
    "claimed.disc_bundle.euler_number must be a JSON integer, got True",
    "claimed.disc_bundle.euler_number must be a JSON integer, got '-3'",
    "claimed.disc_bundle.euler_number must be a JSON integer, got [-3]",
]

# the exact message of each WRONG_TYPES mutant
WRONG_TYPE_MESSAGES = [
    "claimed.orientable must be a JSON boolean, got 'yes'",
    "claimed.hclass must be a JSON array of integers, got [0.9, " + "0, " * 19 + "2, 1]",
    "step[0].chi must be a JSON integer, got '2'",
    "claimed.totally_real_possible must be a JSON boolean, got 1",
    "ambient.blow_ups must be a JSON integer, got 0.7",
    "notes must be a JSON array of strings, got 'abc'",
    "step[3].crossings must be a JSON integer, got True",
    "claimed.euler_char must be a JSON integer, got 'abc'",
]


@pytest.mark.parametrize("engine", ENGINE_CERTIFICATES)
def test_malformed_messages_are_pinned(engine):
    messages = _malformed_messages(ENGINE_CERTIFICATES[engine]().to_dict())
    if engine == "stein-disc-nonorientable":
        assert messages == STEIN_DISC_NONORIENTABLE_MESSAGES
    digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
    assert digest == MALFORMED_MESSAGES_SHA256[engine]


def test_wrong_types_messages_are_pinned():
    messages = []
    for path, value, _ in WRONG_TYPES:
        text = json.dumps(_set(totally_real_oriented_in_k3(2).to_dict(), path, value))
        with pytest.raises(MalformedCertificate) as info:
            Certificate.from_json(text)
        messages.append(str(info.value))
    assert messages == WRONG_TYPE_MESSAGES


# --- the named-surface memo ---------------------------------------------------


def test_named_surface_memo_holds_one_catalog_surface_per_class():
    by_name.cache_clear()
    ambient = AmbientRecipe("K3").build()
    # 1,000 spheres in s written as tori: each a failed check, none memoized
    wrong = (*[UseNamedClass("s", 0)] * 1000, Resolve(tuple(range(1000)), 999000))
    claimed = Claims(True, -1998000, -2000000, None, -3998000, None, None)
    wrong_cert = Certificate(AmbientRecipe("K3"), wrong, claimed)
    report = verify_certificate(wrong_cert)
    named = [c for c in report.checks if "named class" in c.name]
    assert len(named) == 1000
    assert all(c.name.endswith("named class 's' has its catalog euler characteristic")
               and (c.expected, c.actual) == (2, 0) for c in named)
    assert report.passed is False and ambient._named_surfaces == {}
    for _ in range(3):
        assert verify_certificate(totally_real_oriented_in_k3(4)).passed
        assert verify_certificate(totally_real_nonorientable(-2, "k3")).passed
    memo = ambient._named_surfaces
    assert sorted(memo) == ["f", "s"]
    # with s memoized, a wrong chi still builds and replays its own surface
    assert verify_certificate(wrong_cert) == report
    steps = (UseNamedClass("s", 4),)
    with pytest.raises(MalformedCertificate, match=r"step\[0\]: an orientable closed surface"):
        verify_certificate(Certificate(AmbientRecipe("K3"), steps, claimed))
    # so does a chi of another type, which the surface keeps
    for chi in (2.0, _Int(2)):
        surface, _ = constructions._replay(ambient, (UseNamedClass("s", chi),))
        assert surface is not memo["s"] and type(surface.euler_char) is type(chi)
    assert sorted(memo) == ["f", "s"]
    assert (memo["f"].euler_char, memo["s"].euler_char) == (0, 2)
    assert memo["f"].ambient is ambient and memo["s"].ambient is ambient


def test_replay_takes_a_shared_ambient_by_identity(monkeypatch):
    compared = []
    eq = AmbientSurface.__eq__

    def counted(self, other):
        compared.append(other)
        return eq(self, other)

    monkeypatch.setattr(AmbientSurface, "__eq__", counted)
    cert = stein_disc_bundle(12, 20)
    assert verify_certificate(cert).passed
    # every part of each union holds the one ambient of the replay
    assert compared == []


def test_each_ambient_has_its_own_named_surface_memo():
    base = e(2)
    constructions._replay(base, (UseNamedClass("s", 2),))
    assert list(base._named_surfaces) == ["s"]
    renamed = dataclasses.replace(base, label="K3")
    assert renamed._named_surfaces == {} and k3()._named_surfaces == {}
    # the memo is not a field: equality, repr and replace ignore it
    assert renamed == k3() and dataclasses.replace(base) == base
    assert "_named_surfaces" not in repr(base)
    assert "_named_surfaces" not in {f.name for f in dataclasses.fields(base)}
