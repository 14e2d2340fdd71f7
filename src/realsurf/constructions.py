"""Construction certificates: replayable transcripts of the embedding
constructions, engines that emit them, and an independent verifier.

A ``Certificate`` is an ambient recipe (catalog name plus blow-up
count), an ordered list of steps, and the claimed invariants of the
final surface.  Steps build surfaces into a registry; ``Resolve`` and
``ConnectedSum`` consume earlier entries (by index, in creation order)
and append their result.  A well-formed transcript leaves exactly one
unconsumed surface, and replaying it through :mod:`realsurf.embedded`
must reproduce every claimed value.

The four engines:

* ``totally_real_oriented_in_k3(g)``: resolve a sphere in the section
  class s with g fiber tori into a genus-g surface in class s + g f;
  both signed counts vanish, so the surface can be made totally real.
* ``totally_real_nonorientable(chi, ambient_kind)``: chart embeddings
  with a fixed dispatch on chi mod 4, corrected by connected sums with
  a totally real sphere, an exceptional sphere, or a section until
  I = 0.  Plain K3 only covers chi = 0, 2 (mod 4); the odd classes
  need the blow-up or E(3).
* ``stein_disc_bundle(g, n)``: for n <= 2g - 2, the resolved section-
  plus-fibers surface in E(2g - n) has [S].[S] = n, I+ = 2 - m <= 0 and
  I- = 0, so its Stein neighborhood basis consists of copies of the
  disc bundle D(g, n).
* ``stein_disc_bundle_nonorientable(chi, n, strategy)``: for
  n + chi <= 0, either sum with m exceptional spheres over CP^2
  (each lowers the normal Euler number by 1) or with one section of
  E(m) (which lowers it by m), landing the chart surface on normal
  Euler number n with I = chi + n <= 0.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass

from .ambient import AmbientSurface, Check, by_name
from .embedded import (
    SurfaceClass,
    _check_nonorientable_chi,
    _predicates,
    _realizable,
    connected_sum,
    invariant_report,
    resolve_union,
)

__all__ = [
    "AmbientRecipe",
    "EmbedInChart",
    "UseNamedClass",
    "Resolve",
    "ConnectedSum",
    "DiscBundle",
    "Claims",
    "Certificate",
    "VerificationReport",
    "Infeasible",
    "NoRecipe",
    "MalformedCertificate",
    "totally_real_oriented_in_k3",
    "totally_real_nonorientable",
    "stein_disc_bundle",
    "stein_disc_bundle_nonorientable",
    "verify_certificate",
]


class Infeasible(Exception):
    """The requested object provably does not exist (expected negative)."""


class NoRecipe(Exception):
    """The catalog has no construction for these parameters (but other
    ambient choices may work)."""


class MalformedCertificate(ValueError):
    """The certificate cannot be replayed at all (as opposed to replaying
    to values that contradict its claims)."""


# --- step types ---------------------------------------------------------------


@dataclass(frozen=True)
class EmbedInChart:
    """Embed a surface in a small contractible chart.

    Nonorientable chart surfaces may take any normal Euler number in
    ``massey_set(chi)``; orientable ones are forced to zero.
    """

    chi: int
    normal_euler: int
    orientable: bool = False


@dataclass(frozen=True)
class UseNamedClass:
    """Take the catalog representative of a named class: a sphere
    (chi = 2) when the self-intersection is nonzero, a torus (chi = 0)
    when it vanishes.
    """

    name: str
    chi: int


@dataclass(frozen=True)
class Resolve:
    """Resolve all crossings of the union of earlier surfaces.

    ``crossings`` is the geometric count of transverse intersection
    points.  The pairings bound it: it must be at least |X| and of X's
    parity, where X is the sum of the pairings S_i.S_j over pairs of
    parts.  That the union is connected is asserted by whoever wrote the
    certificate.
    """

    parts: tuple[int, ...]
    crossings: int


@dataclass(frozen=True)
class ConnectedSum:
    """Tube earlier surfaces together.  The operands must pair to zero
    pairwise, so any order of them gives the same surface."""

    operands: tuple[int, ...]


Step = EmbedInChart | UseNamedClass | Resolve | ConnectedSum


@dataclass(frozen=True)
class AmbientRecipe:
    base: str
    blow_ups: int = 0

    def build(self) -> AmbientSurface:
        try:
            return by_name(self.base, self.blow_ups)
        except ValueError as exc:
            # by_name checks the blow-up count before the base
            field = "blow_ups" if self.blow_ups < 0 else "base"
            raise MalformedCertificate(f"ambient.{field}: {exc}") from None


@dataclass(frozen=True)
class DiscBundle:
    """Claimed diffeomorphism type of the Stein neighborhood fibers:
    D(genus, euler_number) over an orientable base, or the twisted
    bundle over a nonorientable base of the given chi.
    """

    orientable: bool
    euler_number: int
    genus: int | None = None
    chi: int | None = None


@dataclass(frozen=True)
class Claims:
    orientable: bool
    euler_char: int
    normal_euler: int
    hclass: tuple[int, ...] | None
    i_total: int
    i_plus: int | None
    i_minus: int | None
    stein_basis_possible: bool | None = None
    totally_real_possible: bool | None = None
    disc_bundle: DiscBundle | None = None


@dataclass(frozen=True)
class Certificate:
    ambient: AmbientRecipe
    steps: tuple[Step, ...]
    claimed: Claims
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "ambient": _fields(self.ambient),
            "steps": [_step_to_dict(s) for s in self.steps],
            "claimed": _claims_to_dict(self.claimed),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return _dumps_indented(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        ambient = functools.partial(_read, _read(data, "ambient", dict), where="ambient")
        steps = _read(data, "steps", list)
        return cls(
            AmbientRecipe(ambient("base", str), ambient("blow_ups", int, 0)),
            tuple(_step_from_dict(s, f"step[{i}]") for i, s in enumerate(steps)),
            _claims_from_dict(_read(data, "claimed", dict)),
            _read(data, "notes", [str], ()),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedCertificate(f"certificate is not valid JSON: {exc}") from None
        return cls.from_dict(data)


# --- JSON form ----------------------------------------------------------------

# step kind -> (class, decoder from a reader of the step record's fields)
_STEP_KINDS = {
    "embed-in-chart": (EmbedInChart, lambda read: EmbedInChart(
        read("chi", int), read("normal_euler", int), read("orientable", bool, False))),
    "use-named-class": (UseNamedClass, lambda read: UseNamedClass(
        read("name", str), read("chi", int))),
    "resolve": (Resolve, lambda read: Resolve(read("parts", [int]), read("crossings", int))),
    "connected-sum": (ConnectedSum, lambda read: ConnectedSum(read("operands", [int]))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _STEP_KINDS.items()}

_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", dict: "object", list: "array"}
_REQUIRED = object()


def _read(data: dict, key: str, kind, default=_REQUIRED, where: str = ""):
    """``data[key]`` if it has the JSON type ``kind`` exactly: a bool is no
    integer, and a float or a string no number.  ``[int]`` and ``[str]``
    read an array of that type as a tuple.  An absent key reads as
    ``default``, and so does null where the default is None or False.
    Anything else raises MalformedCertificate naming the field path."""
    if type(data) is not dict:
        raise MalformedCertificate(f"{where or 'certificate'} must be a JSON object")
    value = data.get(key)
    if type(value) is kind:
        return value
    if type(kind) is list and type(value) is list and all(type(x) is kind[0] for x in value):
        return tuple(value)
    if value is None and default is not _REQUIRED:
        if key not in data or default is None or default is False:
            return default
    path = f"{where}.{key}" if where else key
    if key not in data:
        raise MalformedCertificate(f"certificate is missing the field {path}")
    name = f"array of {_JSON_TYPES[kind[0]]}s" if type(kind) is list else _JSON_TYPES[kind]
    raise MalformedCertificate(f"{path} must be a JSON {name}, got {value!r}")


_encode_str = json.encoder.encode_basestring_ascii  # the standard library's C escaper
_INFINITY = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# leaf type -> its JSON spelling as json.dumps writes it
_JSON_LEAVES = {
    str: _encode_str, int: int.__repr__, float: _json_float,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


def _dumps_indented(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, with tuples as lists.
    The standard encoder indents in pure Python; here containers are
    joined strings and leaves take the C routines.  ``pad`` is the
    newline and indentation that close ``obj``."""
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_key(k) + ": " + _dumps_indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        leaf = _JSON_LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, obj) if leaf else [_dumps_indented(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)  # a subclass of a leaf type; anything else raises TypeError


def _json_key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _fields(obj) -> dict:
    """A dataclass's fields in declaration order, which is the order its
    ``__init__`` sets them in, with tuples as lists."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(obj).items()}


def _step_to_dict(step: Step) -> dict:
    if type(step) not in _KIND_OF:
        raise MalformedCertificate(f"unknown step type {type(step).__name__}")
    return {"kind": _KIND_OF[type(step)], **_fields(step)}


def _step_from_dict(data: dict, where: str) -> Step:
    kind = _read(data, "kind", str, where=where)
    if kind not in _STEP_KINDS:
        raise MalformedCertificate(f"{where}: unknown step kind {kind!r}")
    return _STEP_KINDS[kind][1](functools.partial(_read, data, where=where))


def _claims_to_dict(c: Claims) -> dict:
    out, disc = _fields(c), c.disc_bundle
    if disc is not None and disc.orientable:
        out["disc_bundle"] = {"kind": "D", "genus": disc.genus, "euler_number": disc.euler_number}
    elif disc is not None:
        out["disc_bundle"] = {"kind": "Dtilde", "chi": disc.chi, "euler_number": disc.euler_number}
    return out


def _claims_from_dict(data: dict) -> Claims:
    read = functools.partial(_read, data, where="claimed")
    disc = raw = read("disc_bundle", dict, None)
    if raw is not None:
        number = functools.partial(_read, raw, kind=int, where="claimed.disc_bundle")
        if raw.get("kind") == "D":
            disc = DiscBundle(True, number("euler_number"), genus=number("genus"))
        elif raw.get("kind") == "Dtilde":
            disc = DiscBundle(False, number("euler_number"), chi=number("chi"))
        else:
            raise MalformedCertificate(f"unknown disc bundle kind in {raw!r}")
    # positional, in field order
    return Claims(
        read("orientable", bool), read("euler_char", int), read("normal_euler", int),
        read("hclass", [int], None), read("i_total", int), read("i_plus", int, None),
        read("i_minus", int, None), read("stein_basis_possible", bool, None),
        read("totally_real_possible", bool, None), disc,
    )


# --- replay -------------------------------------------------------------------


def _take(registry: list, indices: tuple[int, ...], tag: str) -> list[SurfaceClass]:
    out = []
    for i in indices:
        if not 0 <= i < len(registry):
            raise MalformedCertificate(f"{tag}: operand index {i} out of range")
        if registry[i] is None:
            raise MalformedCertificate(f"{tag}: operand {i} was already consumed")
        out.append(registry[i])
        registry[i] = None
    return out


def _replay(ambient: AmbientSurface, steps: tuple[Step, ...]):
    """Fold the steps into a final surface; returns it with the step-level
    validity checks.  Structural nonsense raises MalformedCertificate.
    """
    registry: list[SurfaceClass | None] = []
    checks: list[Check] = []
    for idx, step in enumerate(steps):
        tag = f"step[{idx}]"
        try:
            if isinstance(step, EmbedInChart):
                if step.orientable:
                    check = Check(f"{tag}: orientable chart surface has zero normal euler number",
                                  0, step.normal_euler)
                else:
                    check = Check(f"{tag}: chart normal euler number is realizable",
                                  True, _realizable(step.chi, step.normal_euler))
                checks.append(check)
                registry.append(
                    SurfaceClass(ambient, step.orientable, step.chi, None, step.normal_euler)
                )
            elif isinstance(step, UseNamedClass):
                if step.name not in ambient.named:
                    raise MalformedCertificate(
                        f"{tag}: {ambient.label} has no named class {step.name!r}"
                    )
                # the surface's normal euler number is the square h.h
                surface = SurfaceClass(ambient, True, step.chi, ambient.named[step.name], None)
                checks.append(
                    Check(f"{tag}: named class {step.name!r} has its catalog euler characteristic",
                          2 if surface.normal_euler != 0 else 0, step.chi)
                )
                registry.append(surface)
            elif isinstance(step, Resolve):
                parts = _take(registry, step.parts, tag)
                registry.append(resolve_union(parts, step.crossings))
            elif isinstance(step, ConnectedSum):
                registry.append(connected_sum(*_take(registry, step.operands, tag)))
            else:
                raise MalformedCertificate(f"{tag}: unknown step type {type(step).__name__}")
        except ValueError as exc:
            if isinstance(exc, MalformedCertificate):
                raise
            raise MalformedCertificate(f"{tag}: {exc}") from None
    remaining = [s for s in registry if s is not None]
    if len(remaining) != 1:
        raise MalformedCertificate(
            f"steps must leave exactly one surface, {len(remaining)} remain"
        )
    return remaining[0], checks


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = ()

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)


# the check name of each Claims field but the disc bundle, in field order
_CLAIM_CHECKS = tuple(zip(dataclasses.fields(Claims), (
    "claimed orientability", "claimed euler characteristic", "claimed normal euler number",
    "claimed homology class", "claimed count I", "claimed signed count I+",
    "claimed signed count I-", "claimed Stein neighborhood basis possibility",
    "claimed totally real possibility",
)))


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Rebuild the ambient, replay the steps, and compare every claim with
    the claims the replayed surface supports.  The two predicates, the
    fields that default to None, are compared only when claimed.  A
    claimed disc bundle must match the replayed base and euler number,
    and the replayed surface must admit a Stein neighborhood basis."""
    final, checks = _replay(cert.ambient.build(), cert.steps)
    actual = _claims_for(final)
    for field, name in _CLAIM_CHECKS:
        claimed = getattr(cert.claimed, field.name)
        if claimed is not None or field.default is not None:
            checks.append(Check(name, claimed, getattr(actual, field.name)))
    bundle = cert.claimed.disc_bundle
    if bundle is not None:
        checks.append(Check("disc bundle base orientability", bundle.orientable, final.orientable))
        if bundle.orientable:
            checks.append(
                Check("disc bundle base genus matches chi", 2 - 2 * bundle.genus, final.euler_char)
            )
        else:
            checks.append(Check("disc bundle base chi", bundle.chi, final.euler_char))
        checks.append(
            Check("disc bundle euler number is the normal euler number",
                  bundle.euler_number, final.normal_euler)
        )
        # the engines emit Stein disc bundles only; None (I+- undefined) fails
        checks.append(Check("disc bundle is Stein", True, actual.stein_basis_possible))
    passed = all(c.ok for c in checks)
    return VerificationReport(passed, tuple(checks), cert.notes)


# --- engines ------------------------------------------------------------------


def _claims_for(final: SurfaceClass, disc_bundle: DiscBundle | None = None) -> Claims:
    """Every claim the replayed surface supports; the predicates are None
    where I+- is undefined (an oriented surface without a class)."""
    report = invariant_report(final)
    stein = real = None
    if not final.orientable or report.i_plus is not None:
        stein, real = _predicates(final.orientable, report.i_total, report.i_plus,
                                  report.i_minus)
    return Claims(
        final.orientable, final.euler_char, final.normal_euler,
        None if final.hclass is None else final.hclass.coeffs,
        report.i_total, report.i_plus, report.i_minus, stein, real, disc_bundle,
    )


def _finish(recipe: AmbientRecipe, steps: list[Step], notes: tuple[str, ...] = (),
            disc_bundle: DiscBundle | None = None) -> Certificate:
    final, _ = _replay(recipe.build(), tuple(steps))
    return Certificate(recipe, tuple(steps), _claims_for(final, disc_bundle), notes)


def _section_plus_fibers(g: int) -> list[Step]:
    """A section-class sphere resolved with g fiber tori: genus g, class s + g f."""
    fibers = [UseNamedClass("f", 0)] * g
    return [UseNamedClass("s", 2), *fibers, Resolve(tuple(range(g + 1)), g)]


def totally_real_oriented_in_k3(g: int) -> Certificate:
    """A totally real closed oriented genus-g surface in K3, as the
    resolution of a section-class sphere with g fiber tori.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    cert = _finish(AmbientRecipe("K3"), _section_plus_fibers(g))
    assert cert.claimed.i_plus == 0 and cert.claimed.i_minus == 0
    return cert


def _chart_sum(chi: int, nu: int, spheres: list[str]) -> list[Step]:
    """A chart surface tubed to the catalog spheres of the given names."""
    steps: list[Step] = [EmbedInChart(chi, nu), *(UseNamedClass(name, 2) for name in spheres)]
    return steps + [ConnectedSum(tuple(range(len(steps))))] if spheres else steps


# per ambient kind, its recipe and, for each chi mod 4 residue, the chart
# count I and the spheres that bring it to 0; None marks residues the plain
# K3 recipe cannot reach without a blow-up.
_NONOR_DISPATCH = {
    "k3": (AmbientRecipe("K3"), {0: (0, []), 2: (2, ["s"]), 1: None, 3: None}),
    "k3-blow-up": (AmbientRecipe("K3", 1), {0: (0, []), 2: (2, ["s"]), 3: (1, ["e1"]),
                                             1: (3, ["e1", "s"])}),
    "e3": (AmbientRecipe("E(3)"), {0: (0, []), 2: (2, ["s1"]), 3: (5, ["s1", "s"]),
                                   1: (3, ["s"])}),
}


def totally_real_nonorientable(chi: int, ambient_kind: str = "k3-blow-up") -> Certificate:
    """A totally real closed nonorientable surface of the given chi.

    The chart embedding takes the count value the case analysis fixes
    for chi mod 4, and connected sums with catalog spheres bring it to
    zero.  Plain K3 handles chi = 0, 2 (mod 4) only; the blow-up and
    E(3) handle every chi.  ``ambient_kind`` is ``k3``, ``k3-blow-up`` or
    ``e3``, spelled exactly so.
    """
    _check_nonorientable_chi(chi)
    if ambient_kind not in _NONOR_DISPATCH:
        raise ValueError(f"unknown ambient kind {ambient_kind!r}; expected k3, k3-blow-up or e3")
    recipe, dispatch = _NONOR_DISPATCH[ambient_kind]
    entry = dispatch[chi % 4]
    if entry is None:
        raise NoRecipe(
            f"chi = {chi} is {chi % 4} mod 4: the K3 chart values cannot reach count 0 "
            "without an exceptional sphere; use the K3-blow-up or E(3) recipe"
        )
    chart_count, spheres = entry
    nu = chart_count - chi
    assert _realizable(chi, nu), "chart dispatch left the realizable range"
    cert = _finish(recipe, _chart_sum(chi, nu, spheres))
    assert cert.claimed.i_total == 0
    return cert


_STEIN_NOTE = (
    "The resolved surface has I = chi + [S].[S] = 2 - m; the count vanishes "
    "only in its negative part (I- = 0), which with I+ = 2 - m <= 0 is what "
    "the Stein neighborhood criterion needs."
)


def stein_disc_bundle(g: int, n: int) -> Certificate:
    """The disc bundle D(g, n) as a Stein neighborhood fiber in E(2g - n).

    Infeasible for n > 2g - 2: such bundles carry no Stein structure.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if n > 2 * g - 2:
        raise Infeasible(
            f"D({g},{n}) has no Stein structure: the euler number must satisfy n <= 2g-2 "
            f"(= {2 * g - 2})"
        )
    m = 2 * g - n
    cert = _finish(AmbientRecipe(f"E({m})"), _section_plus_fibers(g), (_STEIN_NOTE,),
                   DiscBundle(True, n, genus=g))
    assert cert.claimed.i_plus == 2 - m and cert.claimed.i_minus == 0
    assert cert.claimed.normal_euler == n
    return cert


def _minimal_shift(chi: int, n: int, lower: int) -> int:
    """Smallest m >= lower with n + m in massey_set(chi)."""
    least = 2 * chi - 4  # the least value, and every value's residue mod 4
    m = max(lower + (least - n - lower) % 4, least - n)
    if not _realizable(chi, n + m):
        raise AssertionError("no realizable chart normal euler number; feasibility bug")
    return m


def stein_disc_bundle_nonorientable(chi: int, n: int, strategy: str = "blow-up-cp2") -> Certificate:
    """The disc bundle over a nonorientable base (Euler characteristic chi,
    euler number n) as a Stein neighborhood fiber.  Infeasible for
    n + chi > 0.

    Strategies: ``blow-up-cp2`` sums the chart surface with m exceptional
    spheres in the m-fold blow-up of CP^2; ``section-of-em`` takes one
    connected sum with a section of E(m).  Both land on normal Euler
    number n with I = chi + n, and m is minimized.  No other spelling of
    the strategy is accepted.
    """
    _check_nonorientable_chi(chi)
    if n + chi > 0:
        raise Infeasible(
            f"the disc bundle over a chi = {chi} nonorientable base with euler number {n} "
            "has no Stein structure: n + chi must be <= 0"
        )
    if strategy == "blow-up-cp2":
        m = _minimal_shift(chi, n, lower=0)
        recipe, spheres = AmbientRecipe("CP2", m), [f"e{i}" for i in range(1, m + 1)]
    elif strategy == "section-of-em":
        m = _minimal_shift(chi, n, lower=1)
        recipe, spheres = AmbientRecipe(f"E({m})"), ["s"]
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected blow-up-cp2 or section-of-em")
    cert = _finish(recipe, _chart_sum(chi, n + m, spheres), (), DiscBundle(False, n, chi=chi))
    assert cert.claimed.normal_euler == n
    assert cert.claimed.i_total == chi + n
    return cert
