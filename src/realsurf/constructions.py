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

The JSON form has a fixed schema, read off the dataclass fields:
``to_json`` fills one pre-indented template per record kind and
``from_dict`` checks each field's exact type, both from the same
tables.  A certificate holding any other type is written through
``to_dict`` and the generic emitter, and a field that fails its check
is read by ``_read``, so bytes and error messages are those of the
generic path.  The replay takes a named class's catalog surface from
its ambient's memo, so it is built and paired once per ambient.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from ._jsontext import _JSON_LEAVES, _encode_str
from ._jsontext import dumps_indented as _dumps_indented
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
        """``json.dumps(self.to_dict(), indent=2)``, byte for byte."""
        if type(self) is Certificate:
            try:
                return _certificate_json(self)
            except _OffSchema:
                pass
        return _dumps_indented(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        ambient = _read(data, "ambient", dict)
        steps = _read(data, "steps", list)
        return cls(
            AmbientRecipe(*_decode(ambient, _FIELDS[AmbientRecipe], "ambient")),
            tuple([_step_from_dict(s, i) for i, s in enumerate(steps)]),
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

_STEP_KINDS = {
    "embed-in-chart": EmbedInChart,
    "use-named-class": UseNamedClass,
    "resolve": Resolve,
    "connected-sum": ConnectedSum,
}
_KIND_OF = {cls: kind for kind, cls in _STEP_KINDS.items()}

_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", dict: "object", list: "array"}
_REQUIRED = object()

# a field annotation -> the JSON type its value is read and written as;
# [int] is an array of integers, held as a tuple
_JSON_KIND = {"int": int, "bool": bool, "str": str, "tuple[int, ...]": [int]}


def _schema(fields) -> tuple:
    """``(name, JSON type, default)`` per dataclass field, in declaration
    order.  A field without a default is required unless its annotation
    admits None, which is then its default."""
    out = []
    for f in fields:
        kind, _, none = f.type.partition(" | ")
        default = f.default
        if default is dataclasses.MISSING:
            default = None if none == "None" else _REQUIRED
        out.append((f.name, _JSON_KIND[kind], default))
    return tuple(out)


# every record's fields but the claimed disc bundle, which has its own form
_FIELDS = {cls: _schema(dataclasses.fields(cls)) for cls in (AmbientRecipe, *_KIND_OF)}
_FIELDS[Claims] = _schema(dataclasses.fields(Claims)[:-1])


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
    if type(kind) is list and type(value) is list and set(map(type, value)) <= {kind[0]}:
        return tuple(value)
    if value is None and default is not _REQUIRED:
        if key not in data or default is None or default is False:
            return default
    path = f"{where}.{key}" if where else key
    if key not in data:
        raise MalformedCertificate(f"certificate is missing the field {path}")
    name = f"array of {_JSON_TYPES[kind[0]]}s" if type(kind) is list else _JSON_TYPES[kind]
    raise MalformedCertificate(f"{path} must be a JSON {name}, got {value!r}")


def _decode(data: dict, fields: tuple, where: str) -> list:
    """The values of an object's schema fields, in declaration order.  A
    value of its field's exact JSON type is taken as it is; any other,
    and every array, goes through ``_read``."""
    out = []
    for key, kind, default in fields:
        value = data.get(key)
        if type(value) is not kind:
            value = _read(data, key, kind, default, where)
        out.append(value)
    return out


def _step_from_dict(data: dict, index: int) -> Step:
    where = f"step[{index}]"
    kind = data.get("kind") if type(data) is dict else None
    cls = _STEP_KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        kind = _read(data, "kind", str, where=where)  # raises unless a string
        raise MalformedCertificate(f"{where}: unknown step kind {kind!r}")
    return cls(*_decode(data, _FIELDS[cls], where))


def _claims_from_dict(data: dict) -> Claims:
    disc = raw = _read(data, "disc_bundle", dict, None, "claimed")
    if raw is not None:
        where = "claimed.disc_bundle"
        if raw.get("kind") == "D":
            disc = DiscBundle(True, _read(raw, "euler_number", int, where=where),
                              genus=_read(raw, "genus", int, where=where))
        elif raw.get("kind") == "Dtilde":
            disc = DiscBundle(False, _read(raw, "euler_number", int, where=where),
                              chi=_read(raw, "chi", int, where=where))
        else:
            raise MalformedCertificate(f"unknown disc bundle kind in {raw!r}")
    return Claims(*_decode(data, _FIELDS[Claims], "claimed"), disc)


def _fields(obj) -> dict:
    """A dataclass's fields in declaration order, which is the order its
    ``__init__`` sets them in, with tuples as lists."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(obj).items()}


def _step_to_dict(step: Step) -> dict:
    if type(step) not in _KIND_OF:
        raise MalformedCertificate(f"unknown step type {type(step).__name__}")
    return {"kind": _KIND_OF[type(step)], **_fields(step)}


def _claims_to_dict(c: Claims) -> dict:
    out, disc = _fields(c), c.disc_bundle
    if disc is not None and disc.orientable:
        out["disc_bundle"] = {"kind": "D", "genus": disc.genus, "euler_number": disc.euler_number}
    elif disc is not None:
        out["disc_bundle"] = {"kind": "Dtilde", "chi": disc.chi, "euler_number": disc.euler_number}
    return out


# The text of to_json, written from the schema: json.dumps(to_dict(),
# indent=2) puts each object or array entry on its own line, two spaces
# deeper than the line that opens it.  Values of any type but the exact
# schema types raise _OffSchema, and to_json then falls back to to_dict.


class _OffSchema(Exception):
    pass


def _template(keys, pad: str, head: tuple = ()) -> str:
    """An object closed at indentation ``pad``: the ``head`` entries as
    written, then each key with a ``%s`` for its value."""
    inner = pad + "  "
    entries = [*head, *(f"{_encode_str(key)}: %s" for key in keys)]
    return "{" + inner + ("," + inner).join(entries) + pad + "}"


def _array_json(texts: list, pad: str) -> str:
    """An array of the given element texts, closed at indentation ``pad``."""
    if not texts:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _values_json(obj, fields: tuple, pad: str) -> tuple:
    """The text of each schema field of ``obj``, an object closed at
    indentation ``pad``: its exact JSON type, an array of it, or null."""
    out = []
    for value, (_, kind, _) in zip(vars(obj).values(), fields):
        if type(value) is kind:
            out.append(_JSON_LEAVES[kind](value))
        elif value is None:
            out.append("null")
        elif type(kind) is list and type(value) is tuple and set(map(type, value)) <= {kind[0]}:
            out.append(_array_json(list(map(_JSON_LEAVES[kind[0]], value)), pad + "  "))
        else:
            raise _OffSchema
    return tuple(out)


def _names(cls) -> tuple:
    return tuple(name for name, _, _ in _FIELDS[cls])


_STEP_JSON = {
    cls: _template(_names(cls), "\n    ", (f'"kind": {_encode_str(kind)}',))
    for cls, kind in _KIND_OF.items()
}
_AMBIENT_JSON = _template(_names(AmbientRecipe), "\n  ")
_CLAIMS_JSON = _template((*_names(Claims), "disc_bundle"), "\n  ")
# orientable -> the claimed disc bundle, its base genus or chi then its euler number
_DISC_JSON = {
    True: _template(("genus", "euler_number"), "\n    ", ('"kind": "D"',)),
    False: _template(("chi", "euler_number"), "\n    ", ('"kind": "Dtilde"',)),
}
_CERTIFICATE_JSON = _template(("ambient", "steps", "claimed", "notes"), "\n")


def _disc_json(disc) -> str:
    if disc is None:
        return "null"
    if type(disc) is not DiscBundle or type(disc.orientable) is not bool:
        raise _OffSchema
    numbers = (disc.genus if disc.orientable else disc.chi, disc.euler_number)
    if set(map(type, numbers)) != {int}:
        raise _OffSchema
    return _DISC_JSON[disc.orientable] % tuple(map(int.__repr__, numbers))


def _certificate_json(cert: Certificate) -> str:
    ambient, steps, claimed, notes = cert.ambient, cert.steps, cert.claimed, cert.notes
    if (type(ambient) is not AmbientRecipe or type(claimed) is not Claims
            or type(steps) is not tuple or type(notes) is not tuple
            or not set(map(type, notes)) <= {str}):
        raise _OffSchema
    texts = []
    for step in steps:
        cls = type(step)
        if cls not in _STEP_JSON:
            raise _OffSchema
        texts.append(_STEP_JSON[cls] % _values_json(step, _FIELDS[cls], "\n    "))
    return _CERTIFICATE_JSON % (
        _AMBIENT_JSON % _values_json(ambient, _FIELDS[AmbientRecipe], "\n  "),
        _array_json(texts, "\n  "),
        _CLAIMS_JSON % (*_values_json(claimed, _FIELDS[Claims], "\n  "),
                        _disc_json(claimed.disc_bundle)),
        _array_json(list(map(_encode_str, notes)), "\n  "),
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
                # the ambient keeps the catalog surface of each named class
                memo = ambient._named_surfaces
                surface = memo.get(step.name)
                if surface is None or type(step.chi) is not int or step.chi != surface.euler_char:
                    # the surface's normal euler number is the square h.h
                    surface = SurfaceClass(ambient, True, step.chi, ambient.named[step.name], None)
                catalog_chi = 2 if surface.normal_euler != 0 else 0
                if type(step.chi) is int and step.chi == catalog_chi:
                    memo[step.name] = surface
                checks.append(
                    Check(f"{tag}: named class {step.name!r} has its catalog euler characteristic",
                          catalog_chi, step.chi)
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
