"""Core domain types and the equivalence / similarity / satisfaction judgments.

Properties and methods are matched "by meaning", operationalized as
equality of an equivalence key that each member computes once and caches:
- quantitative property: kind, name and units (values abstract over
  instances);
- qualitative property: kind, name and the printed normal form of the
  verification expression (or none);
- method: kind, name, arity and the printed normal form of the body (or
  none).

Objects, cores and projections cache the set of their members' keys, so
similarity, member-for-member equivalence and subsumption are set
comparisons.  State equality adds values, degrees and parameter names on
top of equal key sets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import OodnError
from .expr import (
    EvalContext,
    EvalError,
    Expr,
    Sort,
    evaluate,
    expr_equal,  # noqa: F401 - perfbench/spans.py traces oodn.model.expr_equal
    infer_sort,
    normalize,
    param_refs,
    print_expr,
)


class ModelError(OodnError):
    """Invalid domain value or misuse of a judgment."""


def _coerce_number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ModelError(f"expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise ModelError("number out of range") from None
    if not math.isfinite(f):
        raise ModelError(f"value {f} is not a finite number")
    return f


def coerce_value(value) -> float | tuple | None:
    """A quantitative value (of a property or a setValue edit): None, a
    finite number, or a nonempty list of them; a bool is not a number."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        if not value:
            raise ModelError("a list value must be nonempty")
        return tuple(_coerce_number(v) for v in value)
    return _coerce_number(value)


def _expr_key(e: Expr | None) -> str | None:
    """The printed normal form: a small string that caches its hash."""
    return None if e is None else print_expr(normalize(e))


def _cache_field():
    """A declared field for a derived value, stored with
    `object.__setattr__` at construction or on first use.
    `functools.cached_property` would write through the instance
    `__dict__`, which on CPython 3.11 makes every later attribute read of
    that instance about twice as slow."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class QuantitativeProperty:
    """Named (value, units) pair; value may be a scalar, an ordered list,
    or absent at class level."""

    name: str
    units: str
    value: float | tuple | None = None
    _key: tuple | None = _cache_field()

    def __post_init__(self):
        if not self.name:
            raise ModelError("property name must be nonempty")
        if not self.units:
            raise ModelError(f"property {self.name!r}: units must be nonempty")
        object.__setattr__(self, "value", coerce_value(self.value))

    @property
    def key(self) -> tuple:
        """Equivalence key; the value is not part of it."""
        if self._key is None:
            object.__setattr__(self, "_key", ("quant", self.name, self.units))
        return self._key


@dataclass(frozen=True, slots=True)
class QualitativeProperty:
    """Named verification predicate mapping the subject into [0, 1]; an
    instance may instead (or additionally) carry an evaluated degree."""

    name: str
    verification: Expr | None = None
    degree: float | None = None
    _key: tuple | None = _cache_field()

    def __post_init__(self):
        if not self.name:
            raise ModelError("property name must be nonempty")
        if self.verification is None and self.degree is None:
            raise ModelError(
                f"property {self.name!r}: needs a verification expression or a degree"
            )
        if self.degree is not None:
            d = _coerce_number(self.degree)
            if not 0.0 <= d <= 1.0:
                raise ModelError(f"property {self.name!r}: degree {d} outside [0, 1]")
            object.__setattr__(self, "degree", d)
        if self.verification is not None:
            if infer_sort(self.verification) is not Sort.DEGREE:
                raise ModelError(
                    f"property {self.name!r}: verification must evaluate to a degree"
                )

    @property
    def key(self) -> tuple:
        """Equivalence key; the stored degree is not part of it."""
        if self._key is None:
            key = ("qual", self.name, _expr_key(self.verification))
            object.__setattr__(self, "_key", key)
        return self._key


Property = Union[QuantitativeProperty, QualitativeProperty]


class _NamedMembers:
    """The part `Specification` and `Signature` share: members with
    pairwise-distinct names, indexed by name.  The index keeps the
    members in order, so iteration, `len` and `names` read it too."""

    __slots__ = ()

    def _index(self, members: tuple, kinds: tuple, noun: str) -> None:
        by_name = {}
        for x in members:
            if not isinstance(x, kinds):
                raise ModelError(f"not a {noun}: {x!r}")
            if x.name in by_name:
                raise ModelError(f"duplicate {noun} name {x.name!r}")
            by_name[x.name] = x
        object.__setattr__(self, "_by_name", by_name)

    def __iter__(self) -> Iterator:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    @property
    def names(self) -> tuple:
        return tuple(self._by_name)

    def get(self, name: str):
        return self._by_name.get(name)


@dataclass(frozen=True, slots=True)
class Specification(_NamedMembers):
    """Ordered property list with pairwise-distinct names."""

    members: tuple = ()
    _by_name: dict | None = _cache_field()

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        self._index(self.members, (QuantitativeProperty, QualitativeProperty), "property")


@dataclass(frozen=True, slots=True)
class Method:
    """Named operation; the body may be left abstract at class level."""

    name: str
    parameters: tuple = ()
    body: Expr | None = None
    _key: tuple | None = _cache_field()

    def __post_init__(self):
        if not self.name:
            raise ModelError("method name must be nonempty")
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if len(set(self.parameters)) != len(self.parameters):
            raise ModelError(f"method {self.name!r}: duplicate parameter names")
        if self.body is not None:
            unknown = param_refs(self.body) - set(self.parameters)
            if unknown:
                raise ModelError(
                    f"method {self.name!r}: body references undeclared parameters "
                    f"{sorted(unknown)}"
                )

    @property
    def arity(self) -> int:
        return len(self.parameters)

    @property
    def key(self) -> tuple:
        """Equivalence key; parameter names are not part of it."""
        if self._key is None:
            key = ("method", self.name, self.arity, _expr_key(self.body))
            object.__setattr__(self, "_key", key)
        return self._key


@dataclass(frozen=True, slots=True)
class Signature(_NamedMembers):
    """Ordered method list with pairwise-distinct names."""

    methods: tuple = ()
    _by_name: dict | None = _cache_field()

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        self._index(self.methods, (Method,), "method")


def _member_keys(part) -> frozenset:
    """The set of the members' equivalence keys, computed once."""
    keys = part._keys
    if keys is None:
        keys = frozenset(
            [p.key for p in part.specification] + [m.key for m in part.signature]
        )
        object.__setattr__(part, "_keys", keys)
    return keys


@dataclass(frozen=True, slots=True)
class ObjectInstance:
    """Concrete object: identifier, clone index (0 = original),
    specification with concrete quantitative values, and signature."""

    identifier: str
    specification: Specification = field(default_factory=Specification)
    signature: Signature = field(default_factory=Signature)
    clone_index: int = 0
    _keys: frozenset | None = _cache_field()

    def __post_init__(self):
        name, i = self.identifier, self.clone_index
        if not isinstance(name, str) or not name:
            raise ModelError(f"object identifier must be a nonempty string: {name!r}")
        if not isinstance(i, int) or isinstance(i, bool) or i < 0:
            raise ModelError(f"clone index must be an integer >= 0: {i!r}")
        for p in self.specification:
            if isinstance(p, QuantitativeProperty) and p.value is None:
                raise ModelError(
                    f"object {self.identifier!r}: property {p.name!r} "
                    "must carry a concrete value"
                )

    def find_property(self, name: str) -> Property | None:
        return self.specification.get(name)

    @property
    def node_name(self) -> str:
        if self.clone_index:
            return f"{self.identifier}#{self.clone_index}"
        return self.identifier

    member_keys = property(_member_keys)


@dataclass(frozen=True, slots=True)
class Core:
    """Members shared by all constituents of a class."""

    specification: Specification = field(default_factory=Specification)
    signature: Signature = field(default_factory=Signature)
    _keys: frozenset | None = _cache_field()

    def __len__(self) -> int:
        return len(self.specification) + len(self.signature)

    member_keys = property(_member_keys)


@dataclass(frozen=True, slots=True)
class Projection:
    """Members typical of exactly one constituent; labeled by its source."""

    source_label: str
    specification: Specification = field(default_factory=Specification)
    signature: Signature = field(default_factory=Signature)
    _keys: frozenset | None = _cache_field()

    def __post_init__(self):
        if not self.source_label:
            raise ModelError("projection source label must be nonempty")
        if len(self.specification) + len(self.signature) == 0:
            raise ModelError(
                f"projection {self.source_label!r} must hold at least one member"
            )

    member_keys = property(_member_keys)


@dataclass(frozen=True, slots=True)
class ClassDef:
    """Class of objects.  Core-only classes are homogeneous; classes with
    projections (with or without a core) are inhomogeneous."""

    name: str
    core: Core | None = None
    projections: tuple = ()

    def __post_init__(self):
        if not self.name:
            raise ModelError("class name must be nonempty")
        object.__setattr__(self, "projections", tuple(self.projections))
        if self.core is None and not self.projections:
            raise ModelError(f"class {self.name!r}: core and projections both empty")
        if self.core is not None and len(self.core) == 0 and not self.projections:
            raise ModelError(f"class {self.name!r}: empty core without projections")
        core_props = set(self.core.specification.names) if self.core else set()
        core_methods = set(self.core.signature.names) if self.core else set()
        for pr in self.projections:
            clash = core_props & set(pr.specification.names)
            if clash:
                raise ModelError(
                    f"class {self.name!r}: properties {sorted(clash)} appear in both "
                    f"core and projection {pr.source_label!r}"
                )
            clash = core_methods & set(pr.signature.names)
            if clash:
                raise ModelError(
                    f"class {self.name!r}: methods {sorted(clash)} appear in both "
                    f"core and projection {pr.source_label!r}"
                )

    @property
    def is_homogeneous(self) -> bool:
        return self.core is not None and not self.projections


def require_homogeneous(t: ClassDef, context: str) -> Core:
    if not t.is_homogeneous:
        raise ModelError(f"{context}: class {t.name!r} is not core-only")
    assert t.core is not None
    return t.core


# --- equivalence judgments ---------------------------------------------------

Member = Union[QuantitativeProperty, QualitativeProperty, Method]


def member_equivalent(a: Member, b: Member) -> bool:
    """Equal equivalence keys: name + units for quantitative pairs (values
    abstract over instances); name + verification normal form for
    qualitative pairs; name + arity + body normal form for methods; mixed
    kinds are never equivalent."""
    return a.key == b.key


property_equivalent = method_equivalent = member_equivalent


def objects_similar(a: ObjectInstance, b: ObjectInstance) -> bool:
    """Same properties and same behavior, order-insensitive by name."""
    return a.member_keys == b.member_keys


# --- satisfaction and subsumption -------------------------------------------


def satisfies(o: ObjectInstance, t: ClassDef, threshold: float = 1.0) -> float:
    """Degree to which object `o` meets class `t`'s requirements: the
    minimum over per-member scores.  Callers compare the result against
    `threshold` for a crisp instance-of decision."""
    core = require_homogeneous(t, "satisfies")
    check_threshold(threshold)
    ctx = EvalContext(subject=o)
    score = 1.0
    for m in (*core.specification, *core.signature):
        score = min(score, member_score(o, m, ctx))
        if score == 0.0:
            return 0.0
    return score


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise ModelError(f"threshold must lie in (0, 1], got {threshold}")


def member_score(o: ObjectInstance, m: Member, ctx: EvalContext) -> float:
    """Degree to which `o` meets one class member; depends only on `o` and
    the member's value.  `ctx` is `EvalContext(subject=o)`, built once per
    object by the caller."""
    if isinstance(m, Method):
        own = o.signature.get(m.name)
        if own is None or own.arity != m.arity:
            return 0.0
        # An abstract requirement is met by name + arity alone.
        return 1.0 if m.body is None or own.key == m.key else 0.0
    if isinstance(m, QuantitativeProperty):
        own = o.find_property(m.name)
        if isinstance(own, QuantitativeProperty) and own.units == m.units:
            return 1.0
        return 0.0
    if m.verification is not None:
        try:
            result = evaluate(m.verification, ctx)
        except EvalError as exc:
            raise EvalError(
                f"verification of property {m.name!r} failed on "
                f"{o.node_name}: {exc}",
                exc.node,
            ) from exc
        return float(result)
    # Opaque qualitative requirement: use the instance's stored degree.
    own = o.find_property(m.name)
    if isinstance(own, QualitativeProperty) and own.degree is not None:
        return own.degree
    return 0.0


def subsumes(general: ClassDef, specific: ClassDef) -> bool:
    """Proper structural subsumption: every member of `general` has an
    equivalent in `specific`, and the two are not member-for-member
    equivalent."""
    s = require_homogeneous(specific, "subsumes")
    g = require_homogeneous(general, "subsumes")
    return g.member_keys < s.member_keys


# --- structural comparisons used for deduplication --------------------------


def _parts(t: ClassDef) -> tuple:
    return (t.core, *t.projections)


def _keys(part) -> frozenset | None:
    return None if part is None else part.member_keys


def classes_member_equivalent(a: ClassDef, b: ClassDef) -> bool:
    """Member-for-member equivalence (value-abstracting, order-insensitive
    by name; projection labels ignored, projection order significant)."""
    pa, pb = _parts(a), _parts(b)
    return len(pa) == len(pb) and all(_keys(x) == _keys(y) for x, y in zip(pa, pb))


def _state(part) -> frozenset:
    """Each member's key with its value, degree or parameter names."""
    return frozenset(
        [
            (p.key, p.value if isinstance(p, QuantitativeProperty) else p.degree)
            for p in part.specification
        ]
        + [(m.key, m.parameters) for m in part.signature]
    )


def class_state_equal(a: ClassDef, b: ClassDef) -> bool:
    """Structural equality including class-level constrained values and
    stored degrees; names and projection labels ignored.  Used to decide
    whether a derived class duplicates an existing node."""
    return classes_member_equivalent(a, b) and all(
        x is None or _state(x) == _state(y) for x, y in zip(_parts(a), _parts(b))
    )


def object_state_equal(a: ObjectInstance, b: ObjectInstance) -> bool:
    """Structural equality of state (values and degrees included),
    ignoring identifier and clone index."""
    return a.member_keys == b.member_keys and _state(a) == _state(b)
