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
from dataclasses import field
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
    normal_form,
    normalize,
    param_refs,
    print_expr,
    _frozen,
)


class ModelError(OodnError):
    """Invalid domain value or misuse of a judgment."""


def _coerce_number(v) -> float:
    if type(v) is float and math.isfinite(v):
        return v
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


@_frozen
class QuantitativeProperty:
    """Named (value, units) pair; value may be a scalar, an ordered list,
    or absent at class level."""

    name: str
    units: str
    value: float | tuple | None = None
    _key: tuple | None = _cache_field()

    def __post_init__(self):
        if not isinstance(self.name, str) or not isinstance(self.units, str):
            raise ModelError(
                f"property name and units must be strings: {self.name!r}, {self.units!r}"
            )
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


@_frozen
class QualitativeProperty:
    """Named verification predicate mapping the subject into [0, 1]; an
    instance may instead (or additionally) carry an evaluated degree."""

    name: str
    verification: Expr | None = None
    degree: float | None = None
    _key: tuple | None = _cache_field()
    _reordered_only: bool | None = _cache_field()  # set with `_key`; see `score_key`

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ModelError(f"property name must be a string: {self.name!r}")
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
            normal, reordered_only = None, True
            if self.verification is not None:
                normal, reordered_only = normal_form(self.verification)
            key = ("qual", self.name, None if normal is None else print_expr(normal))
            object.__setattr__(self, "_reordered_only", reordered_only)
            object.__setattr__(self, "_key", key)
        return self._key

    @property
    def score_key(self):
        """What decides this member's `member_score` for every object: the
        key, when there is no verification (the object's own degree is
        read by name) or the verification differs from its normal form
        only in commutative operand order; else the member itself, since
        double-negation elimination, constant folding and a pruned `if`
        keep the key but may change the score (`not not x` is
        `1 - (1 - x)`)."""
        key = self.key
        return key if self._reordered_only else self


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


@_frozen
class Specification(_NamedMembers):
    """Ordered property list with pairwise-distinct names."""

    members: tuple = ()
    _by_name: dict | None = _cache_field()

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        self._index(self.members, (QuantitativeProperty, QualitativeProperty), "property")


@_frozen
class Method:
    """Named operation; the body may be left abstract at class level."""

    name: str
    parameters: tuple = ()
    body: Expr | None = None
    _key: tuple | None = _cache_field()

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ModelError(f"method name must be a string: {self.name!r}")
        if not self.name:
            raise ModelError("method name must be nonempty")
        if isinstance(self.parameters, str):
            raise ModelError(
                f"method {self.name!r}: parameters must be a sequence of names, "
                f"not the string {self.parameters!r}"
            )
        object.__setattr__(self, "parameters", tuple(self.parameters))
        for p in self.parameters:
            if not isinstance(p, str):
                raise ModelError(f"method {self.name!r}: parameter name {p!r} is not a string")
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

    # A method's `member_score` compares keys, so its key decides it.
    score_key = key


@_frozen
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


@_frozen
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


@_frozen
class Core:
    """Members shared by all constituents of a class."""

    specification: Specification = field(default_factory=Specification)
    signature: Signature = field(default_factory=Signature)
    _keys: frozenset | None = _cache_field()

    def __len__(self) -> int:
        return len(self.specification) + len(self.signature)

    member_keys = property(_member_keys)


@_frozen
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


@_frozen
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
        for pr in self.projections:
            for what, part in (("properties", "specification"), ("methods", "signature")):
                core_names = getattr(self.core, part).names if self.core else ()
                clash = set(core_names).intersection(getattr(pr, part).names)
                if clash:
                    raise ModelError(
                        f"class {self.name!r}: {what} {sorted(clash)} appear in both "
                        f"core and projection {pr.source_label!r}"
                    )

    @property
    def is_homogeneous(self) -> bool:
        return self.core is not None and not self.projections


def require_homogeneous(t: ClassDef, context: str) -> Core:
    if not isinstance(t, ClassDef):
        raise TypeError(f"{context}: expected a ClassDef, got {type(t).__name__}")
    core = t.core
    if core is None or t.projections:
        raise ModelError(f"{context}: class {t.name!r} is not core-only")
    return core


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


def structure(part) -> frozenset:
    """What an object offers, or what a core requires, that one set test
    decides: each quantitative property as (name, units), and each
    method as (name, arity); a str is never an int, so the two never
    meet.  Built per call and not cached: an object member's `key` is
    not filled in here, since most are never read again."""
    return requirements(part)[0]


def requirements(part) -> tuple[frozenset, tuple]:
    """A core (or object) split in two in one pass over its members: its
    `structure`, and the members an object meeting that structure still
    has to be scored on, in scoring order: the methods that have a body,
    then the qualitative properties, each group in member order."""
    required, bodied, qualitative = [], [], []
    for p in part.specification.members:
        if isinstance(p, QuantitativeProperty):
            required.append((p.name, p.units))
        else:
            qualitative.append(p)
    for m in part.signature.methods:
        required.append((m.name, len(m.parameters)))
        if m.body is not None:
            bodied.append(m)
    return frozenset(required), (*bodied, *qualitative)


def satisfies(o: ObjectInstance, t: ClassDef, threshold: float = 1.0) -> float:
    """Degree to which object `o` meets class `t`'s requirements: 0 when
    `o` lacks part of the class's structure, else the minimum over the
    scores of the remaining members.  Callers compare the result against
    `threshold` for a crisp instance-of decision."""
    if not isinstance(o, ObjectInstance):
        raise TypeError(f"satisfies: expected an ObjectInstance, got {type(o).__name__}")
    core = require_homogeneous(t, "satisfies")
    check_threshold(threshold)
    required, scored = requirements(core)
    if not required <= structure(o):
        return 0.0
    ctx = EvalContext(subject=o)
    score = 1.0
    for m in scored:
        score = min(score, member_score(o, m, ctx))
        if score == 0.0:
            return 0.0
    return score


def check_threshold(threshold: float) -> None:
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not 0.0 < threshold <= 1.0
    ):
        raise ModelError(f"threshold must lie in (0, 1], got {threshold!r}")


def member_score(o: ObjectInstance, m: Member, ctx: EvalContext) -> float:
    """Degree to which `o` meets one scored member of a class (see
    `requirements`); `o` meets the class's structure.  Depends only on
    `o` and the member's value.  `ctx` is `EvalContext(subject=o)`, built
    once per object by the caller."""
    if isinstance(m, Method):
        # The structural test found a method of this name and arity.
        return 1.0 if o.signature.get(m.name).key == m.key else 0.0
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
    return _member_keys(g) < _member_keys(s)


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
