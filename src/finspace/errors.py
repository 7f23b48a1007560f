"""Exception types shared across the package, and the JSON document plumbing.

Each document type (a poset, a complex, a cover, a cylinder spec, a
collapse certificate) has one reader, ``from_doc(doc)``, which checks the
document with the field checks below as it builds the object, and one
writer, ``to_doc()``; ``Document`` derives the text forms from them.  A
check raises MalformedSpec naming the offending part.  The poset and
complex readers also read documents nested in others, so they take the
label of the part they read, ``from_doc(doc, what)`` ("the poset", "the
cover parent", "a space", "the target").
"""

import json


class FinspaceError(Exception):
    pass


class CycleDetected(FinspaceError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"relation contains a cycle: {' < '.join(self.cycle)} < {self.cycle[0]}")


class DuplicateElement(FinspaceError):
    pass


class UnknownElement(FinspaceError):
    pass


class UnknownSimplex(FinspaceError):
    pass


class UnknownMember(FinspaceError):
    pass


class EmptySpace(FinspaceError):
    pass


class EmptyComplex(FinspaceError):
    pass


class EmptyObject(FinspaceError):
    pass


class TargetNotInduced(FinspaceError):
    pass


class NotOrderPreserving(FinspaceError):
    pass


class MismatchedSpaces(FinspaceError):
    pass


class MalformedSpec(FinspaceError):
    pass


class InvalidCover(FinspaceError):
    pass


class NotAChain(FinspaceError):
    pass


class GenerationExhausted(FinspaceError):
    pass


class InvariantViolation(FinspaceError):
    """An internal consistency check failed: a bug, not bad input."""


class Document:
    """A type with one JSON document format: ``from_doc`` and ``to_doc``
    are its own; the text forms are those of json."""

    __slots__ = ()

    @classmethod
    def from_json(cls, text: str):
        return cls.from_doc(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_doc())


# -- document checks: each raises MalformedSpec naming the offending part ----


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise MalformedSpec(f"{what} must be a JSON object")
    return doc


def _field(doc, key: str, what: str):
    """doc[key], where doc must be a JSON object holding key."""
    if key not in _object(doc, what):
        raise MalformedSpec(f"{what} needs a {key!r} key")
    return doc[key]


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedSpec(f"{what} must be a string id")
    return value


def _string_ids(value, what: str, size: int | None = None) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedSpec(f"{what} must be a list of string ids")
    if size is not None and len(value) != size:
        raise MalformedSpec(f"{what} must hold {size} ids")
    return value


def _distinct(ids, what: str):
    """The ids of a list that names a set, which must not repeat one."""
    if len(set(ids)) != len(ids):
        raise MalformedSpec(f"{what} repeats an id: {ids}")
    return ids


def _id_set(value, what: str) -> list:
    """A list of string ids that names a set."""
    return _distinct(_string_ids(value, what), what)


def _id_sets(value, what: str) -> list:
    """A list of lists of string ids, each naming a set (a facet)."""
    return [_id_set(ids, f"each entry of {what}") for ids in _id_lists(value, what)]


def _id_lists(value, what: str, size: int | None = None) -> list:
    if not isinstance(value, list):
        raise MalformedSpec(f"{what} must be a list")
    for item in value:
        _string_ids(item, f"each entry of {what}", size)
    return value


def _objects(doc, key: str, what: str) -> list:
    items = _field(doc, key, what)
    if not isinstance(items, list):
        raise MalformedSpec(f"{what} {key!r} must be a list")
    return [_object(item, f"each entry of {what} {key!r}") for item in items]
