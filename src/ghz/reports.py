"""Small verdict/witness containers shared by the checking modules: the
mutable ``Report`` and ``Record``, the base of the frozen value records."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Plain slotted base, so nothing is generated at import: ``==`` and
    ``hash`` over the ``__slots__`` values within one class.  ``__init__``
    sets each field once; a later assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C getter per class; over one slot it returns the bare value,
        # which compares and hashes as consistently as a 1-tuple
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        values = tuple(getattr(self, name) for name in self.__slots__)
        return f"{type(self).__name__}{values!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Report:
    """A verdict with human-readable violations and informational notes.

    A violation is a string, or a deferred entry: a thunk, added by
    ``defer``, that returns the violation strings of one check.  A check
    defers only when it found a failure, so ``ok`` reads the verdict without
    formatting anything, and ``merge`` carries entries as they are.
    Reading ``violations`` (which ``to_dict``, ``summary`` and ``==`` do)
    calls each of the report's thunks once and puts its strings in its
    place, in order: a thunk merged into two reports runs for each."""

    __slots__ = ("subject", "_violations", "notes", "trust_markers")

    def __init__(self, subject: str):
        self.subject = subject
        self._violations = []
        self.notes = []
        self.trust_markers = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @property
    def ok(self) -> bool:
        return not self._violations

    @property
    def violations(self) -> list:
        entries = self._violations
        if not all(type(v) is str for v in entries):
            entries[:] = [w for v in entries
                          for w in ((v,) if type(v) is str else v())]
        return entries

    def fail(self, message: str):
        self._violations.append(message)

    def defer(self, witnesses):
        """Fail with the nonempty list of strings ``witnesses()`` returns,
        formatted when the violations are first read."""
        self._violations.append(witnesses)

    def note(self, message: str):
        self.notes.append(message)

    def trust(self, message: str):
        if message not in self.trust_markers:
            self.trust_markers.append(message)

    def merge(self, other: "Report"):
        self._violations.extend(other._violations)
        self.notes.extend(other.notes)
        for t in other.trust_markers:
            self.trust(t)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": list(self.violations),
            "notes": list(self.notes),
            "trust_markers": list(self.trust_markers),
        }

    def summary(self) -> str:
        lines = [f"{self.subject}: {'ok' if self.ok else 'FAILED'}"]
        lines.extend(f"  violation: {v}" for v in self.violations)
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend(f"  trusted: {t}" for t in self.trust_markers)
        return "\n".join(lines)
