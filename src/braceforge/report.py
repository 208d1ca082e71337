"""Pass/fail reports with counterexample witnesses.

Every checker in the package returns an AxiomReport: an immutable,
ordered tuple of named entries, each passed or failed.  A failed entry
always carries a witness dict (for map equations: the first differing
basis column and both side values; for set-level laws: the offending
element tuple).  A checker that includes another checker's verdict embeds
its entries under a name prefix (``prefixed``); a construction gated on a
verdict calls ``require``, which raises with the report attached.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    witness: dict | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError(f"failed entry {self.name!r} must carry a witness")

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class AxiomReport:
    entries: tuple[CheckEntry, ...] = ()

    def __post_init__(self):
        # any iterable of entries is accepted and frozen into a tuple
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def prefixed(self, prefix: str) -> tuple[CheckEntry, ...]:
        """The entries renamed to prefix + name, for embedding in another report."""
        return tuple(replace(e, name=prefix + e.name) for e in self.entries)

    def require(self, exc_type: type[Exception], message: str) -> None:
        """Raise exc_type(message, self) unless every entry passed."""
        if not self.ok:
            raise exc_type(message, self)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def has_entry(self, name: str) -> bool:
        return any(e.name == name for e in self.entries)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}

    def __str__(self) -> str:
        lines = []
        for e in self.entries:
            if e.passed:
                lines.append(f"PASS  {e.name}")
            else:
                wit = " ".join(f"{k}={v}" for k, v in sorted(e.witness.items()))
                lines.append(f"FAIL  {e.name}  [{wit}]")
        return "\n".join(lines)
