"""Pass/fail reports with counterexample witnesses.

Every checker in the package returns an AxiomReport: an immutable,
ordered tuple of named entries, each passed or failed.  A failed entry
always carries a witness (for map equations: the first differing basis
column and both side values; for set-level laws: the offending element
tuple), held as a read-only mapping.  A checker that includes another
checker's verdict embeds its entries under a name prefix (``prefixed``); a
construction gated on a verdict calls ``require``, which raises with the
report attached.

Since nothing in a report, a LinMap or a record can change, the gate
checkers and the module-coalgebra check hand one report, gamma, phi, Q's
action, psi, mu_tilde, the interchange and braiding one map, and all four
functors and obt_from_matched_pair one record, to every caller: ``memoize``
keeps the last MEMO_SIZE results per function, keyed on the argument
records themselves, which compare and hash by their structure maps (or
tables), never by their ``meta``, so equal structures share one result.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    witness: Mapping | None = None

    def __post_init__(self):
        if self.witness is not None:
            # a private read-only copy, since a cached report is shared
            object.__setattr__(self, "witness",
                               MappingProxyType(dict(self.witness)))
        elif not self.passed:
            raise ValueError(f"failed entry {self.name!r} must carry a witness")

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return (CheckEntry, (self.name, self.passed, self._witness_dict()))

    def _witness_dict(self) -> dict | None:
        return None if self.witness is None else dict(self.witness)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "witness": self._witness_dict()}


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


# ---------------------------------------------------------------------------
# memoization

# Results each memoized function keeps.  One suite row verifies at most a
# few distinct structures per checker, so 16 serves every repeat in a row
# (32 served no more), and a stream of new inputs, such as one-constant
# mutants, holds a fixed and small amount of memory.
MEMO_SIZE = 16


def memoize(fn):
    """Decorator: remember fn's result per argument tuple in a per-process
    ``functools.lru_cache`` of MEMO_SIZE entries.

    Only for functions whose result is immutable and depends on nothing but
    the arguments' values, since every caller with equal arguments gets the
    same object.  A call that raises stores nothing.
    """
    cached = functools.lru_cache(maxsize=MEMO_SIZE)(fn)

    # a plain function, not the cache object: tracers wrap only plain functions
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return cached(*args, **kwargs)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper
