"""Exception types shared across the package.

Checkers return reports with witnesses; exceptions are reserved for
structural problems (shapes, fields, bad input files) and for gated
constructions whose preconditions fail.
"""
from __future__ import annotations


class BraceForgeError(Exception):
    """Base class for all braceforge errors."""


class DimensionMismatch(BraceForgeError):
    """Matrix shapes do not conform."""


class FieldMismatch(BraceForgeError):
    """Operands carry different scalar fields."""


class _Reported(BraceForgeError):
    """Base for errors raised by AxiomReport.require, the report attached."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class PrereqFailed(_Reported):
    """A gated operation was called on data that fails its prerequisite checks."""


class NotCocommutative(BraceForgeError):
    """Operation requires a cocommutative coproduct."""


class NotDiagonal(BraceForgeError):
    """Operation requires both Hopf components of a matched pair to coincide."""


class NotAGroup(_Reported):
    """A Cayley table fails the group axioms."""


class OrderTooLarge(BraceForgeError):
    """Enumeration requested beyond the guarded order bound."""


class _AxiomsFailed(_Reported):
    """Base for gated constructions rejecting invalid input, report attached."""


class SkewBraceAxiomsFailed(_AxiomsFailed):
    pass


class BraceAxiomsFailed(_AxiomsFailed):
    pass


class ObtAxiomsFailed(_AxiomsFailed):
    pass


class MpAxiomsFailed(_AxiomsFailed):
    pass


class StorageError(BraceForgeError):
    """Base for file I/O problems; CLI maps these to exit code 2."""


class ParseError(StorageError):
    """Input is not well-formed JSON."""


class SchemaError(StorageError):
    """JSON is well-formed but does not match the structure-file schema."""


class ShapeError(StorageError):
    """A stored matrix has the wrong number of rows or columns."""


class CanonicalFormError(StorageError):
    """A stored scalar string is not in canonical form."""
