"""Exception types shared across the package."""

from __future__ import annotations


class VcnetError(Exception):
    """Base class for all package errors."""


class ConfigError(VcnetError):
    """A configuration object or parameter violates its documented range."""


class SchemaError(VcnetError):
    """An input file header does not match the documented schema."""


class RankDeficientError(VcnetError):
    """A design matrix is rank deficient; names the offending columns."""

    def __init__(self, columns: list[str]):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; collinear columns: {', '.join(self.columns)}")


class ConvergenceError(VcnetError):
    """An iterative solver hit its iteration cap; carries the residual."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual={residual:.3e})")


class InvariantError(VcnetError):
    """An algorithm broke an invariant that holds for every valid input.

    Signals a defect or numerical breakdown, not bad input; the CLI
    reports it as an internal error (exit code 1).
    """


class MissingArtifactError(VcnetError):
    """A pipeline stage input produced by an upstream stage is absent."""

    def __init__(self, path):
        self.path = str(path)
        super().__init__(f"missing upstream artifact: {self.path}")
