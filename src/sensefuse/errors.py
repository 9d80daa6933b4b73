"""Exception types shared across the package."""
from __future__ import annotations


class ConfigError(ValueError):
    """A configuration value violates its documented constraint.

    The message lists every offending key so a bad file can be fixed in
    one pass instead of one error at a time.
    """

    def __init__(self, violations: str | list[str]):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DegenerateGeometryError(ValueError):
    """A polar conversion was attempted at zero range, where bearing is undefined."""


class StoreCorruptError(ValueError):
    """A sensing store log cannot be replayed; names the file and line."""

    def __init__(self, path: object, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {reason}")


class EmptyRunError(ValueError):
    """Metrics were requested over zero frames or zero realizations."""
