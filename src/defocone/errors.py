"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent caller input."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard was exceeded; raise rather than grind."""
