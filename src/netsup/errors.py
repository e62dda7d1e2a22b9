"""Exception types shared across the package."""


class ModelError(Exception):
    """A model violates a structural requirement."""


class SchemaError(ModelError):
    """A model document is malformed or breaks a declared invariant."""


class DeterminismError(ModelError):
    """Two transitions leave the same state on the same event."""


class UnknownNameError(ModelError):
    """A state or event is referenced but never declared."""


class CompositionError(ModelError):
    """Component alphabets overlap in more than the clock event, or two
    state pairs of a composition get the same name."""


class ResourceLimitError(RuntimeError):
    """A construction exceeded its configured state budget."""
