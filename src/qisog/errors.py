class PreconditionError(ValueError):
    """Input violates a documented precondition."""


class CapExceeded(RuntimeError):
    """A search or walk hit a module *_CAP or the class BFS's level cap h - 1."""
