"""Exception types shared across the library."""


class SpecSyntaxError(ValueError):
    """Malformed ring-spec or element text.

    ``position`` is the character offset of the problem when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GuardExceededError(RuntimeError):
    """A size guard would be exceeded by the requested computation."""


class InternalDefectError(RuntimeError):
    """Two independent computations of the same fact disagreed, or a
    certified construction failed its own certificate.

    Nothing recovers from it.  The verification corpus (verify.py) catches
    it only at its one per-ring boundary, to count it as a defect of that
    ring, and ``unitlift corpus run`` exits 70 when any was counted, the
    exit code the CLI gives an uncaught one.  Reaching it means the
    library, not the input, is wrong.
    """
