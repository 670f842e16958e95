"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ValueError):
    """A numeric argument lies outside the operation's documented domain."""


class ContractError(ValueError):
    """A call violates an API precondition (wrong tag, bad range, empty input)."""


class TUParseError(ValueError):
    """A dataset file in graph-kernel text format is malformed.

    Carries the offending file and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class ConfigError(ValueError):
    """An experiment configuration is invalid (unknown key, bad value)."""


class TrainingDivergedError(RuntimeError):
    """A training loss became non-finite, or a step raised DomainError (its
    text, `detail`, ends the message, also across processes)."""

    def __init__(self, fold, epoch, detail=None):
        super().__init__(f"non-finite loss at fold {fold}, epoch {epoch}"
                         + (f": {detail}" if detail else ""))
        self.fold = fold
        self.epoch = epoch
        self.detail = detail

    def __reduce__(self):
        # default exception pickling would replay __init__ with the message
        return (type(self), (self.fold, self.epoch, self.detail))
