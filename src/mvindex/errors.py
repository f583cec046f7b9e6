"""Exception types raised by the advisor."""


class AdvisorError(Exception):
    """Base class for all mvindex errors.

    Carries the source name and a 1-based line/column position when known,
    and names them before the message.
    """

    def __init__(self, message, source=None, line=None, column=None):
        self.source = source
        self.line = line
        self.column = column
        prefix = ""
        if source is not None:
            prefix = f"{source}: "
        if line is not None:
            prefix += f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)


class ParseError(AdvisorError):
    """Malformed input file (catalog, workload or candidates)."""


class UnknownNameError(AdvisorError):
    """A table or attribute name does not resolve against the catalog."""


class ValidationError(AdvisorError):
    """Structurally well-formed input that violates a model invariant."""


class InvalidBudgetError(AdvisorError):
    """Storage budget is negative."""


class TooManyObjectsError(AdvisorError):
    """Exhaustive enumeration refused: candidate set too large."""
