"""Exception hierarchy shared by the kernel modules."""


class RfodError(Exception):
    """Base class for all kernel errors."""


class DslSyntaxError(RfodError):
    """Raised by the DSL lexer/parser; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LookupFailure(RfodError):
    """Unknown domain or predicate symbol under a declaration context."""


class DomainError(RfodError):
    """Violated invariant of a random first-order domain."""


class SubstitutionError(RfodError):
    """Bad substitution request (open term, non-sharp forgetful term, ...)."""


class RuleError(RfodError):
    """A rule or equation application does not validate."""


class FragmentError(RuleError):
    """Sequent lies outside the fragment supported by an operation."""


class PreconditionError(RfodError):
    """Operation called outside its stated precondition."""
