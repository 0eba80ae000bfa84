"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(EngineError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (at {line}:{column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownSymbolError(ParseError):
    """A token names no proposition, relation or connective of the logic."""


class DomainViolation(ParseError):
    """A connective was applied to arguments outside its domain; raised by
    the parser at the connective's head."""


class NotLargeEnough(EngineError):
    """No proposition of X has its iota-footprint inside the given area."""


class CapExceeded(EngineError):
    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class UnsuitableGenerator(EngineError):
    def __init__(self, report):
        super().__init__("unsuitable generator: " + "; ".join(report.violations))
        self.report = report


class BudgetExceeded(EngineError):
    """A bounded model search would visit more cases than its budget allows."""
