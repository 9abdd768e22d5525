"""Exception types shared across the package."""


class EllnumError(Exception):
    """Base class for all package errors."""


class CurveSpecError(EllnumError):
    """Malformed curve spec text."""


class SingularCurveError(EllnumError):
    """The model has discriminant zero."""


class BadReductionError(EllnumError):
    """The prime divides the discriminant of the model."""


class TableError(EllnumError):
    """A table file failed validation; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class TableFormatError(TableError):
    pass


class TableHasseError(TableError):
    pass


class TableOrderError(TableError):
    pass


class TableCurveError(TableError):
    pass


class TableBuildError(EllnumError):
    """Table construction aborted; reports the completed prefix."""
