"""Exception types shared across the package, and the one rule for count parameters."""

import operator


class RedeError(Exception):
    """Base class for all errors raised by this package."""


# --- data loading / serialization ---------------------------------------

class MalformedRecord(RedeError):
    """A bad record at ``line_no``, or a fault of the whole file when it is None."""

    def __init__(self, line_no: int | None, message: str = "malformed record"):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateDocId(RedeError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate doc_id: {doc_id!r}")
        self.doc_id = doc_id


class DuplicateQueryId(RedeError):
    def __init__(self, query_id: str):
        super().__init__(f"duplicate query_id: {query_id!r}")
        self.query_id = query_id


class NegativeRelevance(RedeError):
    pass


class PreconditionViolation(RedeError):
    pass


# --- indexing / search ---------------------------------------------------

class EmptyCorpus(RedeError):
    pass


class UnknownDocId(RedeError):
    def __init__(self, doc_id: str):
        super().__init__(f"unknown doc_id: {doc_id!r}")
        self.doc_id = doc_id


class SizeMismatch(RedeError):
    pass


class IndexMismatch(RedeError):
    """An index does not list exactly the corpus's doc ids."""


class NonFiniteVector(RedeError):
    pass


class DimMismatch(RedeError):
    pass


# --- generative-model gateway --------------------------------------------

class BackendUnavailable(RedeError):
    pass


class BackendTimeout(RedeError):
    pass


class BackendRejected(RedeError):
    """The backend refused the request itself (HTTP 4xx); a retry cannot help."""


class LogprobsUnsupported(RedeError):
    pass


# --- judging / prompting --------------------------------------------------

class UnknownTemplate(RedeError):
    def __init__(self, template_id: str):
        super().__init__(f"unknown template: {template_id!r}")
        self.template_id = template_id


class JudgeUnavailable(RedeError):
    pass


class AllSamplesEmpty(RedeError):
    pass


# --- pipeline / evaluation -------------------------------------------------

class EmptyRelevantSet(RedeError):
    pass


class EmptyRun(RedeError):
    pass


class ConfigError(RedeError):
    pass


def check_count(name: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless value is an integer >= least: an int, a bool or a numpy integer.

    ``operator.index`` is the integer test, so a float such as 2.5 or 64.0
    and a string are refused, not compared.
    """
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")
