"""Exception types shared across the package, and the one rule each for counts, real parameters and vectors."""

import math
import numbers

import numpy as np


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
    """Raise ``error`` unless value is an integer >= least: an int or a numpy integer, not a bool.

    A float such as 2.5 or 64.0 and a string are refused, not compared; so is
    a bool, since a JSON true is not a count.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, hi=math.inf, *, positive: bool = False) -> None:
    """Raise ValueError unless value is a finite real number >= 0 (> 0 if positive) and <= hi.

    A real number is a ``numbers.Real`` other than a bool: an int, a float or
    a numpy number. A bool, a string and None are refused, not compared; so
    are NaN, which fails every comparison, and the infinities. The message
    names the interval as ``>= 0``, ``> 0``, ``in [0, hi]`` or ``in (0, hi]``.
    """
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (0 < value if positive else 0 <= value) and value <= hi and value < math.inf):
        bound = (f"{'>' if positive else '>='} 0" if hi == math.inf
                 else f"in {'(' if positive else '['}0, {hi}]")
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


def real_array(what: str, values, dtype=None) -> np.ndarray:
    """The one reader of a vector from outside the program: ``np.asarray(values)``, cast to
    ``dtype`` if one is given.

    Ragged input, which is no array, is DimMismatch. The values must be real numbers, dtype
    kinds ``b``, ``i``, ``u`` and ``f``, or NonFiniteVector names the dtype: the check comes
    before the cast, which would read a complex value by its real part and a string as its
    number. A finite value past the range of ``dtype`` reads as inf, for the caller to refuse."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise DimMismatch(f"{what} is ragged: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise NonFiniteVector(f"{what} has dtype {arr.dtype}, not real numbers")
    if dtype is not None:
        with np.errstate(over="ignore"):
            arr = arr.astype(dtype, copy=False)
    return arr


def check_vectors(what: str, values, shape: tuple[int, ...], dtype=None) -> np.ndarray:
    """``real_array(what, values, dtype)``: DimMismatch unless its shape is ``shape``,
    NonFiniteVector unless every value is finite in that dtype (a finite value past its range
    reads as inf). The one rule for a query vector and for an encoder's reply."""
    arr = real_array(what, values, dtype)
    if arr.shape != shape:
        raise DimMismatch(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteVector(f"{what} holds a NaN or inf")
    return arr
