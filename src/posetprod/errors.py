"""Exception types shared across the package."""


class PosetProdError(Exception):
    """Base class for all errors raised by this package."""


class NoBasePoint(PosetProdError):
    pass


class DuplicateObject(PosetProdError):
    pass


class UnknownObject(PosetProdError):
    pass


class CycleError(PosetProdError):
    pass


class MixedFields(PosetProdError):
    pass


class MixedTruncation(PosetProdError):
    pass


class IndexMismatch(PosetProdError):
    pass


class MissingSection(PosetProdError):
    pass


class NotPolyhedral(PosetProdError):
    pass


class NotSimplicial(PosetProdError):
    pass


class NotRegular(PosetProdError):
    pass


class NoSuchRank(PosetProdError):
    pass


class PreconditionFailed(PosetProdError):
    pass


class InsufficientTruncation(PosetProdError):
    pass
