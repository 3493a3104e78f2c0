"""Exception hierarchy shared by all modules."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class MaterializationLimitError(DomainError):
    """An operation would materialize more data than the configured guard allows."""


class NonSimpleRootError(DomainError):
    """A polynomial has a repeated root on the unit circle, so its signature
    jump pattern is ambiguous."""


class SpacingError(DomainError):
    """The generator spacing precondition (successive ratios >= 3) is violated
    and no full sign arc fits inside the current certified interval."""
