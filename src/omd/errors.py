"""Exception types shared across the package."""


class DesignError(Exception):
    """Base class for construction and validation failures."""


class OddOrder(DesignError):
    """One-factorizations of complete graphs need an even point count."""


class KTooSmall(DesignError):
    """The requested construction only works for larger matching sizes."""


class InvalidStarter(DesignError):
    """A starter-adder failed one of its defining conditions."""


class NonExistent(DesignError):
    """No design exists for the requested parameters."""


class SearchExhausted(DesignError):
    """A bounded search ran out of budget before reaching a verdict."""


class IncoherentIngredients(DesignError):
    """Ingredient designs do not fit together for the product construction."""


class EmbeddingCollision(DesignError):
    """Two ingredient embeddings wrote to the same cell; indicates a bug."""


class VerificationFailed(DesignError):
    """A constructed design did not pass its own verification."""


class FormatError(DesignError):
    """A serialized design does not follow the interchange format."""
