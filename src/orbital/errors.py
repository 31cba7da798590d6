"""Exception types shared across the package."""


class OrbitalError(Exception):
    """Base class for every error this package raises deliberately."""


# -- tableau construction and validation ------------------------------------

class TableauError(OrbitalError):
    """A candidate tableau violates standardness."""


class DuplicateEntry(TableauError):
    pass


class RowNotIncreasing(TableauError):
    pass


class ColumnNotIncreasing(TableauError):
    pass


class RaggedShape(TableauError):
    pass


class SizeMismatch(OrbitalError):
    """Two partitions that must agree do not, or a partition's size
    disagrees with the ambient matrix size."""


class NotRichardson(OrbitalError):
    """An operation requiring a Richardson tableau got something else."""


# -- word search -------------------------------------------------------------

class BoundExceeded(OrbitalError):
    """Tableau too large for the exhaustive lex-min word search."""


# -- projections -------------------------------------------------------------

class TooSmall(OrbitalError):
    """Box removal from a tableau with at most one box."""


class BadRange(OrbitalError):
    """Projection or window indices outside 1 <= i <= j <= n, or bounds
    that are not ints or are bools (project, TauSet.restrict), or a
    PolyMatrix.top_right corner size or PolyMatrix.entry index outside
    the matrix."""


# -- polynomial layer --------------------------------------------------------

class MissingVariable(OrbitalError):
    """Evaluation point does not cover every variable."""


class BadVariable(OrbitalError, ValueError):
    """MultiPoly.variable got neither "t" nor a pair of ints; a ValueError
    too, as its rejection always was."""


class BadWeight(OrbitalError, ValueError):
    """WeightVector.simple or WeightVector.root got an index or a rank that
    is not an int or lies outside 1 <= u <= v <= rank, or __add__ two
    weights of different ranks; a ValueError too, as their rejections
    always were."""


class NotSquare(OrbitalError, ValueError):
    """A determinant, a matrix power or a FieldMatrix was given rows that do
    not make a square matrix; a ValueError too, as FieldMatrix's rejection
    always was."""


class BadExponent(OrbitalError, ValueError):
    """PolyMatrix.power asked for an exponent that is not an int, is a
    bool or is below 1, a rank bound for a negative or non-int power,
    t_coefficient for a power of t that is not an int or is a bool, or a
    monomial carries a negative exponent, or one that is not an int or is
    a bool; a ValueError too, as PolyMatrix.power's and rank_bound's
    rejections always were."""


# -- generator construction --------------------------------------------------

class BadWindow(OrbitalError):
    """Window does not satisfy 1 <= a <= b <= n or is too thin."""


class InconsistentIndexing(OrbitalError):
    """A computed index disagrees with the one the construction predicts,
    such as the lowest surviving t-power of a window determinant or the
    column of a new box in row insertion."""


# -- classification and sampling ---------------------------------------------

class NotApplicable(OrbitalError):
    """Predicate asked about an input outside its domain."""


class ClassificationError(OrbitalError):
    """Internal inconsistency while matching a tableau to a descriptor."""


class NotNilpotent(OrbitalError):
    """Jordan type requested for a matrix that is not nilpotent."""


class DegenerateSample(OrbitalError):
    """Repeated sampling failed to produce a usable point."""


class BadProbeInput(OrbitalError):
    """verify_conjecture asked for fewer than one trial, for no prime, or
    for a modulus that is not an odd prime below 2**64; a FieldMatrix or a
    sampler got such a modulus or an entry that is not an int; or
    poly_eval got a modulus that is not an int of at least 1, or a value
    that is not an int, or is a bool."""
