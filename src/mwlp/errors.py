"""Exception types shared across the toolkit."""


class MwlpError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(MwlpError):
    """Input matrix is not conjugate-symmetric within tolerance."""


class NotPSD(MwlpError):
    """Matrix flagged positive-semidefinite has an eigenvalue below the clamp band."""


class SingularMatrix(MwlpError):
    """Negative matrix power requested for a matrix that is not positive-definite."""


class NotInvertible(MwlpError):
    """Operation requires an invertible weight field."""


class EmptyCubeFamily(MwlpError):
    """Cube family contains no usable cubes."""


class ShapeMismatch(MwlpError, ValueError):
    """Fields do not share a grid or vector dimension."""


class OffLattice(MwlpError):
    """Translation vector is not an integer multiple of the cell width."""


class SchemeMismatch(MwlpError):
    """Dyadic scheme does not align with the grid."""


class EmptyBall(MwlpError):
    """A ball used for averaging has zero measure."""


class RadiusExceedsBox(MwlpError):
    """Requested radius reaches outside the computational box."""


class ModuliTooLarge(MwlpError):
    """No ladder scale satisfies the requested budget."""


class DegenerateNorm(MwlpError):
    """Sampled unit sphere of the norm does not span the space."""


class NonFinite(MwlpError, ValueError):
    """Field contains non-finite values."""


class SchemaError(MwlpError):
    """Scenario file violates the documented schema."""


class MalformedField(MwlpError, ValueError):
    """Field file is truncated, lacks a header line or has a wrong row shape."""


class SelfCertificationFailed(MwlpError):
    """A freshly built net failed its own brute-force certificate."""


class ConstantExponentRequired(MwlpError):
    """Operation needs a constant exponent, but the exponent varies."""


class OutOfRange(MwlpError, ValueError):
    """A numeric argument, such as an exponent, lies outside the operation's range."""


class MatrixWeightRequired(MwlpError, ValueError):
    """Operation needs a space of the form L^p(W, mu), but the space has no matrix weight."""
