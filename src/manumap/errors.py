"""Exception types shared across the engine, each with its exit code.

Each category below sets ``exit_code``, the status the command line returns
for its errors: 1 I/O, 2 configuration, 3 mesh, 4 analysis, 5 report schema.
Configuration errors are also ``ValueError``s.  Raise a subclass: the base
class carries no exit code.
"""


class ManumapError(Exception):
    """Base class for every error raised by this package."""

    exit_code: int


class ReportIOError(ManumapError):
    """Report or map file could not be read or written."""

    exit_code = 1


class ConfigError(ManumapError, ValueError):
    """Bad configuration: a flag, parameter or profile value is invalid."""

    exit_code = 2


class MeshError(ManumapError):
    """The mesh cannot be read, or it cannot be graded."""

    exit_code = 3


class AnalysisError(ManumapError):
    """Grading or aggregating the results failed."""

    exit_code = 4


class SchemaMismatchError(ManumapError):
    """Serialized report uses an unsupported schema version or is malformed."""

    exit_code = 5


class ProfileError(ConfigError):
    """Machine profile is invalid or could not be parsed."""


class UnknownMaterialError(ConfigError):
    """Material name is missing from the profile hardness table."""


class NonPositiveRoughnessError(ConfigError):
    """Required surface roughness must be strictly positive."""


class DepthRangeError(ConfigError):
    """Requested octree depth is outside the supported range."""


class ParameterError(ConfigError):
    """Argument or parameter (unknown flag, margin, format, scale, ...) is invalid."""


class ParseError(MeshError):
    """Mesh file is malformed or truncated."""


class EmptyMeshError(MeshError):
    """Mesh contains no usable triangles after cleanup."""


class NotWatertightError(MeshError):
    """Operation needs a closed 2-manifold and the mesh is not one."""


class DegenerateMeshError(MeshError):
    """Mesh is closed but flat, or all its faces lie on the octree root box's lower faces."""


class MeshMismatchError(AnalysisError):
    """Octree or field was built from a different mesh than the one supplied."""


class EmptyFieldError(AnalysisError):
    """Local index field holds no values."""


class FieldValueError(AnalysisError, ValueError):
    """Local index field values or volumes are misshapen, non-finite or out of range."""


class ZeroTotalVolumeError(AnalysisError):
    """Volume weights cannot be formed from an all-zero volume vector."""


class NonPositiveVolumeError(AnalysisError):
    """Module volumes must all be strictly positive."""


class LengthMismatchError(AnalysisError):
    """Value and weight vectors differ in length."""


class BadWeightsError(AnalysisError):
    """Weights do not sum to one within tolerance."""


class EmptyInputError(AnalysisError):
    """Aggregation over an empty collection."""


class NoSharedIndexesError(AnalysisError):
    """Reports have no index in common, nothing to compare."""


class FieldMismatchError(AnalysisError):
    """Field is not aligned to the octree it is being rendered on."""
