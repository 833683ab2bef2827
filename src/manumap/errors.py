"""Exception types shared across the engine."""


class ManumapError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ManumapError):
    """Mesh file is malformed or truncated."""


class EmptyMeshError(ManumapError):
    """Mesh contains no usable triangles after cleanup."""


class NotWatertightError(ManumapError):
    """Operation needs a closed 2-manifold and the mesh is not one."""


class DepthRangeError(ManumapError):
    """Requested octree depth is outside the supported range."""


class ParameterError(ManumapError):
    """Analysis parameter (samples, margin, seed, workers) is out of range."""


class RayParityError(ManumapError):
    """Ray casting could not decide whether a point off the surface is inside."""


class MeshMismatchError(ManumapError):
    """Octree or field was built from a different mesh than the one supplied."""


class ProfileError(ManumapError):
    """Machine profile is invalid or could not be parsed."""


class UnknownMaterialError(ManumapError):
    """Material name is missing from the profile hardness table."""


class NonPositiveRoughnessError(ManumapError):
    """Required surface roughness must be strictly positive."""


class EmptyFieldError(ManumapError):
    """Local index field holds no values."""


class ZeroTotalVolumeError(ManumapError):
    """Volume weights cannot be formed from an all-zero volume vector."""


class NonPositiveVolumeError(ManumapError):
    """Module volumes must all be strictly positive."""


class LengthMismatchError(ManumapError):
    """Value and weight vectors differ in length."""


class BadWeightsError(ManumapError):
    """Weights do not sum to one within tolerance."""


class EmptyInputError(ManumapError):
    """Aggregation over an empty collection."""


class NoSharedIndexesError(ManumapError):
    """Reports have no index in common, nothing to compare."""


class FieldMismatchError(ManumapError):
    """Field is not aligned to the octree it is being rendered on."""


class SchemaMismatchError(ManumapError):
    """Serialized report uses an unsupported schema version."""


class ReportIOError(ManumapError):
    """Report or map file could not be written."""
