"""Exception and warning types shared across the package."""


class WaveromError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(WaveromError):
    """Invalid or inconsistent experiment configuration."""


class NonPositiveVelocity(WaveromError):
    """A velocity field evaluated to a non-positive node value."""


class ArtifactError(ConfigError, ValueError):
    """A file is not the artifact its reader expects (JSON, schema, size)."""


class DomainTooSmall(ConfigError):
    """A model feature or a sensor does not fit inside the grid's domain."""


class EigUnavailable(WaveromError):
    """Spectral path requested above the eigendecomposition size cap."""


class OperatorOverflow(WaveromError):
    """A velocity model's wave operator leaves the float range (entries
    that overflow, or whose c^2 underflows to 0), so its spectral bound is
    not positive and finite."""


class NyquistViolation(WaveromError, Warning):
    """Sampling interval exceeds the Nyquist limit for the pulse.

    Issued through ``warnings.warn`` by ``synthesize_dataset``; a caller
    escalates it to an error with
    ``warnings.simplefilter("error", NyquistViolation)``.
    """


class CflViolation(WaveromError):
    """Time step too large for stable leapfrog propagation."""


class InsufficientRecordLength(WaveromError):
    """Recorded traces do not cover the requested sample range."""


class MassNotSPD(WaveromError):
    """Block Cholesky hit a non-positive-definite diagonal block.

    `block_index` is the 0-based index of that block, which the message
    names: "mass matrix not SPD at block <block_index>".
    """

    def __init__(self, block_index):
        self.block_index = block_index
        super().__init__(f"mass matrix not SPD at block {block_index}")


class BandExceedsMatrix(WaveromError):
    """Requested band depth is larger than the matrix allows."""


class IndexOutOfRange(WaveromError):
    """Restriction index outside 1..n."""


class ResidualShorterThanN(WaveromError):
    """Residual vector has fewer entries than there are parameters."""


class SingularSystem(WaveromError):
    """Unregularized normal equations are numerically singular."""


class JacobianRankWarning(Warning):
    """Finite-difference Jacobian is numerically rank deficient."""
