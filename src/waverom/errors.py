"""Exception and warning types shared across the package.

A refused argument (a value out of range, a sensor off the node block, a
record too short for the samples asked of it) raises the built-in
ValueError.  A WaveromError is either a numerical failure of a valid
input, which the CLI reports with exit 3, or, as a ConfigError, a refused
config or artifact, exit 2; load re-raises a section's ValueError as a
ConfigError that names the section.
"""


class WaveromError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(WaveromError):
    """Invalid or inconsistent experiment configuration."""


class NonPositiveVelocity(WaveromError):
    """A velocity field evaluated to a non-positive node value."""


class ArtifactError(ConfigError, ValueError):
    """A file is not the artifact its reader expects (JSON, schema, size)."""


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


class MassNotSPD(WaveromError):
    """Block Cholesky hit a non-positive-definite diagonal block.

    `block_index` is the 0-based index of that block, which the message
    names: "mass matrix not SPD at block <block_index>".
    """

    def __init__(self, block_index):
        self.block_index = block_index
        super().__init__(f"mass matrix not SPD at block {block_index}")


class SingularSystem(WaveromError):
    """Unregularized normal equations are numerically singular."""


class JacobianRankWarning(Warning):
    """Finite-difference Jacobian is numerically rank deficient."""
