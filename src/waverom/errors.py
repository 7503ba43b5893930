"""Exception and warning types shared across the package, each named
only where code catches or filters it by that name.

A refused argument (a value out of range, a velocity that is not positive
and finite, a sensor off the node block) raises the built-in ValueError,
which load re-raises as a ConfigError naming the section.  `cli.main`
exits 2 on a ConfigError, such as an ArtifactError, which `io`'s readers
pass through unwrapped, and 3 on any other WaveromError: the CFL check of
the leapfrog and the rank check of an unregularized Gauss-Newton step
raise WaveromError itself.  OperatorOverflow and MassNotSPD make up
`inversion.INFEASIBLE`, the trial failures the line search and the
Jacobian step around; load re-raises an OperatorOverflow as a ConfigError.
NyquistViolation, which `synthesize_dataset` warns, and JacobianRankWarning
are warnings, filtered or escalated with `warnings.simplefilter`.
"""


class WaveromError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(WaveromError):
    """Invalid or inconsistent experiment configuration."""


class ArtifactError(ConfigError, ValueError):
    """A file is not the artifact its reader expects (JSON, schema, size)."""


class OperatorOverflow(WaveromError):
    """A trial velocity that is not finite, or a wave operator whose entries
    overflow or whose c^2 underflows to 0: its bound is not positive and finite."""


class NyquistViolation(WaveromError, Warning):
    """Sampling interval exceeds the Nyquist limit for the pulse."""


class MassNotSPD(WaveromError):
    """Block Cholesky hit a diagonal block, the 0-based `block_index`-th,
    that is not positive definite."""

    def __init__(self, block_index):
        self.block_index = block_index
        super().__init__(f"mass matrix not SPD at block {block_index}")


class JacobianRankWarning(Warning):
    """Finite-difference Jacobian is numerically rank deficient."""
