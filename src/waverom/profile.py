"""Process-local counters of the work a run does.

The program counts its syntheses (`forward.synth`), the sparse products
of their Chebyshev moments (`forward.matvecs`) and the columns those
products take (`forward.matvec_cols`), its ROM builds
(`rom.build`), the infeasible line-search probes, whose ROM mass matrix
is not SPD or whose velocity or operator leaves the float range
(`inversion.infeasible`), the Jacobian columns taken as a backward
difference because their forward trial was infeasible
(`inversion.fd_backward`; an infeasible anchor raises instead, and the
command exits before writing its counters), its time-domain leapfrog records
(`forward.timedomain`) and their sparse products, one per time step
(`forward.timedomain.matvecs`).  `cli.main` resets the counters, and every
command that writes a `manifest.json` writes them beside it as
`profile.json`.  They count work, not time, so two runs of one command
on one input read the same.
"""

from __future__ import annotations

_counts: dict[str, int] = {}


def count(name: str, k: int = 1):
    """Add k to the counter `name`."""
    _counts[name] = _counts.get(name, 0) + k


def counts() -> dict[str, int]:
    """A copy of every counter, by name."""
    return dict(sorted(_counts.items()))


def reset():
    _counts.clear()
