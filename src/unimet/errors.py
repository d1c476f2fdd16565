"""Error taxonomy shared across the package.

Two failure classes matter to callers (and to the CLI's exit-code contract):
malformed input versus mathematically invalid input.  Everything raised on
purpose by this package is one of these.
"""
from __future__ import annotations


class StructuralError(ValueError):
    """Input is malformed: wrong shape, bad JSON, unknown label, bad index
    (anything but an in-range non-bool int, see ``spaces.index_set``)."""


class PreconditionError(ValueError):
    """Input is well-formed but violates a documented mathematical precondition
    (e.g. not a metric, diameter above a required bound, map not isometric).
    A construction parameter outside its documented range is a precondition
    too: a grid value, a missing grid end, a telescope segment."""
