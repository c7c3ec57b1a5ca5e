"""Every resource cap: its environment variable, default, unit count and refusal line.

A cap bounds one computation's work in units of its kind.  The computation
makes one Budget when it starts, which reads the cap's variable once, and
charges it before the work each charge counts; a charge that would take the
total past the cap is refused, and not counted, with the cap's refusal line.
A value that is not ASCII decimal digits is bad input, reported like any other.
"""

from __future__ import annotations

import os

from .errors import InputError, ResourceError

# kind -> (the environment variable that sets the cap, its default, the ResourceError message of a
# refused charge, with {cap}, {var} and {total}, the total the refused charge would reach)
CAPS = {
    "powerset": ("UEXT_POWERSET_LIMIT", 22,
                 "powerset enumeration capped at |W| <= {cap} (set {var} to raise); got |W| = {total}"),
    "valuations": ("UEXT_VALUATION_LIMIT", 2**22,
                   "frame_valid would enumerate {total} valuations, over the cap {cap} (set {var} to raise)"),
    "assignments": ("UEXT_ASSIGNMENT_LIMIT", 2**22,
                    "FO evaluation tried more than {cap} assignments (set {var} to raise)"),
    "ef": ("UEXT_EF_MEMO_LIMIT", 2**22, "EF memo table exceeded cap {cap} (set {var})"),
    "bisim": ("UEXT_GAME_LIMIT", 2**20, "bisimulation memo exceeded cap {cap} (set {var})"),
}


class Budget:
    """One computation's allowance of a cap's units, and the units it has spent."""

    def __init__(self, kind: str):
        self.var, default, self.refusal = CAPS[kind]
        raw = os.environ.get(self.var)
        if raw is not None and not (raw.isascii() and raw.isdigit()):
            raise InputError(f"{self.var} must be a nonnegative integer, got {raw!r}")
        self.cap = default if raw is None else int(raw)
        self.spent = 0

    def charge(self, n: int) -> None:
        """Count n more units, or refuse them, counting none, if they would take the total past the cap."""
        if self.spent + n > self.cap:
            raise ResourceError(self.refusal.format(cap=self.cap, var=self.var, total=self.spent + n))
        self.spent += n
