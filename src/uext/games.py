"""The bounded back-and-forth game behind n-bisimulation and EF games.

Each round Spoiler moves on board 1 or 2 and Duplicator answers on the other
(Blackburn, de Rijke and Venema 2001, 2.2-2.3; Ebbinghaus and Flum 1995, ch. 2).
Duplicator survives k rounds exactly when the boards' states have the same
rank-k type (Libkin 2004, ch. 3).  Each game types its own states and supplies
wins (whether Duplicator survives k more rounds from a position), moves, step,
literal and quantify, and the round count from which no verdict changes.
This base holds what both games share: the scan, `Game.least`, that reads
every answer at the least losing round count, the least rank or depth of a
separating formula; Spoiler's move and the witness read off it; the stack
check; and the game's budget of its cap (see `caps`), which each game charges
for the states it types.  The scan asks from 0 rounds up, so a verdict
decided early costs little.  Neither game's typing recurses, so no verdict is
refused for the stack; a witness nests one call per round and refuses a count
only when it is about to recurse past the stack.  Each game numbers its
witnesses in one `syntax.Table`, so a witness is a tree of shared subformulas.
"""

from __future__ import annotations

import sys

from .caps import Budget
from .errors import InputError, ResourceError
from .syntax import Table

# A witness recurses distinguish -> its dict comprehension -> its generator -> distinguish, three
# frames per round, and reads types at each step through spoiler_move -> any()'s generator ->
# wins, which never recurses.  One frame per round is spare.
FRAMES_PER_ROUND = 4
STACK_RESERVE = 200  # interpreter frames left to the callers below a game


class Game:
    ROUNDS = "rounds"  # the round count's name in error messages

    def __init__(self, cap: str, bound: int):
        self.budget = Budget(cap)  # charged for the states typed
        self.witnesses = Table()  # the witnesses' subformulas, one node per number
        self.bound = bound  # the round count from which no verdict changes

    @property
    def typed(self) -> int:
        """States typed so far, the work the cap bounds."""
        return self.budget.spent

    def rounds(self, k: int) -> int:
        """k, refused if a k-round witness would recurse past the stack."""
        limit = sys.getrecursionlimit()
        if FRAMES_PER_ROUND * k + STACK_RESERVE > limit:
            raise ResourceError(f"a {k}-round game would recurse past the interpreter's stack "
                                f"(recursion limit {limit})")
        return k

    def play(self, pos, board: int, move, reply):
        """The position after Spoiler plays move on board and Duplicator answers reply."""
        return self.step(pos, move, reply) if board == 1 else self.step(pos, reply, move)

    def least(self, pos, n: int) -> int | None:
        """The fewest rounds, at most n clipped to bound, within which Spoiler wins from pos, or
        None."""
        if n < 0:
            raise InputError(f"{self.ROUNDS} must be nonnegative")
        return next((k for k in range(min(n, self.bound) + 1) if not self.wins(pos, k)), None)

    def spoiler_move(self, pos, k: int) -> tuple[int, object] | None:
        """The first (board, move), board 1 first, that no answer survives for k - 1 rounds.
        wins is its absence, so a position won for 0 rounds and lost for k always has one."""
        for board in (1, 2):
            replies = self.moves(pos, 3 - board)
            for move in self.moves(pos, board):
                if not any(self.wins(self.play(pos, board, move, r), k - 1) for r in replies):
                    return board, move
        return None

    def distinguish(self, pos, k: int):
        """A formula true on board 1 and false on board 2 at pos, lost within k rounds, held in the
        witness table; numbering walks only the nodes built since (a literal or a quantifier)."""
        self.rounds(k)
        table = self.witnesses
        if not self.wins(pos, 0):  # the atoms disagree at the last step
            return table.nodes[table.number(self.literal(pos))]
        board, move = self.spoiler_move(pos, k)
        replies = self.moves(pos, 3 - board)
        found = (self.distinguish(self.play(pos, board, move, r), k - 1) for r in replies)
        parts = {id(phi): phi for phi in found}  # equal parts are one object
        return table.nodes[table.number(self.quantify(board, pos, list(parts.values())))]
