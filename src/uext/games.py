"""The bounded back-and-forth game behind n-bisimulation and EF games.

Each round Spoiler moves on board 1 or 2 and Duplicator answers on the other
(Blackburn, de Rijke and Venema 2001, 2.2-2.3; Ebbinghaus and Flum 1995, ch. 2).
A logic supplies check, moves, step, literal and quantify, and the round count
from which no verdict changes; key may coarsen positions for the memo.  A
position is only ever reached by play from one that passed check, so check may
test just what the last step added.  Answers are read at the least losing round
count, which is the least rank or depth of a separating formula.
"""

from __future__ import annotations

import math
import sys

from .caps import env_limit
from .errors import InputError, ResourceError

# wins -> spoiler_move -> its any() generator -> wins, and any()'s resumption of
# the generator counts once more toward the recursion limit
FRAMES_PER_ROUND = 4
STACK_RESERVE = 200  # interpreter frames left to the callers below a game


class Game:
    ROUNDS = "rounds"  # the round count's name in error messages

    def __init__(self, limit_env: str, default_limit: int, memo_name: str, bound: int):
        self.memo: dict = {}
        self.limit = env_limit(limit_env, default_limit)
        self.cap_message = f"{memo_name} exceeded cap {self.limit} (set {limit_env})"
        self.bound = bound  # the round count from which no verdict changes

    def rounds(self, n: int) -> int:
        """n clipped to bound, refused before play if a game that long would pass the stack."""
        if n < 0:
            raise InputError(f"{self.ROUNDS} must be nonnegative")
        k, limit = min(n, self.bound), sys.getrecursionlimit()
        if FRAMES_PER_ROUND * k + STACK_RESERVE > limit:
            raise ResourceError(f"a {k}-round game would recurse past the interpreter's stack "
                                f"(recursion limit {limit})")
        return k

    def key(self, pos):
        return pos

    def play(self, pos, board: int, move, reply):
        """The position after Spoiler plays move on board and Duplicator answers reply."""
        return self.step(pos, move, reply) if board == 1 else self.step(pos, reply, move)

    def wins(self, pos, k: int) -> bool:
        """Whether Duplicator survives k more rounds from pos."""
        if not self.check(pos):
            return False
        if k == 0:
            return True
        key = self.key(pos)
        known = self.memo.get(key)
        if known is None:
            if len(self.memo) > self.limit:
                raise ResourceError(self.cap_message)
            # the most rounds Duplicator is known to survive from pos, and the fewest Spoiler is
            # known to need: more rounds only help Spoiler, so one entry answers every k
            known = self.memo[key] = [0, math.inf]
        if known[0] < k < known[1]:
            if self.spoiler_move(pos, k) is None:
                known[0] = max(known[0], k)
            else:
                known[1] = min(known[1], k)
        return k <= known[0]

    def least(self, pos, n: int) -> int | None:
        """The fewest rounds, at most n clipped to bound, within which Spoiler wins from pos, or
        None.  A round count past the stack is refused only when the scan reaches it."""
        return next((k for k in range(min(n, self.bound) + 1) if not self.wins(pos, self.rounds(k))), None)

    def lost(self, pos, n: int) -> int | None:
        """least(pos, n), or None after one wins at the clipped n when Duplicator survives it."""
        return None if self.wins(pos, self.rounds(n)) else self.least(pos, n)

    def spoiler_move(self, pos, k: int) -> tuple[int, object] | None:
        """The first (board, move), board 1 first, that no answer survives for k - 1 rounds.
        wins is its absence, so a position that passes check and is lost always has one."""
        for board in (1, 2):
            replies = self.moves(pos, 3 - board)
            for move in self.moves(pos, board):
                if not any(self.wins(self.play(pos, board, move, r), k - 1) for r in replies):
                    return board, move
        return None

    def distinguish(self, pos, k: int):
        """A formula true on board 1 and false on board 2 at pos, lost within k rounds."""
        if not self.check(pos):
            return self.literal(pos)
        board, move = self.spoiler_move(pos, k)
        replies = self.moves(pos, 3 - board)
        parts = dict.fromkeys(self.distinguish(self.play(pos, board, move, r), k - 1) for r in replies)
        return self.quantify(board, pos, list(parts))
