"""The bounded back-and-forth game behind n-bisimulation and EF games.

Each round Spoiler moves on board 1 or 2 and Duplicator answers on the other
(Blackburn, de Rijke and Venema 2001, 2.2-2.3; Ebbinghaus and Flum 1995, ch. 2).
A logic supplies check, moves, step, literal and quantify; key may coarsen
positions for the memo.  A position is only ever reached by play from one that
passed check, so check may test just what the last step added.
"""

from __future__ import annotations

import sys

from .caps import env_limit
from .errors import ResourceError

# wins -> spoiler_move -> its any() generator -> wins, and any()'s resumption of
# the generator counts once more toward the recursion limit
FRAMES_PER_ROUND = 4
STACK_RESERVE = 200  # interpreter frames left to the callers below a game


class Game:
    def __init__(self, limit_env: str, default_limit: int, memo_name: str):
        self.memo: dict = {}
        self.limit = env_limit(limit_env, default_limit)
        self.cap_message = f"{memo_name} exceeded cap {self.limit} (set {limit_env})"

    def rounds(self, k: int) -> int:
        """k, refused before play when a k-round game would recurse past the interpreter's stack."""
        limit = sys.getrecursionlimit()
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
        key = (self.key(pos), k)
        if key not in self.memo:
            if len(self.memo) > self.limit:
                raise ResourceError(self.cap_message)
            self.memo[key] = self.spoiler_move(pos, k) is None
        return self.memo[key]

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
