"""The bounded back-and-forth game behind n-bisimulation and EF games.

Each round Spoiler moves on board 1 or 2 and Duplicator answers on the other
(Blackburn, de Rijke and Venema 2001, 2.2-2.3; Ebbinghaus and Flum 1995, ch. 2).
Duplicator survives k rounds exactly when the boards' states have the same
rank-k type (Libkin 2004, ch. 3).  Each game types its own states and supplies
wins (whether Duplicator survives k more rounds from a position), moves, step,
literal and quantify, and the round count from which no verdict changes.
This base holds what both games share: the scan, `Game.least`, that reads
every answer at the least losing round count, the least rank or depth of a
separating formula; Spoiler's move and the witness read off it; and the game's
budget of its cap (see `caps`), which each game charges for the states it
types.  The scan asks from 0 rounds up, so a verdict decided early costs
little.  Nothing here recurses: neither game's typing, nor the witness, which
is built in a loop over a stack of subgames (position, rounds), each solved
once, so no verdict and no witness is refused for the stack.  Each game
numbers its witnesses in one `syntax.Table`, so a witness is a tree of shared
subformulas.
"""

from __future__ import annotations

from .caps import Budget
from .errors import InputError
from .syntax import Table


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
        witness table.  Subgames (position, rounds) are solved in a loop over a stack, each once: a
        subgame whose atoms disagree is a literal, and any other is numbered, once all its replies
        are, as Spoiler's quantifier over their distinct witnesses in first-seen order."""
        table, numbers, plans, todo = self.witnesses, {}, {}, [(pos, k)]
        while todo:
            game = todo.pop()
            if game in numbers:
                continue
            at, rounds = game
            if game in plans:  # every reply is numbered
                board, replies = plans.pop(game)
                parts = [table.nodes[i] for i in dict.fromkeys(numbers[r] for r in replies)]
                numbers[game] = table.number(self.quantify(board, at, parts))
            elif not self.wins(at, 0):  # the atoms disagree at the last step
                numbers[game] = table.number(self.literal(at))
            else:
                board, move = self.spoiler_move(at, rounds)
                replies = [(self.play(at, board, move, r), rounds - 1) for r in self.moves(at, 3 - board)]
                plans[game] = board, replies
                todo += [game, *reversed(replies)]
        return table.nodes[numbers[pos, k]]
