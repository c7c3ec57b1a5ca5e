"""Slow reference for first-order truth.

`holds` is the Tarskian evaluation uext ran before it went set at a time:
every quantifier tries each vertex in turn, and each try builds a new dict
assignment (variable -> vertex).  The module imports nothing from uext and
dispatches on the formula nodes' class names and fields, so it stays
independent of the evaluator it checks.  A frame is given by its vertices and
its successor sets.
"""


def holds(vertices, succ, phi, asg) -> bool:
    kind = type(phi).__name__
    if kind == "Rel":
        return asg[phi.right] in succ[asg[phi.left]]
    if kind == "Eq":
        return asg[phi.left] == asg[phi.right]
    if kind == "Not":
        return not holds(vertices, succ, phi.sub, asg)
    if kind == "And":
        return holds(vertices, succ, phi.left, asg) and holds(vertices, succ, phi.right, asg)
    if kind == "Or":
        return holds(vertices, succ, phi.left, asg) or holds(vertices, succ, phi.right, asg)
    if kind == "Imp":
        return not holds(vertices, succ, phi.left, asg) or holds(vertices, succ, phi.right, asg)
    if kind == "Exists":
        return any(holds(vertices, succ, phi.body, {**asg, phi.var: w}) for w in vertices)
    if kind == "Forall":
        return all(holds(vertices, succ, phi.body, {**asg, phi.var: w}) for w in vertices)
    raise ValueError(f"unknown formula node {phi!r}")


def truth_set(vertices, succ, phi, var) -> frozenset:
    """The vertices where phi, whose one free variable is var, holds."""
    return frozenset(w for w in vertices if holds(vertices, succ, phi, {var: w}))
