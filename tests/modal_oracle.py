"""Slow reference for modal truth and frame validity.

Truth is evaluated world by world, recursing into every successor for each
modal operator, and frame validity builds each valuation as sets of worlds.
It imports nothing from uext and dispatches on the formula nodes' class names
and fields, so it stays independent of the bitmask labelling it checks.
A model is given by its vertices, its successor sets and its valuation
(letter -> set of worlds); a letter outside the valuation is false everywhere.
"""


def holds(succ, val, w, phi) -> bool:
    kind = type(phi).__name__
    if kind == "Prop":
        return w in val.get(phi.name, ())
    if kind == "Falsum":
        return False
    if kind == "Not":
        return not holds(succ, val, w, phi.sub)
    if kind == "And":
        return holds(succ, val, w, phi.left) and holds(succ, val, w, phi.right)
    if kind == "Or":
        return holds(succ, val, w, phi.left) or holds(succ, val, w, phi.right)
    if kind == "Imp":
        return not holds(succ, val, w, phi.left) or holds(succ, val, w, phi.right)
    if kind == "Dia":
        return any(holds(succ, val, v, phi.sub) for v in succ[w])
    if kind == "Box":
        return all(holds(succ, val, v, phi.sub) for v in succ[w])
    raise ValueError(f"unknown formula node {phi!r}")


def truth_set(vertices, succ, val, phi) -> frozenset:
    return frozenset(w for w in vertices if holds(succ, val, w, phi))


def letters(phi) -> set:
    kind = type(phi).__name__
    if kind == "Prop":
        return {phi.name}
    if kind == "Falsum":
        return set()
    if kind in ("Not", "Dia", "Box"):
        return letters(phi.sub)
    return letters(phi.left) | letters(phi.right)


def frame_valid(vertices, succ, phi):
    """(True, None), or (False, (valuation, world)) for the first refuting valuation.

    Valuations run in binary order: bit j*n + i of the counter puts vertices[i]
    in the j-th letter in sorted order; worlds are tried in vertex order.
    """
    ls, n = sorted(letters(phi)), len(vertices)
    for counter in range(2 ** (len(ls) * n)):
        val = {p: frozenset(vertices[i] for i in range(n) if counter >> (j * n + i) & 1)
               for j, p in enumerate(ls)}
        for w in vertices:
            if not holds(succ, val, w, phi):
                return False, (val, w)
    return True, None
