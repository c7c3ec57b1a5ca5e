"""Slow references for modal truth and frame validity.

Truth is evaluated world by world, recursing into every successor for each
modal operator, and `frame_valid` builds each valuation as sets of worlds.
`enumerate_valid` is the valuation enumeration over int bitmasks that uext's
frame validity ran before it was bit-sliced: one truth mask per valuation.
The module imports nothing from uext and dispatches on the formula nodes' class
names and fields, so it stays independent of the labelling it checks.
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


def truth_mask(n, succ_masks, masks, phi) -> int:
    """phi's truth set as a bitmask over worlds 0..n-1, each world's successors a bitmask."""
    full = (1 << n) - 1
    kind = type(phi).__name__
    if kind == "Prop":
        return masks.get(phi.name, 0)
    if kind == "Falsum":
        return 0
    if kind in ("Not", "Dia", "Box"):
        x = truth_mask(n, succ_masks, masks, phi.sub)
        if kind == "Not":
            return full ^ x
        if kind == "Dia":
            return sum(1 << u for u in range(n) if succ_masks[u] & x)
        return sum(1 << u for u in range(n) if not succ_masks[u] & ~x)
    a, b = truth_mask(n, succ_masks, masks, phi.left), truth_mask(n, succ_masks, masks, phi.right)
    if kind == "And":
        return a & b
    if kind == "Or":
        return a | b
    if kind == "Imp":
        return (full ^ a) | b
    raise ValueError(f"unknown formula node {phi!r}")


def enumerate_valid(n, succ_masks, phi):
    """(True, None), or (False, (masks, world)) for the first refuting valuation.

    The counter runs in binary order and bits j*n .. j*n + n - 1 give the mask
    of the j-th letter in sorted order; the world is the index of the first
    world outside that valuation's truth mask.
    """
    ls, full = sorted(letters(phi)), (1 << n) - 1
    for counter in range(2 ** (len(ls) * n)):
        masks = {p: counter >> (j * n) & full for j, p in enumerate(ls)}
        missed = full ^ truth_mask(n, succ_masks, masks, phi)
        if missed:
            return False, (masks, (missed & -missed).bit_length() - 1)
    return True, None
