"""Checks the evidence of the two verdict detectors without importing uext.

A family is the JSON document the CLI loads; a verdict is what `uext detect
reflexive|generated` prints: {"verdict", "evidence", "data"}.  The checker
builds the family's parts and the builtin generators from their definitions
and checks that
  - each verdict equals the truth (`reflexive_truth`, `generated_truth`);
  - a loop named as evidence is a loop of the part it names;
  - each colouring is proper on its part and covers it, and the evidence line
    states the number of colours used;
  - a clique has chi_threshold + 1 points, pairwise adjacent in the union of
    the generator's first chi_threshold + 1 components;
  - a growing out-degree series strictly grows and is the witness's
    out-degree in the union of that many components.
Each check raises AssertionError naming what is wrong.
"""

from __future__ import annotations

from ast import literal_eval

Part = tuple[list[str], set[tuple[str, str]]]


def builtin_component(name: str, i: int) -> Part:
    """Component i of a builtin generator; the generator is the union of its components."""
    if name == "chains_lt":  # a strict chain on i + 1 points: a clique of size i + 1
        verts = [f"c{i}:{j}" for j in range(i + 1)]
        return verts, {(verts[j], verts[k]) for j in range(i + 1) for k in range(j + 1, i + 1)}
    if name == "nat_lt":  # every smaller natural below i
        return [str(j) for j in range(i + 1)], {(str(j), str(i)) for j in range(i)}
    if name == "nat_succ":  # the step into i
        return ([str(i - 1), str(i)], {(str(i - 1), str(i))}) if i else (["0"], set())
    raise AssertionError(f"unknown builtin {name!r}")


def builtin_union(name: str, count: int, among=None) -> Part:
    """The union of components 0..count-1, keeping only the edges between points of among if given."""
    verts: dict[str, None] = {}
    edges: set[tuple[str, str]] = set()
    for i in range(count):
        cv, ce = builtin_component(name, i)
        verts.update(dict.fromkeys(cv))
        edges |= ce if among is None else {(a, b) for a, b in ce if a in among and b in among}
    return list(verts), edges


# chains_lt holds arbitrarily large cliques and nat_lt is the order on the
# naturals, so neither is finitely colourable; nat_succ is a path, 2-colourable.
UNBOUNDED_CHROMATIC = {"chains_lt", "nat_lt"}
# in nat_lt the point 0 precedes every other point; chains and paths are finite out-degree
INFINITE_OUT_DEGREE = {"nat_lt"}


def _frame(doc: dict) -> Part:
    return [str(v) for v in doc["vertices"]], {(str(a), str(b)) for a, b in doc["edges"]}


def family_parts(fam: dict) -> dict[str, Part]:
    """The finite parts a colouring of the family is given on, keyed by the names the detector uses.

    A ray (or line) is coloured through its period-doubled quotient: copy k of
    the period maps to copy k mod 2, so a proper colouring of the quotient is
    a proper periodic colouring of the ray.
    """
    parts = {}
    if fam.get("base", {}).get("vertices"):
        parts["base"] = _frame(fam["base"])
    for ti, doc in enumerate(fam.get("omega_templates", [])):
        parts[f"template {ti}"] = _frame(doc)
    for ri, ray in enumerate(fam.get("rays", [])):
        verts, edges = _frame(ray["period"])
        seam = [(str(a), str(b)) for a, b in ray.get("seam", [])]
        qv = [f"{v}@{p}" for p in (0, 1) for v in verts]
        qe = {(f"{a}@{p}", f"{b}@{p}") for p in (0, 1) for a, b in edges}
        qe |= {(f"{a}@{p}", f"{b}@{1 - p}") for p in (0, 1) for a, b in seam}
        parts[f"ray {ri} (period-doubled quotient)"] = (qv, qe)
    return parts


def is_finite(fam: dict) -> bool:
    return not fam.get("omega_templates") and not fam.get("rays") and "generator" not in fam


def reflexive_truth(fam: dict) -> str:
    """A loop gives a reflexive principal ultrafilter.  A loop-free frame's extension
    has a reflexive point iff the frame is not finitely colourable; bases, templates
    and periodic rays are, so only the generator can make the answer yes."""
    loops = any(a == b for _, edges in family_parts(fam).values() for a, b in edges)
    return "yes" if loops or fam.get("generator", {}).get("name") in UNBOUNDED_CHROMATIC else "no"


def generated_truth(fam: dict) -> str:
    """A frame is a generated substructure of its extension iff every out-degree is finite."""
    return "no" if fam.get("generator", {}).get("name") in INFINITE_OUT_DEGREE else "yes"


def check_coloring(coloring: dict, part: Part, where: str) -> int:
    """The number of colours a proper colouring of part uses."""
    verts, edges = part
    assert sorted(coloring) == sorted(verts), f"{where}: colouring covers {sorted(coloring)}, not the part"
    for a, b in edges:
        assert a == b or coloring[a] != coloring[b], f"{where}: edge ({a!r}, {b!r}) is monochromatic"
    return len(set(coloring.values()))


def _generator_coloring(name: str, coloring: dict) -> int:
    """A colouring of the generator is given on the union of its first components."""
    for count in range(1, len(coloring) + 1):
        part = builtin_union(name, count)
        if len(part[0]) == len(coloring):
            return check_coloring(coloring, part, f"generator ({count} components)")
    raise AssertionError(f"generator colouring on {len(coloring)} points is not on a union of components")


def check_reflexive(fam: dict, chi_threshold: int, out: dict) -> None:
    verdict, evidence, data = out["verdict"], out["evidence"], out["data"]
    assert verdict == reflexive_truth(fam), f"verdict {verdict!r}, truth {reflexive_truth(fam)!r}"
    parts = family_parts(fam)
    if is_finite(fam):
        base = parts.get("base", ([], set()))
        if verdict == "yes":
            loop = literal_eval(evidence.removeprefix("reflexive point ").removesuffix(" (principal ultrafilter)"))
            assert (loop, loop) in base[1], f"{evidence!r} names no loop of the base"
        else:
            check_coloring(data["coloring"], base, "base")
        return
    gen = fam.get("generator", {}).get("name")
    if verdict == "yes" and "clique" in data:
        t = chi_threshold
        assert gen in UNBOUNDED_CHROMATIC, f"a clique is evidence only for an unbounded generator, not {gen!r}"
        assert evidence == f"chromatic lower bound {t + 1} > {t} reached by component index {t}", evidence
        assert data["component_index"] == t
        # only the clique's edges are kept: chains_lt's first 301 components hold 4.5M edges
        clique = data["clique"]
        verts, edges = builtin_union(gen, t + 1, among=set(clique))
        assert len(set(clique)) == len(clique) == t + 1, f"clique of {len(clique)} points, not {t + 1}"
        assert set(clique) <= set(verts), "clique outside the first components"
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                assert (a, b) in edges or (b, a) in edges, f"clique points {a!r} and {b!r} are not adjacent"
    elif verdict == "yes":
        for name, (_, edges) in parts.items():
            if evidence.endswith(f" in {name}"):
                loop = literal_eval(evidence.removeprefix("reflexive point ").removesuffix(f" in {name}"))
                assert (loop, loop) in edges, f"{evidence!r} names no loop of {name}"
                return
        raise AssertionError(f"{evidence!r} names no part of the family")
    else:
        colorings = data["colorings"]
        assert sorted(colorings) == sorted(list(parts) + (["generator"] if gen else [])), sorted(colorings)
        used = [check_coloring(colorings[name], part, name) for name, part in parts.items()]
        if gen:
            used.append(_generator_coloring(gen, colorings["generator"]))
        assert evidence == f"uniform coloring schema with <= {max(used, default=0)} colors", evidence


def check_generated(fam: dict, out: dict) -> None:
    verdict, evidence, data = out["verdict"], out["evidence"], out["data"]
    assert verdict == generated_truth(fam), f"verdict {verdict!r}, truth {generated_truth(fam)!r}"
    if verdict == "yes":
        assert (evidence, data) == ("presentation guarantees finite out-degree everywhere", {})
        return
    witness, gen = data["witness"], fam["generator"]["name"]
    assert evidence == f"out-degree of vertex {witness!r} grows without bound", evidence
    series = sorted((int(b), d) for b, d in data["degrees"].items())
    assert len(series) >= 2, "a growing series needs two budgets"
    for (b0, d0), (b1, d1) in zip(series, series[1:]):
        assert d0 < d1, f"out-degree {d0} at {b0} components, {d1} at {b1}"
    for b, d in series:
        verts, edges = builtin_union(gen, b)
        assert witness in verts and d == sum(a == witness for a, _ in edges), \
            f"out-degree of {witness!r} in {b} components is not {d}"
