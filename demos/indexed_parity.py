"""Indexed (sorted) containers: the parity example.

An indexed container assigns each sort its own labels, and each label a sort
for every child position.  The parity container has two sorts that strictly
alternate, so every well-sorted tree alternates E and O labels.  A plain
container is the special case with a single sort.
"""

from omegacoalg import (
    PValue,
    approximate,
    bounded_bisim,
    divergence_depth,
    into,
    out,
    tree_equal,
    unfold,
)
from omegacoalg.catalog import fig1_coalgebra, parity_coalgebra, parity_container
from omegacoalg.cli import render_text
from omegacoalg.indexed import embed_plain, iapproximate, well_sorted


def main():
    base = parity_container()
    c = parity_coalgebra()

    # Approximations carry their sort; well-sortedness holds at every depth.
    for n in range(5):
        t = iapproximate(c, "p", n)
        assert well_sorted(base, t)
        print(f"p at depth {n} (sort {t.sort}):", render_text(t.tree))

    # Corecursion and the structure map and its inverse are the plain calls,
    # sort-aware: ``unfold`` gives the element its state's sort, ``out``
    # gives the children the sorts their positions ask for, and ``into``
    # assembles at the sort it is given, since sorts may share label names.
    m = unfold(c, "p")
    v = out(m)
    print("out(p) =", v.label, "with child sorts", [ch.sort for ch in v.children])
    back = into(base, v, m.sort)
    assert all(tree_equal(back.at(n), m.at(n)) for n in range(21))
    print("into(out(p)) = p to depth 20")
    label, children = v
    assert all(into(base, PValue(label, children), "e").at(n) is back.at(n) for n in range(21))

    # Bisimilarity is the plain one: it compares each state's sort beside
    # its label, so states of different sorts differ at depth 1.
    assert bounded_bisim(c, "p", "p", 20) and divergence_depth(c, "p", "q") == 1
    print("p and q, of sorts e and o, differ at depth 1")

    # Single-sort embedding: a plain coalgebra, viewed as indexed, produces
    # exactly the same approximations.
    plain = fig1_coalgebra()
    ic = embed_plain(plain.container, plain)
    assert all(
        tree_equal(iapproximate(ic, s, n).tree, approximate(plain, s, n))
        for s in plain.state_enumeration
        for n in range(21)
    )
    print("singleton-sort embedding agrees with the plain construction")

if __name__ == "__main__":
    main()
