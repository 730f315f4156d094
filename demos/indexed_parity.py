"""Indexed (sorted) containers: the parity example.

An indexed container assigns each sort its own labels, and each label a sort
for every child position.  The parity container has two sorts that strictly
alternate, so every well-sorted tree alternates E and O labels.  A plain
container is the special case with a single sort.
"""

from omegacoalg import approximate, out, tree_equal
from omegacoalg.catalog import fig1_coalgebra, parity_coalgebra, parity_container
from omegacoalg.cli import render_text
from omegacoalg.indexed import (
    embed_plain,
    i_into,
    i_out,
    iapproximate,
    iunfold,
    well_sorted,
)


def main():
    base = parity_container()
    c = parity_coalgebra()

    # Approximations carry their sort; well-sortedness holds at every depth.
    for n in range(5):
        t = iapproximate(c, "p", n)
        assert well_sorted(base, t)
        print(f"p at depth {n} (sort {t.sort}):", render_text(t.tree))

    # The structure map and its inverse, sort-aware: the plain ``out`` gives
    # the children the sorts their positions ask for; ``i_out`` is the same
    # map as a pair.
    m = iunfold(c, "p")
    label, children = out(m)
    assert (label, children) == i_out(m)
    print("out(p) =", label, "with child sorts", [ch.sort for ch in children])
    back = i_into(base, "e", label, children)
    assert all(tree_equal(back.at(n), m.at(n)) for n in range(21))
    print("into(out(p)) = p to depth 20")

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
