"""Bisimilarity, witnesses, and minimization.

Two states of a coalgebra are bisimilar exactly when all their depth-n
observations agree.  This script decides bisimilarity by partition
refinement, cross-checks the answer against the depth-bounded oracle,
extracts a bisimulation witness from the final partition, and quotients the
coalgebra to its minimal form.
"""

from omegacoalg import (
    Coalgebra,
    approximate,
    bounded_bisim,
    first_divergence_depth,
    minimize,
    partition_refine,
    tree_equal,
    verify_bisim,
    witness_from_partition,
)
from omegacoalg.catalog import stream_container


def main():
    # Three states looping on label x, plus two that eventually emit y.
    sc = stream_container(("x", "y"))
    c = Coalgebra(
        sc,
        {
            "a": ("x", ("b",)),
            "b": ("x", ("c",)),
            "c": ("x", ("a",)),
            "d": ("x", ("e",)),
            "e": ("y", ("d",)),
        },
        state_enumeration=("a", "b", "c", "d", "e"),
    )

    p = partition_refine(c)
    print("blocks:", [list(block) for block in p.blocks])

    # a, b, c all unfold to the constant-x stream; d does not.
    print("a ~ b:", p.block_of("a") is p.block_of("b"))
    print("a ~ d:", p.block_of("a") is p.block_of("d"))
    print("a vs d first diverge at depth", first_divergence_depth(c, "a", "d", 10))

    # The bounded oracle agrees at depth |states|.
    n = len(c.state_enumeration)
    for s in c.state_enumeration:
        for t in c.state_enumeration:
            assert (p.block_of(s) is p.block_of(t)) == bounded_bisim(c, s, t, n)
    print("partition agrees with the depth-bounded oracle")

    # The final partition is itself a bisimulation.  Its witness relates
    # each state to the first state of its block, one pair per state, and
    # is checked up to the equivalence those pairs generate.
    w = witness_from_partition(c, p)
    assert verify_bisim(c, w)
    assert len(w.relation) == len(c.state_enumeration)
    print("witness relation:", sorted(w.relation))

    # Quotient: the minimal coalgebra identifies a, b, c.
    m = minimize(c)
    print("minimized states:", list(m.state_enumeration))
    rep = {s: block[0] for block in p.blocks for s in block}
    assert all(
        tree_equal(approximate(m, rep[s], k), approximate(c, s, k))
        for s in c.state_enumeration
        for k in range(11)
    )
    print("quotient preserves all observations to depth 10")


if __name__ == "__main__":
    main()
