"""Invariants of two Weyl groups that are not monomial groups.

W(B3) (order 48) and W(D4) (order 192) act on the root space in
simple-root coordinates, generated by the simple reflections
s_i(alpha_j) = alpha_j - a_ij alpha_i of their Cartan matrices.  Both are
reflection groups, so their invariant rings are polynomial rings: the
sweep stops once it holds n invariants whose degrees multiply to |G| and
that form a homogeneous system of parameters (Kemper's certificate).
"""

from invtheory import FiniteGroupAction, QQ, invariant_ring, polynomial_ring

CARTAN = {
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def weyl_group(cartan):
    n = len(cartan)
    ring = polynomial_ring(QQ, tuple(f"a_{i + 1}" for i in range(n)))
    reflections = [[[int(k == j) - (cartan[i][j] if k == i else 0) for j in range(n)]
                    for k in range(n)] for i in range(n)]
    return FiniteGroupAction(ring, reflections)


def main():
    for name, cartan in CARTAN.items():
        action = weyl_group(cartan)
        inv = invariant_ring(action, algorithm="linear_algebra")
        degrees = [f.degree() for f in inv]
        product = 1
        for d in degrees:
            product *= d
        print(f"W({name}), order {action.order()}: generator degrees {degrees}, "
              f"product {product}, certified complete: {inv.complete}")


if __name__ == "__main__":
    main()
