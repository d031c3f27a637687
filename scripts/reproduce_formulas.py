#!/usr/bin/env python3
"""Print the library's headline objects on symbolic inputs.

Walks through: the second-order Poincare-Cartan form, the second chain
member of the residual-operator recurrence, the boundary discrepancy of
the two codegree-1 splittings with its -1/6 coefficients, the canonical
rank-2 splitting, the discrepancy at rank 3 / codegree 1 and at rank 2 /
codegree 2, and the closed equivalent of the determinant null Lagrangian
together with its closedness check.

Run:  python scripts/reproduce_formulas.py
"""

from jetform import symexpr as se
from jetform.forms import Context, exterior_d
from jetform.lepage import (Lagrangian, generic_lagrangian,
                            krupka_betounes_first, poincare_cartan,
                            rossi_recurrence)
from jetform.printers import form_text, scalar_text
from jetform.randomgen import generic_morphism
from jetform.varmorph import (alpha_discrepancy, split_canonical_codegree_s,
                              split_like, to_contact_form)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main():
    banner("Second-order Poincare-Cartan form, generic density L(x, y, y_j, y_jk), n=2 m=1")
    lam = generic_lagrangian(Context(n=2, m=1), 2)
    print(form_text(poincare_cartan(lam)))

    banner("Second chain member rho_2 of the recurrence (same Lagrangian)")
    chain = rossi_recurrence(lam)
    print(form_text(chain.forms[1]))

    banner("Boundary discrepancy alpha of the two splittings (rank 2, codegree 1, n=2 m=1)")
    V = generic_morphism(Context(n=2, m=1), 1, 2)
    alpha, dalpha = alpha_discrepancy(V)
    print("alpha as a form:")
    print(" ", form_text(to_contact_form(alpha)))
    print("coefficient at the (1,2) block, plain contact slot:")
    print(" ", scalar_text(alpha.value((1, 2), 1, ())))
    print("Div(alpha) leading coefficient at i=1:")
    print(" ", scalar_text(dalpha.value((1,), 1, ())))

    banner("Canonical rank-2 codegree-1 splitting on generic coefficients")
    canon = split_canonical_codegree_s(V)
    like = split_like(V)
    print("canonical volume part:")
    print(" ", form_text(to_contact_form(canon.volume)))
    print("canonical boundary part:")
    print(" ", form_text(to_contact_form(canon.boundary)))
    print("split-like boundary part (differs by alpha):")
    print(" ", form_text(to_contact_form(like.boundary)))

    banner("Boundary discrepancy alpha beyond rank 2, codegree 1, generic coefficients")
    for (n, m, r, s) in [(2, 1, 3, 1), (3, 1, 2, 2)]:
        alpha, _ = alpha_discrepancy(generic_morphism(Context(n=n, m=m), s, r))
        print(f"alpha at rank {r}, codegree {s} (n={n} m={m}):")
        print(" ", form_text(to_contact_form(alpha)))

    banner("Closed equivalent of the null Lagrangian u_x v_y - u_y v_x (n=2, m=2)")
    ctx = Context(n=2, m=2)
    null = Lagrangian(ctx, 1, se.y(1, 1) * se.y(2, 2) - se.y(1, 2) * se.y(2, 1))
    rho = krupka_betounes_first(null)
    print(form_text(rho))
    print("d(rho) == 0:", exterior_d(rho).is_zero())
    print("equals the recurrence terminal:",
          (rossi_recurrence(null).terminal - rho).is_zero())


if __name__ == "__main__":
    main()
