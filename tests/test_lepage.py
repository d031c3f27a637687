import gc
import random
from fractions import Fraction

import pytest

from jetform import forms, lepage
from jetform import interior_euler as ie
from jetform import symexpr as se
from jetform.forms import (Context, d_C, ds_block, dx, exterior_d, omega,
                           p_k, volume, wedge)
from jetform.lepage import (Lagrangian, UnsupportedOrder, euler_lagrange,
                            generic_lagrangian, kb_second_order,
                            krupka_betounes_first, lepage_check,
                            poincare_cartan, rossi_recurrence)
from jetform.randomgen import rand_density
from jetform.symexpr import Scalar
from form_oracles import chi_table, formal_atoms, wedge_all

CTX21 = Context(n=2, m=1)
CTX22 = Context(n=2, m=2)
CTX11 = Context(n=1, m=1)


def dirichlet():
    return Lagrangian(CTX21, 1, se.rational(1, 2) * (se.y(1, 1) ** 2 + se.y(1, 2) ** 2))


def null_lagrangian():
    return Lagrangian(CTX22, 1, se.y(1, 1) * se.y(2, 2) - se.y(1, 2) * se.y(2, 1))


def beam():
    return Lagrangian(CTX11, 2, se.rational(1, 2) * se.y(1, 1, 1) ** 2)


# -- Lagrangian type ---------------------------------------------------------------

def test_order_validation():
    with pytest.raises(UnsupportedOrder):
        Lagrangian(CTX11, 3, se.y(1))
    with pytest.raises(ValueError):
        Lagrangian(CTX11, 1, se.y(1, 1, 1))


# -- the momentum family ------------------------------------------------------------

def reference_p1(lam, sigma, i):
    return se.partial(lam.density, ('y', sigma, (i,)))


def reference_p2(lam, sigma, j, k):
    key = tuple(sorted((j, k)))
    return se.partial(lam.density, ('y', sigma, key)) * Fraction(1, 1 if j == k else 2)


def reference_f1(lam, sigma, j):
    val = reference_p1(lam, sigma, j)
    for k in range(1, lam.ctx.n + 1):
        val = val - se.total_derivative(reference_p2(lam, sigma, j, k), k)
    return val


def test_momentum_matches_the_order_specific_formulas():
    rng = random.Random(46)
    for (n, m) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = Context(n=n, m=m)
        for order in (1, 2):
            for lam in [generic_lagrangian(ctx, order),
                        Lagrangian(ctx, order, rand_density(rng, ctx, order)),
                        Lagrangian(ctx, order, rand_density(rng, ctx, order))]:
                for sigma in range(1, m + 1):
                    for i in range(1, n + 1):
                        first = reference_p1 if order == 1 else reference_f1
                        assert lam.momentum(sigma, (i,)) == first(lam, sigma, i)
                        for j in range(1, n + 1):
                            expect = reference_p2(lam, sigma, i, j) if order == 2 \
                                else Scalar.zero()
                            assert lam.momentum(sigma, (i, j)) == expect


def test_euler_lagrange_is_the_momentum_of_the_empty_index():
    rng = random.Random(47)
    for (n, m) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = Context(n=n, m=m)
        for order in (1, 2):
            for lam in [generic_lagrangian(ctx, order),
                        Lagrangian(ctx, order, rand_density(rng, ctx, order))]:
                source = wedge(omega(ctx, 1), volume(ctx)).scale(lam.momentum(1, ()))
                for sigma in range(2, m + 1):
                    source = source + wedge(omega(ctx, sigma),
                                            volume(ctx)).scale(lam.momentum(sigma, ()))
                assert source == euler_lagrange(lam)


def test_chain_members_are_truncated_towers():
    # rho_q is the tower with q plain slots (order 1), or one plain slot and
    # q raised ones (order 2)
    for order, points in [(1, [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)]),
                          (2, [(2, 1), (3, 1), (2, 2)])]:
        for (n, m) in points:
            lam = generic_lagrangian(Context(n=n, m=m), order)
            chain = rossi_recurrence(lam)
            for q in range(1, n + 1):
                slots = (q,) if order == 1 else (1, q)
                assert chain.forms[q - 1] == lepage._closed_equivalent(lam, slots)


# -- Poincare-Cartan ----------------------------------------------------------------

def test_pc_free_particle():
    lam = Lagrangian(CTX11, 1, se.rational(1, 2) * se.y(1, 1) ** 2)
    theta = poincare_cartan(lam)
    assert theta == lam.form() + omega(CTX11, 1).scale(se.y(1, 1))


def test_pc_dirichlet():
    lam = dirichlet()
    theta = poincare_cartan(lam)
    expect = lam.form() \
        + wedge(omega(CTX21, 1), ds_block(CTX21, (1,))).scale(se.y(1, 1)) \
        + wedge(omega(CTX21, 1), ds_block(CTX21, (2,))).scale(se.y(1, 2))
    assert theta == expect


def test_pc_second_order_beam():
    theta = poincare_cartan(beam())
    expect = beam().form() + omega(CTX11, 1).scale(-se.y(1, 1, 1, 1)) \
        + omega(CTX11, 1, 1).scale(se.y(1, 1, 1))
    assert theta == expect


def test_pc_closed_form_agrees_generic():
    for (n, m, order) in [(2, 2, 1), (2, 1, 2), (3, 1, 2)]:
        lam = generic_lagrangian(Context(n=n, m=m), order)
        poincare_cartan(lam)  # raises internally on mismatch with chart form


# -- Euler-Lagrange -------------------------------------------------------------------

def test_el_dirichlet():
    got = euler_lagrange(dirichlet())
    expect = wedge(omega(CTX21, 1), volume(CTX21)).scale(
        Scalar.zero() - se.y(1, 1, 1) - se.y(1, 2, 2))
    assert got == expect


def test_el_beam():
    got = euler_lagrange(beam())
    assert got == wedge(omega(CTX11, 1), dx(CTX11, 1)).scale(se.y(1, 1, 1, 1, 1))


def test_el_null_lagrangian_vanishes():
    assert euler_lagrange(null_lagrangian()).is_zero()


def test_el_total_divergence_invariance():
    # adding d_H of a horizontal (n-1)-form leaves the source form unchanged
    rng = random.Random(41)
    lam = dirichlet()
    from jetform.forms import d_H
    from jetform.randomgen import rand_scalar
    corr = d_H(ds_block(CTX21, (1,)).scale(rand_scalar(rng, CTX21, 0, degree=2)))
    [(w, c)] = corr.terms.items()
    lam2 = Lagrangian(CTX21, 1, lam.density + c)
    assert euler_lagrange(lam2) == euler_lagrange(lam)


# -- the recurrence -------------------------------------------------------------------

def test_chain_for_mechanics_is_theta_only():
    lam = Lagrangian(CTX11, 1, se.y(1, 1) ** 2)
    chain = rossi_recurrence(lam)
    assert len(chain.forms) == 1
    assert chain.terminal == poincare_cartan(lam)


def test_chain_stabilizes_for_single_field():
    # m = 1, first order: the 2-contact correction dies on a repeated field
    lam = dirichlet()
    chain = rossi_recurrence(lam)
    assert len(chain.forms) == 2
    assert chain.forms[1] == chain.forms[0]


def test_null_lagrangian_rho2_is_closed():
    chain = rossi_recurrence(null_lagrangian())
    rho2 = chain.terminal
    assert rho2 == krupka_betounes_first(null_lagrangian())
    assert exterior_d(rho2).is_zero()
    assert rho2 == poincare_cartan(null_lagrangian()) + wedge(omega(CTX22, 1), omega(CTX22, 2))


def test_chain_invariants_randomized():
    rng = random.Random(42)
    for (n, m) in [(2, 2), (3, 2)]:
        ctx = Context(n=n, m=m)
        lam = Lagrangian(ctx, 1, rand_density(rng, ctx, 1))
        chain = rossi_recurrence(lam)
        assert len(chain.forms) == n
        for rho in chain.forms:
            assert p_k(rho, 0) == lam.form()            # h(rho_q) = lambda
        for q in range(1, len(chain.forms)):
            for j in range(q):                          # lower grades frozen
                assert p_k(chain.forms[q], j) == p_k(chain.forms[q - 1], j)


def test_kb_first_matches_recurrence():
    rng = random.Random(43)
    for (n, m) in [(2, 1), (2, 2), (3, 2)]:
        ctx = Context(n=n, m=m)
        for _ in range(2):
            lam = Lagrangian(ctx, 1, rand_density(rng, ctx, 1))
            assert rossi_recurrence(lam).terminal == krupka_betounes_first(lam)


def test_kb_first_generic_density():
    for (n, m) in [(2, 2), (3, 1)]:
        lam = generic_lagrangian(Context(n=n, m=m), 1)
        assert rossi_recurrence(lam).terminal == krupka_betounes_first(lam)


def test_kb_first_without_velocities_is_lambda():
    lam = Lagrangian(CTX22, 1, se.x(1) * se.y(1) ** 2)
    assert krupka_betounes_first(lam) == lam.form()


def test_kb_first_equals_theta_for_single_field():
    lam = dirichlet()
    assert krupka_betounes_first(lam) == poincare_cartan(lam)


# -- second order ------------------------------------------------------------------------

def displayed_rho2(lam):
    ctx = lam.ctx
    n, m = ctx.n, ctx.m
    expect = lam.form()
    for sig in range(1, m + 1):
        for i in range(1, n + 1):
            expect = expect + wedge(omega(ctx, sig),
                                    ds_block(ctx, (i,))).scale(lam.momentum(sig, (i,)))
            for j in range(1, n + 1):
                expect = expect + wedge(omega(ctx, sig, j),
                                        ds_block(ctx, (i,))).scale(lam.momentum(sig, (i, j)))
    for s1 in range(1, m + 1):
        for i1 in range(1, n + 1):
            for s2 in range(1, m + 1):
                for i2 in range(1, n + 1):
                    for j2 in range(1, n + 1):
                        c = se.partial(lam.momentum(s2, (i2, j2)), ('y', s1, (i1,)))
                        term = wedge_all(omega(ctx, s1), omega(ctx, s2, j2),
                                         ds_block(ctx, (i1, i2)))
                        expect = expect + term.scale(c * Fraction(1, 2))
    return expect


def test_rho2_matches_displayed_formula():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        lam = generic_lagrangian(Context(n=n, m=m), 2)
        chain = rossi_recurrence(lam)
        assert chain.forms[1] == displayed_rho2(lam)


def test_kb_second_plain_matches_recurrence():
    rng = random.Random(44)
    for (n, m) in [(2, 1), (2, 2)]:
        ctx = Context(n=n, m=m)
        lam = generic_lagrangian(ctx, 2)
        assert rossi_recurrence(lam).terminal == kb_second_order(lam, "plain")
        lamr = Lagrangian(ctx, 2, rand_density(rng, ctx, 2))
        assert rossi_recurrence(lamr).terminal == kb_second_order(lamr, "plain")
    ctx = Context(n=3, m=2)
    dens = se.y(1, 1, 1) * se.y(2, 2) * se.y(1, 3) + se.y(2, 1, 2) * se.y(1, 2) \
        + se.y(1, 2, 3) * se.y(2, 3) * se.y(2, 1)
    lam = Lagrangian(ctx, 2, dens)
    assert rossi_recurrence(lam).terminal == kb_second_order(lam, "plain")


def test_kb_second_generalized_reduces_to_first_order():
    rng = random.Random(45)
    for (n, m) in [(2, 2), (3, 2), (3, 3)]:
        ctx = Context(n=n, m=m)
        d1 = rand_density(rng, ctx, 1)
        assert kb_second_order(Lagrangian(ctx, 2, d1), "generalized") == \
            krupka_betounes_first(Lagrangian(ctx, 1, d1))
    lam1 = generic_lagrangian(CTX22, 1)
    assert kb_second_order(Lagrangian(CTX22, 2, lam1.density), "generalized") == \
        krupka_betounes_first(lam1)


def test_kb_second_n1_both_variants_are_theta():
    lam = beam()
    theta = poincare_cartan(lam)
    assert kb_second_order(lam, "plain") == theta
    assert kb_second_order(lam, "generalized") == theta


def test_kb_second_biharmonic_has_theta_shape_only():
    # L = 1/2 (u_11 + u_22)^2 has no first-order coordinates: the mixed
    # q = 2 coefficient vanishes and only theta-type terms remain
    lam = Lagrangian(CTX21, 2, se.rational(1, 2) * (se.y(1, 1, 1) + se.y(1, 2, 2)) ** 2)
    rho = kb_second_order(lam, "plain")
    assert rho == poincare_cartan(lam)


def test_kb_second_rejects_wrong_order():
    with pytest.raises(UnsupportedOrder):
        kb_second_order(dirichlet(), "plain")
    with pytest.raises(UnsupportedOrder):
        krupka_betounes_first(beam())
    with pytest.raises(ValueError):
        kb_second_order(beam(), "fancy")


# -- lepage_check ---------------------------------------------------------------------

def test_lepage_check_passes_for_equivalents():
    lam = dirichlet()
    for rho in [poincare_cartan(lam), krupka_betounes_first(lam)]:
        rep = lepage_check(rho, lam)
        assert rep.ok
    lam2 = null_lagrangian()
    assert lepage_check(krupka_betounes_first(lam2), lam2).ok
    lam3 = beam()
    assert lepage_check(kb_second_order(lam3, "plain"), lam3).ok


def test_lepage_check_fails_for_bare_lambda():
    lam = dirichlet()
    rep = lepage_check(lam.form(), lam)
    assert rep.horizontal is None
    assert not rep.ok
    # lambda has no 1-contact part, so the source side is d_C lambda alone,
    # against E(lambda) = -(u_11 + u_22) w(u) ^ ds
    assert rep.source == ("smallest differing term: rebuilt (u_1) * w(u,1) /\\ ds, "
                          "expected 0")


# -- the memo lives for one outermost call -------------------------------------------

def _spy_chain_rule(monkeypatch):
    """Record the key of every chain rule built, the rule, and the memo it
    went into."""
    keys, rules, memos = [], [], []
    build = se._chain_rule

    def spy(atom, i, derived):
        keys.append((atom, i))
        memos.append(se._derived)
        rules.append(build(atom, i, derived))
        return rules[-1]

    monkeypatch.setattr(se, "_chain_rule", spy)
    return keys, rules, memos


@pytest.mark.parametrize("call", [
    poincare_cartan, rossi_recurrence, euler_lagrange, krupka_betounes_first])
def test_memo_is_gone_after_a_public_call_returns(call):
    lam = generic_lagrangian(Context(n=2, m=2), 1)
    assert se._derived is None
    call(lam)
    assert se._derived is None


def test_memo_is_gone_after_a_self_check_raises(monkeypatch):
    lam = generic_lagrangian(CTX21, 2)
    monkeypatch.setattr(lepage, "poincare_cartan_closed",
                        lambda lam: volume(lam.ctx))
    for call in (poincare_cartan, rossi_recurrence):
        with pytest.raises(AssertionError):
            call(lam)
        assert se._derived is None


def test_nested_entry_points_share_one_memo(monkeypatch):
    keys, rules, memos = _spy_chain_rule(monkeypatch)
    lam = generic_lagrangian(CTX21, 2)
    # rossi_recurrence -> poincare_cartan -> _closed_equivalent, each a scope
    rossi_recurrence(lam)
    assert memos[0] is not None and all(memo is memos[0] for memo in memos)
    # each rule built is kept as the expansion of its formal atom D_i f
    assert keys and all(memos[0][se.atom(('g', a.key, (i,)))] is rule
                        for (a, i), rule in zip(keys, rules))
    memos.clear()
    with se._memo_scope():
        outer = se._derived
        euler_lagrange(lam)
        kb_second_order(lam)
        assert se._derived is outer
    assert memos and all(memo is outer for memo in memos)


# -- interned atoms live no longer than the expressions that use them ------------------

def test_intern_table_is_not_a_cache_across_calls():
    # each call runs under a new density name, as the benchmark's do: its
    # atoms must die with its results, so the table keeps nothing for the next
    for k in range(6):
        gc.collect()
        before = len(se._interned)
        chain = rossi_recurrence(generic_lagrangian(CTX22, 2, name=f"Lcall{k}"))
        assert len(se._interned) > before
        del chain
        gc.collect()
        assert len(se._interned) == before


def test_no_formal_atom_leaves_the_integration_by_parts():
    # total derivatives of opaque atoms stay formal inside ibp_expand, the
    # residual and the recurrence; every form handed out is expanded, and
    # the formal atoms die with the family that holds them
    lam = generic_lagrangian(CTX22, 2, name="Lformal")
    chain = rossi_recurrence(lam)
    rho = d_C(lam.form())
    fam = ie.ibp_expand(rho, 1)
    assert formal_atoms(fam.int_xi.values())
    assert not formal_atoms(chain.forms)
    assert not formal_atoms([ie.residual(rho, 1)])
    assert not formal_atoms([*fam.xi.values(), *chi_table(fam).values()])
    del fam
    gc.collect()
    assert not [key for key in se._interned if key[0] == 'g']


def test_a_kept_result_equals_the_same_result_built_later():
    kept = rossi_recurrence(generic_lagrangian(CTX22, 2, name="Lkept")).terminal
    for k in range(3):
        rossi_recurrence(generic_lagrangian(CTX22, 2, name=f"Lother{k}"))
    gc.collect()
    # the atoms of the later call that kept does not hold are new, with new ranks
    again = rossi_recurrence(generic_lagrangian(CTX22, 2, name="Lkept")).terminal
    assert again == kept
    assert hash(again) == hash(kept)


@pytest.mark.parametrize("order", [1, 2])
def test_dlambda_is_its_contact_differential(order):
    rng = random.Random(48 + order)
    for (n, m) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = Context(n=n, m=m)
        for lam in [generic_lagrangian(ctx, order),
                    Lagrangian(ctx, order, rand_density(rng, ctx, order))]:
            assert d_C(lam.form()) == exterior_d(lam.form())


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_provenance_eta_is_canonical_at_the_first_step(n, m):
    # poincare_cartan is the recurrence's step q = 1, which takes the
    # provenance eta at order 2; it must be the canonical one there
    ctx = Context(n=n, m=m)
    rng = random.Random(80 + 10 * n + m)
    for order in (1, 2):
        for lam in [generic_lagrangian(ctx, order),
                    Lagrangian(ctx, order, rand_density(rng, ctx, order))]:
            grads = {w: se.gradient(c) for w, c in p_k(lam.form(), 0).terms.items()}
            canonical = ie.eta_decompose(d_C(lam.form()), 1).etas
            assert canonical
            assert lepage._provenance_eta(ctx, grads) == canonical


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_chain_member_q_has_contact_degree_at_most_q(n, m, order):
    # rossi_recurrence builds p_q(d rho_{q-1}) as d_C p_{q-1} rho_{q-1},
    # which is the whole q-contact part only under this bound
    chain = rossi_recurrence(generic_lagrangian(Context(n=n, m=m), order))
    assert len(chain.forms) == n
    for q, rho in enumerate(chain.forms, start=1):
        assert rho.contact_degree() <= q


@pytest.mark.parametrize("n,m,order", [(2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2)])
def test_recurrence_self_checks_hold_in_the_formal_ring(monkeypatch, n, m, order):
    # the recurrence runs formally: its eta recompositions, xi rebuilds and
    # the Poincare-Cartan cross-check all hold before anything is expanded
    literal = []
    mismatch = ie._mismatch

    def spy(got, want):
        literal.append(got == want)
        return mismatch(got, want)

    for module in (ie, lepage):
        monkeypatch.setattr(module, "_mismatch", spy)
    lam = generic_lagrangian(Context(n=n, m=m), order)
    chain = rossi_recurrence(lam)
    # two checks a step, and the cross-check at the first
    assert len(literal) == 2 * n + 1 and all(literal)
    theta = poincare_cartan(lam)
    assert theta == chain.forms[0]
    assert not formal_atoms([theta, *chain.forms])


@pytest.mark.parametrize("order", [1, 2])
def test_lepage_pairs_of_the_formal_chain_hold_literally(monkeypatch, order):
    # the Lepage check of the formal terminal and of the formal theta needs
    # no expansion: in the formal ring both pairs are literally equal
    literal = []
    mismatch = ie._mismatch

    def spy(got, want):
        literal.append(got == want)
        return mismatch(got, want)

    for module in (ie, lepage):
        monkeypatch.setattr(module, "_mismatch", spy)
    n = 3
    lam = generic_lagrangian(Context(n=n, m=2), order)
    with se._formal_scope():
        for rho in (lepage._chain(lam)[-1], lepage._theta(lam)):
            pairs = lepage._lepage_pairs(rho, lam)
            assert [label for label, _, _ in pairs] == ["lepage horizontal", "lepage source"]
            for label, got, want in pairs:
                assert lepage._mismatch(got, want) is None, label
    # the chain's 2n + 1 self-checks, theta's three again, then two pairs each
    assert len(literal) == (2 * n + 1) + 3 + 2 * 2 and all(literal)


def test_closed_tower_takes_one_momentum_per_sorted_index(monkeypatch):
    calls = []
    momentum = Lagrangian.momentum
    monkeypatch.setattr(Lagrangian, "momentum",
                        lambda self, sigma, J: calls.append((sigma, J)) or momentum(self, sigma, J))
    lam = generic_lagrangian(Context(n=3, m=2), 2)
    for build in (kb_second_order, poincare_cartan):
        calls.clear()
        build(lam)
        # m n leads f^i at h = 0 and m n(n+1)/2 leads f^{ij} at h = 1; one
        # call per ordered J' made 6 + 18
        assert len({(sigma, tuple(sorted(J))) for sigma, J in calls}) == len(calls) == 18


def test_recurrence_builds_each_chain_rule_once(monkeypatch):
    keys, _, _ = _spy_chain_rule(monkeypatch)
    lam = generic_lagrangian(Context(n=3, m=1), 2)
    terminal = rossi_recurrence(lam).terminal
    # without the memo the same recurrence builds 732 chain rules, and 189
    # with it while the telescope expanded every d_i of an opaque atom; with
    # the whole recurrence formal and each member expanded once, as it is
    # returned, only the 9 d_j L_{y_{jK}} of the Poincare-Cartan form are
    # ever expanded
    assert len(keys) == len(set(keys)) == 9
    assert terminal == kb_second_order(lam)


def test_lepage_check_builds_each_chain_rule_once(monkeypatch):
    lam = generic_lagrangian(Context(n=3, m=1), 2)
    rho = kb_second_order(lam)
    keys, _, _ = _spy_chain_rule(monkeypatch)
    assert lepage_check(rho, lam).ok
    assert keys and len(keys) == len(set(keys))


def test_recurrence_telescope_takes_each_derivative_once(monkeypatch):
    counted = [0]
    inside = [False]
    derive, expand = forms._derive_form_into, ie.ibp_expand

    def spy_derive(acc, items, i):
        counted[0] += inside[0]
        return derive(acc, items, i)

    def spy_expand(*args, **kwargs):
        inside[0] = True
        try:
            return expand(*args, **kwargs)
        finally:
            inside[0] = False

    # every form total derivative, of a Form or of a trie node's running
    # sum, is one _derive_form_into
    monkeypatch.setattr(forms, "_derive_form_into", spy_derive)
    monkeypatch.setattr(ie, "ibp_expand", spy_expand)
    lam = generic_lagrangian(Context(n=3, m=2), 2)
    terminal = rossi_recurrence(lam).terminal
    # form total derivatives inside ibp_expand, the exactness rebuild
    # included: the ordered-J telescope took 114, sorted J alone 102, and
    # 90 once each d_J extended the d_J' of its prefix; the rebuild now
    # takes one per node of the trie of the sorted I
    assert counted[0] == 63
    assert terminal == kb_second_order(lam)


# -- the recurrence runs each step on N p_{q-1} rho_{q-1} ---------------------------------

def _rational_density(ctx, order):
    """A generic density plus polynomial terms, with coefficients 1/3, 2/5, 5/7."""
    top = se.y(ctx.m, *([ctx.n] * order))
    return (se.rational(1, 3) * se.opaque("F", n=ctx.n, m=ctx.m, order=order)
            + se.rational(2, 5) * se.y(1, 1) * top
            + se.rational(5, 7) * se.y(1, 1) ** 2 * se.x(1))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2)])
def test_integer_chain_matches_the_uncleared_step(n, m, order):
    ctx = Context(n=n, m=m)
    lam = Lagrangian(ctx, order, _rational_density(ctx, order))
    chain = rossi_recurrence(lam).forms
    denominators = []
    for q in range(2, n + 1):
        prev = chain[q - 2]
        part = p_k(prev, q - 1)
        denominators.append(forms._cleared([part])[0])
        diff = p_k(exterior_d(prev), q)
        etas = None
        if order == 2:
            grads = {w: se.gradient(c) for w, c in part.terms.items()}
            etas = lepage._provenance_eta(ctx, grads)
        assert chain[q - 1] == prev - p_k(ie._expanded(ie._formal_residual(diff, q, etas)), q)
    # the cleared steps did divide something
    assert max(denominators) > 1
    closed = krupka_betounes_first(lam) if order == 1 else kb_second_order(lam)
    assert chain[-1] == closed
