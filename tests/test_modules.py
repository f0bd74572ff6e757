"""Semifree modules: validation, shift, cone, base change, homology."""

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.errors import CapExceeded, DegreeMismatch, DSquaredNonzero, NotTriangular
from dglift.modules import (ChainMap, base_change, cone, direct_sum, free_module,
                            homology_dim, make_module, shift, zero_module)

from conftest import koszul, two_step


def test_single_generator_is_valid(ext):
    M = make_module(ext, [("e", 0)])
    assert M.n_gens == 1 and not M.diff


def test_two_step_valid(ext):
    M = two_step(ext)
    assert M.degrees == (0, 2)


def test_koszul_valid(quot):
    K = koszul(quot)
    assert K.degrees == (0, 1)


def test_non_triangular_rejected(ext):
    with pytest.raises(NotTriangular):
        make_module(ext, [("e0", 0), ("e1", 2)], {("e1", "e0"): ext.gen("y")})


def test_degree_mismatch_rejected(ext):
    with pytest.raises(DegreeMismatch):
        make_module(ext, [("e0", 0), ("e1", 3)], {("e0", "e1"): ext.gen("y")})


def test_d_squared_rejected_names_column(config):
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, config)
    with pytest.raises(DSquaredNonzero) as exc:
        make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): alg.gen("X")})
    assert "e1" in str(exc.value)


def test_d_squared_names_the_first_nonzero_row(config):
    """d^2 e4 = e1 x^2 y + e2 x^2: rows e1 and e2 are nonzero, and the first,
    e1, is named, although e2 receives its first (zero) term before e1 does."""
    alg = build_algebra(BaseRing(), [("y", 1, "0"), ("x", 2, "0")], 0, config)
    x, y = alg.gen("x"), alg.gen("y")
    with pytest.raises(DSquaredNonzero) as exc:
        make_module(alg, [("e0", 0), ("e1", 0), ("e2", 1), ("e3", 4), ("e4", 7)],
                    {("e1", "e3"): x * y, ("e2", "e3"): x,
                     ("e2", "e4"): x * x * y, ("e3", "e4"): x})
    assert "d² != 0 on column e4 (row e1): " in str(exc.value)


def test_zero_module_accepted(ext):
    Z = zero_module(ext)
    assert Z.n_gens == 0
    assert Z.basis_in_degree(0) == []
    assert homology_dim(Z, 0) == 0


def test_shift_identity(ext):
    M = two_step(ext)
    assert shift(M, 0) is M


def test_shift_sign_rule(quot):
    K = koszul(quot)
    S = shift(K, 1)
    assert S.degrees == (1, 2)
    assert S.diff[(0, 1)] == quot.gen("a").neg()


def test_shift_involution(ext):
    M = two_step(ext)
    back = shift(shift(M, 1), -1)
    assert back.degrees == M.degrees and back.diff == M.diff


def test_shift_composes(ext):
    M = two_step(ext)
    a = shift(shift(M, 1), 2)
    b = shift(M, 3)
    assert a.degrees == b.degrees and a.diff == b.diff


def test_cone_of_zero_map(ext):
    B = free_module(ext, 1)
    f = ChainMap(B, B, 0, {})
    C = cone(f)
    assert sorted(C.degrees) == [0, 1]
    assert not C.diff  # shifted copy plus target, no connecting entries


def test_cone_of_identity_contractible(ext):
    B = free_module(ext, 1)
    C = cone(ChainMap.identity(B))
    for d in range(0, 5):
        assert homology_dim(C, d) == 0


def test_cone_of_multiplication_matches_two_step(ext):
    # the y-multiplication map, presented shift-0 as Sigma B -> B with
    # matrix (y); its cone is the two-step module up to renaming
    SB = shift(free_module(ext, 1), 1)
    B = free_module(ext, 1)
    f = ChainMap(SB, B, 0, {(0, 0): ext.gen("y")})
    C = cone(f)
    M = two_step(ext)
    assert sorted(C.degrees) == sorted(M.degrees)
    assert [el for el in C.diff.values()] == [ext.gen("y")]
    for d in range(0, 6):
        assert homology_dim(C, d) == homology_dim(M, d)


def test_cone_dimension_identity(ext):
    M = two_step(ext)
    C = cone(ChainMap.identity(M))
    for d in range(0, 6):
        assert C.carrier().dim(d) == (M.carrier().dim(d - 1) + M.carrier().dim(d))


def test_homology_of_free(ext):
    B = free_module(ext, 1)
    assert homology_dim(B, 0) == 1
    assert homology_dim(B, 1) == 1  # H(Lambda(y)) = Lambda(y)


def test_homology_koszul(quot):
    K = koszul(quot)
    assert homology_dim(K, 0) == 1
    assert homology_dim(K, 1) == 1  # a is a zero divisor


def test_chain_map_validation(ext):
    M = two_step(ext)
    # the identity is a chain map; a random degree-violating entry is not
    ChainMap.identity(M).validate()
    with pytest.raises(DegreeMismatch):
        ChainMap(M, M, 0, {(0, 1): ext.gen("y")})


def test_chain_map_compose(ext):
    M = two_step(ext)
    i = ChainMap.identity(M)
    assert i.compose(i).entries == i.entries


def test_base_change_free(ext):
    B = free_module(ext, 1, prefix="b")
    G, pi = base_change(B)
    assert list(G.degrees)[:2] == [0, 1]
    assert G.n_gens == 2  # b (x) 1, b (x) y within the truncation
    # pi(b (x) y) = b*y
    col = [el for (mu, lam), el in pi.entries.items() if lam == 1]
    assert col and col[0] == ext.gen("y")


def test_base_change_two_step(ext):
    M = two_step(ext)
    G, pi = base_change(M)
    names = list(G.names)
    # e0(x)1, e0(x)y, e1(x)1, e1(x)y and the degree-3 truncation margin
    assert any("e0" in n for n in names) and any("e1" in n for n in names)
    # d(e1 (x) 1) = (e0 (x) y) * 1
    col_e1 = {G.names[mu]: el for (mu, lam), el in G.diff.items()
              if "e1(x)1" == G.names[lam]}
    assert list(col_e1) == ["e0(x)y"]
    assert list(col_e1.values())[0] == ext.one()
    pi.validate()


def test_base_change_identity_when_A_is_B(quot):
    K = koszul(quot)
    G, pi = base_change(K)
    assert G.n_gens == K.n_gens
    assert all(el == quot.one() for el in pi.entries.values())


def test_base_change_names_the_degree_beyond_the_cap(config):
    """G needs generators up to one degree above N's, so N reaching the
    cap is refused, naming the base-change generator degree."""
    alg = build_algebra(BaseRing(), [("u", 1, "0"), ("y", 1, "0")], 1,
                        config.with_limits(max_degree=2))
    N = make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): alg.gen("y")})
    with pytest.raises(CapExceeded) as exc:
        base_change(N)
    assert str(exc.value) == \
        "base-change generator degree 3 exceeds configured cap 2; raise the limit"
    assert (exc.value.needed, exc.value.cap) == (3, 2)


def test_base_change_right_linearity_of_counit(ext):
    M = two_step(ext)
    G, pi = base_change(M)
    import random
    rng = random.Random(3)
    pi_car = None
    from dglift.obstruction import chain_map_operator
    op = chain_map_operator(pi)
    gcar, mcar = G.carrier(), M.carrier()
    f = ext.field
    for _ in range(20):
        d = rng.randint(0, 3)
        n = gcar.dim(d)
        if n == 0:
            continue
        vec = {rng.randrange(n): f.from_int(rng.randint(1, 3))}
        e = rng.randint(0, 2)
        monos = ext.monomials(e)
        if not monos:
            continue
        b = monos[rng.randrange(len(monos))]
        lhs = op.mat(d + e).mat_vec(gcar.right_act(b, d).mat_vec(vec))
        rhs = mcar.right_act(b, d).mat_vec(op.mat(d).mat_vec(vec))
        assert lhs == rhs


def test_direct_sum_dims(ext):
    M = two_step(ext)
    B = free_module(ext, 1)
    S = direct_sum(M, B)
    for d in range(0, 5):
        assert S.carrier().dim(d) == M.carrier().dim(d) + B.carrier().dim(d)
