"""Enveloping algebra, diagonal ideal, derivation, tensor algebra."""

import random

import pytest

from dglift.algebra import BaseRing, build_algebra
from dglift.carriers import validate_carrier_squares
from dglift.diagonal import Diagonal
from dglift.linalg import vec_axpy


@pytest.fixture()
def ext(config):
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, config)


@pytest.fixture()
def tate(config):
    return build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, config)


def test_trivial_extension_has_zero_ideal(config):
    alg = build_algebra(BaseRing(), [], 0, config)
    diag = Diagonal(alg)
    assert diag.env.dim(0) == 1
    assert all(diag.J.dim(d) == 0 for d in range(0, 4))


def test_enveloping_dims_exterior(ext):
    diag = Diagonal(ext)
    assert [diag.env.dim(d) for d in (0, 1, 2)] == [1, 2, 1]
    labels = diag.env.labels(1)
    shown = {f"{ext.mono_str(u)}(x){ext.mono_str(m)}" for u, m in labels}
    assert shown == {"y(x)1", "1(x)y"}


def test_enveloping_dims_tate(tate):
    # degree-1 part: X(x)1, qX(x)1, 1(x)X, q(x)X after the middle relation
    diag = Diagonal(tate)
    assert diag.env.dim(1) == 4


def test_enveloping_middle_relation(tate):
    diag = Diagonal(tate)
    # 1 (x) qX reduces to q (x) X
    d, vec = diag.env.pair_vector((0, 0), (1, 1))
    assert d == 1 and len(vec) == 1
    u, m = diag.env.labels(1)[next(iter(vec))]
    assert tate.mono_str(u) == "q" and tate.mono_str(m) == "X"


def test_multiplication_sign_rule(ext):
    # (1(x)y)(y(x)1) = -(y(x)y); (y(x)1)(1(x)y) = +(y(x)y)
    diag = Diagonal(ext)
    env = diag.env
    f = ext.field
    d1, a = env.pair_vector((0, 0), (0, 1))  # 1(x)y
    d2, b = env.pair_vector((0, 1), (0, 0))  # y(x)1
    ab = env.multiply(d1, a, d2, b)
    ba = env.multiply(d2, b, d1, a)
    (k1, c1), = ab.items()
    (k2, c2), = ba.items()
    assert k1 == k2
    assert c1 == f.neg(f.one) and c2 == f.one


def test_pi_is_algebra_map_on_random_elements(tate):
    diag = Diagonal(tate)
    env = diag.env
    alg = tate
    f = alg.field
    rng = random.Random(11)
    for _ in range(40):
        d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
        if env.dim(d1) == 0 or env.dim(d2) == 0:
            continue
        v1 = {rng.randrange(env.dim(d1)): f.from_int(rng.randint(1, 3))}
        v2 = {rng.randrange(env.dim(d2)): f.from_int(rng.randint(1, 3))}
        prod = env.multiply(d1, v1, d2, v2)
        lhs = diag.env.pi_matrix(d1 + d2).mat_vec(prod)
        p1 = diag.env.pi_matrix(d1).mat_vec(v1)
        p2 = diag.env.pi_matrix(d2).mat_vec(v2)
        # multiply the two images in B
        rhs = {}
        for i, c in p1.items():
            for j, c2 in p2.items():
                sgn, w = alg.mono_mul(alg.monomials(d1)[i], alg.monomials(d2)[j])
                if w is None:
                    continue
                coef = f.mul(f.mul(c, c2), f.from_int(sgn))
                k = alg.mono_index(d1 + d2, w)
                vec_axpy(f, rhs, f.one, {k: coef})
        assert lhs == rhs


def test_pi_commutes_with_differential(tate):
    diag = Diagonal(tate)
    env = diag.env
    alg = tate
    for d in range(1, 5):
        lhs = diag.env.pi_matrix(d - 1) @ env.diff(d)
        # B differential matrix
        from dglift.carriers import AlgebraCarrier
        B = AlgebraCarrier(alg)
        rhs = B.diff(d) @ diag.env.pi_matrix(d)
        f = alg.field
        assert lhs.add(rhs.scale(f.neg(f.one))).is_zero()


def test_diagonal_ideal_exterior(ext):
    diag = Diagonal(ext)
    assert diag.J.dim(0) == 0  # inf J > 0
    assert diag.J.dim(1) == 1  # span{y(x)1 - 1(x)y}
    assert diag.J.dim(2) == 1  # span{y(x)y}
    assert diag.J.dim(3) == 0


def test_diagonal_ideal_positive(config):
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)
    diag = Diagonal(alg)
    assert diag.J.dim(0) == 0
    assert diag.J.min_degree() >= 1


def test_delta_of_unit_and_base(tate):
    diag = Diagonal(tate)
    assert diag.delta(tate.one())[1] == {}
    assert diag.delta(tate.gen("q"))[1] == {}  # A-elements die


def test_delta_formula(ext):
    diag = Diagonal(ext)
    d, vec = diag.delta_env(ext.gen("y"))
    # y(x)1 - 1(x)y in enveloping coordinates
    env = diag.env
    f = ext.field
    _, v1 = env.pair_vector((0, 1), (0, 0))
    _, v2 = env.pair_vector((0, 0), (0, 1))
    want = dict(v1)
    vec_axpy(f, want, f.neg(f.one), v2)
    assert vec == want


def test_delta_A_linearity_random(tate):
    # delta(a*b) = a . delta(b) for a in A, exact in enveloping coordinates
    diag = Diagonal(tate)
    alg = tate
    f = alg.field
    q, X = alg.gen("q"), alg.gen("X")
    for a, b in [(q, X), (q, q * X), (alg.one(), X)]:
        d1, lhs = diag.delta_env(a * b)
        d2, rv = diag.delta_env(b)
        rhs = diag.env.element_act_left(a, d2, rv)
        assert lhs == rhs


def test_delta_derivation_identity_random(config):
    # delta(b b') = delta(b).(1(x)b') + (b(x)1).delta(b'), both sides in J
    alg = build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, config)
    diag = Diagonal(alg)
    f = alg.field
    rng = random.Random(5)

    def rand_homog(d):
        el = alg.zero()
        for u in alg.monomials(d):
            c = rng.randint(-2, 2)
            if c:
                el = el + alg.from_mono(u, f.from_int(c))
        return el

    for _ in range(25):
        db, dbp = rng.randint(0, 2), rng.randint(0, 2)
        b, bp = rand_homog(db), rand_homog(dbp)
        if b.is_zero() or bp.is_zero():
            continue
        d, lhs = diag.delta_env(b * bp)
        _, vb = diag.delta_env(b)
        rhs = diag.env.element_act_right(bp, db, vb)
        _, vbp = diag.delta_env(bp)
        part2 = diag.env.element_act_left(b, dbp, vbp)
        vec_axpy(f, rhs, f.one, part2)
        assert lhs == rhs


def test_basic_sequence_balance(ext, tate):
    for alg in (ext, tate):
        diag = Diagonal(alg)
        for d in range(0, 6):
            r = diag.check_basic_sequence(d)
            assert r["balanced"] and r["pi_surjective"], r


def test_tensor_powers_conventions(ext):
    diag = Diagonal(ext)
    # n = 0: B itself degreewise
    T0 = diag.tensor_power_J(0)
    assert [T0.dim(d) for d in (0, 1, 2)] == [1, 1, 0]
    # n = 1: J degreewise
    T1 = diag.tensor_power_J(1)
    assert [T1.dim(d) for d in (0, 1, 2)] == [0, 1, 1]
    # n = 2 at degree 2: spanned by delta(y) (x) delta(y)
    T2 = diag.tensor_power_J(2)
    assert T2.dim(2) == 1


def test_tensor_sequence_balance(ext, tate):
    for alg in (ext, tate):
        diag = Diagonal(alg)
        for n in (0, 1, 2):
            for d in range(0, 6):
                r = diag.check_tensor_sequence(n, d)
                assert r["balanced"], r


def test_T_differentials_square_to_zero(ext):
    diag = Diagonal(ext)
    for n in (1, 2, 3):
        validate_carrier_squares(diag.T(n), range(1, 7))


def test_T_differentials_square_to_zero_tate(tate):
    diag = Diagonal(tate)
    for n in (1, 2):
        validate_carrier_squares(diag.T(n), range(1, 6))


def test_concatenation_surjective(ext, tate):
    for alg in (ext, tate):
        diag = Diagonal(alg)
        for d in range(0, 7):
            assert diag.concatenation_surjective(d)


def test_concatenation_surjective_fails_when_a_basis_vector_is_missed(ext, tate, monkeypatch):
    """With T^2.pair_project dropping quotient basis vector 0, no product
    reaches it, and the check must say so."""
    checked = 0
    for alg in (ext, tate):
        diag = Diagonal(alg)
        T2 = diag.T(2)
        real = T2.pair_project

        def dropping(p, xvec, q, yvec, real=real):
            out = real(p, xvec, q, yvec)
            out.pop(0, None)
            return out

        for d in range(0, 7):
            if T2.dim(d) == 0:
                continue
            assert diag.concatenation_surjective(d)
            monkeypatch.setattr(T2, "pair_project", dropping)
            assert not diag.concatenation_surjective(d)
            monkeypatch.undo()
            checked += 1
    assert checked >= 3


def test_tensor_cap_enforced(ext):
    from dglift.errors import CapExceeded
    diag = Diagonal(ext)
    with pytest.raises(CapExceeded):
        diag.T(ext.config.max_tensor + 1)
