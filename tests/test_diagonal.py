"""Enveloping algebra, diagonal ideal, derivation, tensor algebra."""

import random
from itertools import product

import pytest

from dglift.algebra import AlgebraElement, BaseRing, build_algebra
from dglift.carriers import validate_carrier_squares
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import DimensionMismatch
from dglift.instances import build_corpus
from dglift.linalg import vec_axpy
from dglift.memo import peek
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS


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


def random_vectors(env, rng, top, count):
    """count pairs (degree, vector) of B (x)_A B, each degree at most top
    with a nonzero piece, each vector of one to three terms."""
    f = env.field
    degrees = [d for d in range(top + 1) if env.dim(d)]
    out = []
    for _ in range(count):
        d = rng.choice(degrees)
        out.append((d, {k: f.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
                        for k in rng.sample(range(env.dim(d)), min(3, env.dim(d)))}))
    return out


def test_multiply_laws_on_random_vectors(corpus_algebras):
    """On multi-term vectors of every corpus algebra, of degrees up to 3 a
    factor: the product is associative, 1 (x) 1 is a two-sided unit, pi
    is multiplicative (products in B taken as AlgebraElements), and on
    basis pairs (u1 (x) m1)(u2 (x) m2) = (-1)^{|u2||m1|} u1 u2 (x) m1 m2.
    A factor's degree is also kept to a third of the cap, so that a triple
    product stays within it."""
    rng = random.Random(5)
    checked = 0
    for alg in corpus_algebras:
        env, f = Diagonal(alg).env, alg.field
        top = min(3, alg.config.max_degree // 3)
        unit = env.pair_vector(alg.unit_mono(), alg.unit_mono())[1]

        def element(d, vec):
            monos = alg.monomials(d)
            return AlgebraElement(alg, {monos[i]: c for i, c in vec.items()})

        def coords(d, el):
            return {alg.mono_index(d, u): c for u, c in el.terms.items()}

        vecs = random_vectors(env, rng, top, 75)
        for (d1, a), (d2, b), (d3, c) in zip(vecs[::3], vecs[1::3], vecs[2::3]):
            ab = env.multiply(d1, a, d2, b)
            assert env.multiply(d1 + d2, ab, d3, c) == \
                env.multiply(d1, a, d2 + d3, env.multiply(d2, b, d3, c))
            assert env.multiply(0, unit, d1, a) == a == env.multiply(d1, a, 0, unit)
            pi = env.pi_matrix
            assert pi(d1 + d2).mat_vec(ab) == coords(d1 + d2, element(
                d1, pi(d1).mat_vec(a)) * element(d2, pi(d2).mat_vec(b)))
            checked += 1
        for d1 in range(top + 1):
            for d2 in range(top + 1):
                for (k1, (u1, m1)), (k2, (u2, m2)) in product(enumerate(env.labels(d1)),
                                                              enumerate(env.labels(d2))):
                    sign = -1 if alg.mono_degree(u2) * alg.mono_degree(m1) % 2 else 1
                    uu = alg.from_mono(u1) * alg.from_mono(u2)
                    mm = alg.from_mono(m1) * alg.from_mono(m2)
                    want: dict = {}
                    for (u, cu), (m, cm) in product(uu.terms.items(), mm.terms.items()):
                        c = f.mul(f.from_int(sign), f.mul(cu, cm))
                        vec_axpy(f, want, f.one, env.pair_vector(u, m, c)[1])
                    assert env.multiply(d1, {k1: f.one}, d2, {k2: f.one}) == want
    assert checked == 25 * len(corpus_algebras)


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


@pytest.fixture(scope="module", params=["Q", "Fp"])
def corpus_algebras(request):
    field = RATIONALS if request.param == "Q" else PrimeField(DEFAULT_PRIME)
    return [inst.algebra for inst in build_corpus(EngineConfig(field=field)).values()]


def sigma_J_left_actions(alg, parity):
    """(J, Sigma J, u, d) for every monomial u of the given degree parity
    and every degree d of Sigma J whose image lies within the cap."""
    diag = Diagonal(alg)
    cap = alg.config.max_degree
    for d in range(diag.SJ.min_degree(), cap + 1):
        for e in range(parity, cap - d + 2, 2):
            for u in alg.monomials(e):
                yield diag.J, diag.SJ, u, d


def test_sigma_J_keeps_the_only_copy_of_an_odd_twisted_left_action(corpus_algebras):
    """Sigma J's left action of an odd monomial is J's negated, built from
    J's unmemoized left_act: J's action memo holds no copy of it."""
    nonzero = 0
    for alg in corpus_algebras:
        minus = alg.field.neg(alg.field.one)
        for J, SJ, u, d in sigma_J_left_actions(alg, 1):
            m = SJ.action("l", u, d)
            want = J.left_act(u, d - 1).scale(minus)
            assert (m.nrows, m.ncols, m.columns()) == (want.nrows, want.ncols, want.columns())
            assert ("l", u, d - 1) not in (peek(J, "action") or {})
            nonzero += not m.is_zero()
    assert nonzero >= 20, nonzero


def test_sigma_J_shares_an_even_left_action_with_J(corpus_algebras):
    """An even monomial's left action on Sigma J is the very matrix J's
    action memo holds."""
    shared = 0
    for alg in corpus_algebras:
        for J, SJ, u, d in sigma_J_left_actions(alg, 0):
            m = SJ.action("l", u, d)
            assert peek(J, "action")[("l", u, d - 1)] is m
            shared += not m.is_zero()
    assert shared >= 20, shared


def test_coords_inverts_to_parent(corpus_algebras):
    """J's coordinates of a vector built from random coordinates c are c,
    keyed in ascending order, whatever zero entries the vector carries."""
    rng = random.Random(31)
    checked = 0
    for alg in corpus_algebras:
        f, J = alg.field, Diagonal(alg).J
        for d in range(J.min_degree(), alg.config.max_degree + 1):
            n = J.dim(d)
            for _ in range(4 if n else 0):
                keys = sorted(rng.sample(range(n), rng.randint(1, n)))
                c = {k: f.from_int(rng.choice([-3, -2, -1, 1, 2, 5])) for k in keys}
                v = J.to_parent(d, c)
                got = J.coords(d, v)
                assert got == c and list(got) == keys, (d, c)
                padded = dict.fromkeys(range(J.parent.dim(d)), f.zero) | v
                assert J.coords(d, padded) == c
                checked += 1
    assert checked >= 50, checked


def test_coords_refuses_a_parent_vector_outside_J(corpus_algebras):
    """A vector that multiplication does not kill has no J coordinates:
    coords raises, naming J and the degree."""
    checked = 0
    for alg in corpus_algebras:
        f, diag = alg.field, Diagonal(alg)
        J = diag.J
        for d in range(alg.config.max_degree + 1):
            # e_j with a nonzero product, added to a vector of J
            outside = sorted(diag.env.pi_matrix(d).columns())
            if not outside:
                continue
            v = J.to_parent(d, {k: f.one for k in range(J.dim(d))})
            j = outside[-1]
            v[j] = f.add(v.get(j, f.zero), f.one)
            with pytest.raises(DimensionMismatch, match=rf"^vector not in J at degree {d}$"):
                J.coords(d, v)
            checked += 1
    assert checked >= 20, checked


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
