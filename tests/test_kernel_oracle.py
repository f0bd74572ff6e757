"""The closed-form diagonal ideal J against the elimination route.

J's basis is read off the columns of the multiplication map pi with no
elimination, its operators skip a zero parent operator, and the enveloping
differential is built from B's differential columns.  On every corpus
algebra and on the exterior algebra on five odd generators and tate2 at
the default cap, on both fields and in every degree up to the cap, each
must equal what kernel_oracle builds the general way (enveloping_oracle
for the differential of B (x)_A B), as a list or entry by entry.  The guards stay: a column of pi with two entries raises, and so
does an action whose image leaves J.
"""

import pytest
from enveloping_oracle import enveloping_diff
from kernel_oracle import kernel_basis, pushed

from dglift.algebra import BaseRing, build_algebra
from dglift.carriers import KernelSubCarrier
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import DimensionMismatch
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.scalars import DEFAULT_PRIME, PrimeField, RATIONALS

FIELDS = {"Q": RATIONALS, "Fp": PrimeField(DEFAULT_PRIME)}


def algebras(backend):
    """(name, algebra): the corpus with its own caps, then ext5 and tate2
    at the default cap, the algebras of the tensor-ladder benchmark."""
    config = EngineConfig(field=FIELDS[backend])
    out = [(name, inst.algebra) for name, inst in build_corpus(config).items()]
    for name, base, gens in (
            ("ext5", BaseRing(), [(f"y{i}", 1, "0") for i in range(5)]),
            ("tate2", BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")])):
        out.append((name, build_algebra(base, gens, 0, config)))
    return out


def exterior2(backend):
    return build_algebra(BaseRing(), [("y0", 1, "0"), ("y1", 1, "0")], 0,
                         EngineConfig(field=FIELDS[backend], max_degree=6))


@pytest.mark.parametrize("backend", list(FIELDS))
def test_closed_form_J_is_the_elimination_route(backend):
    """basis_vectors(d) is pi's RREF kernel basis by elimination, as a list;
    the enveloping differential is the pair-by-pair one; and J's
    differential and both actions of each variable are, entry by entry,
    the parent matrix applied to each basis vector and read through
    coords."""
    nonzero = 0
    for name, alg in algebras(backend):
        diag = Diagonal(alg)
        env, J = diag.env, diag.J
        cap = alg.config.max_degree
        for d in range(cap + 1):
            where = (name, d)
            assert J.basis_vectors(d) == kernel_basis(env, d), where
            want = enveloping_diff(env, d)
            assert env.diff(d).columns() == want.columns(), where
            got = J.diff(d)
            assert (got.nrows, got.ncols) == (J.dim(d - 1), J.dim(d)), where
            assert got.columns() == pushed(J, d, d - 1, want).columns(), where
            nonzero += not got.is_zero()
            for var in alg.var_names:
                (u,) = alg.gen(var).terms
                e = alg.mono_degree(u)
                if d + e > cap:
                    continue
                for act, parent_act in ((J.right_act, env.right_act),
                                        (J.left_act, env.left_act)):
                    got, at = act(u, d), where + (act.__name__, var)
                    assert (got.nrows, got.ncols) == (J.dim(d + e), J.dim(d)), at
                    assert got.columns() == pushed(J, d, d + e, parent_act(u, d)).columns(), at
                    nonzero += not got.is_zero()
    assert nonzero > 200, nonzero


@pytest.mark.parametrize("backend", list(FIELDS))
def test_a_projection_column_with_two_entries_raises(backend):
    """The closed form needs one entry per column of the projection: a
    column given a second entry raises, naming J and the degree."""
    alg = exterior2(backend)
    env = Diagonal(alg).env
    f = alg.field
    d = 1
    pi = env.pi_matrix(d)  # rows y0 and y1, one entry in each column
    assert pi.nrows == 2
    cols = {j: dict(col) for j, col in pi.columns().items()}
    j = max(cols)
    (w,) = cols[j]
    cols[j][1 - w] = f.one
    forged = SparseMatrix(f, pi.nrows, pi.ncols, cols)
    J = KernelSubCarrier(env, lambda deg: forged if deg == d else env.pi_matrix(deg), name="J")
    with pytest.raises(DimensionMismatch,
                       match=rf"^J: projection column {j} in degree {d} has 2 entries"):
        J.basis_vectors(d)
    assert J.basis_vectors(d + 1) == kernel_basis(env, d + 1)


@pytest.mark.parametrize("backend", list(FIELDS))
def test_an_action_that_drops_the_pivot_pair_term_leaves_J(backend, monkeypatch):
    """coords still rechecks every pushed column: a parent right action
    with the columns of pi's pivot pairs dropped sends e_j - c e_p to the
    image of e_j alone, which pi does not kill, and right_act raises from
    coords, naming J and the degree."""
    alg = exterior2(backend)
    diag = Diagonal(alg)
    env, J = diag.env, diag.J
    honest = env.right_act

    def dropped(mono, d):
        first = {}
        for j, col in sorted(env.pi_matrix(d).columns().items()):
            first.setdefault(next(iter(col)), j)
        m = honest(mono, d)
        keep = {j: col for j, col in m.columns().items() if j not in first.values()}
        return SparseMatrix(m.field, m.nrows, m.ncols, keep)

    monkeypatch.setattr(env, "right_act", dropped)
    (y1,) = alg.gen("y1").terms
    with pytest.raises(DimensionMismatch, match=r"^vector not in J at degree 2$"):
        J.right_act(y1, 1)
