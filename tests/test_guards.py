"""Every guard fires: each refusal below is tripped once, its message
checked, from an instance file through the CLI, from the library, or by a
corrupted witness that its recheck must catch."""

import json
import re
from dataclasses import replace

import pytest

import dglift.liftcheck as liftcheck
from dglift.algebra import BaseRing, DGAlgebra, build_algebra
from dglift.carriers import Carrier, SemifreeCarrier, TensorCarrier, validate_carrier_squares
from dglift.cli import main, parse_instance
from dglift.config import EngineConfig
from dglift.diagonal import Diagonal
from dglift.errors import (DegreeMismatch, DimensionMismatch, IllFormedPresentation,
                           NotTriangular, OwnerMismatch)
from dglift.homotopy import HomSpace, carrier_map_to_chain, minimal_model, space_name
from dglift.instances import build_corpus
from dglift.linalg import SparseMatrix
from dglift.liftcheck import splitting_search, summand_witness
from dglift.modules import (ChainMap, SemifreeModule, cone, direct_sum, free_module,
                             make_module)
from dglift.obstruction import ObstructionTower, chain_map_operator, chi_power
from dglift.scalars import RATIONALS

from conftest import DATA
from test_cli import run_cli

CONFIG = EngineConfig(field=RATIONALS, max_degree=8)

LIFT_FLAG = ("FATAL: strict splitting and obstruction vanishing disagree "
             "(violates the bound-free equivalence)")
AGREEMENT_FLAG = ("FATAL: battery verdicts disagree on an instance with verified "
                  "Ext-vanishing hypotheses; potential conjecture-relevant event "
                  "or engine bug")


@pytest.fixture()
def ext():
    return build_algebra(BaseRing(), [("y", 1, "0")], 0, CONFIG)


def two_step(alg):
    return make_module(alg, [("e0", 0), ("e1", 2)], {("e0", "e1"): alg.gen("y")})


# ----- the battery's FATAL flags ------------------------------------------


@pytest.mark.parametrize("path, forged, flag", [
    # two_step: no strict section and no AR1; a forged "i holds" leaves
    # only the bound-free equivalence broken
    (DATA / "two_step.dg", object(), LIFT_FLAG),
    # free3: a section and AR1; a forged "i fails" breaks the equivalence
    # and the agreement under AR1, whose flag is the one reported
    (DATA / "free3.dg", None, AGREEMENT_FLAG),
], ids=["bound-free-equivalence", "agreement-under-AR1"])
def test_the_battery_raises_its_fatal_flags(monkeypatch, path, forged, flag):
    """With verdicts i and ii made to disagree, the battery sets its FATAL
    flag and `dglift battery` exits 1 with the flag in its report."""
    monkeypatch.setattr(liftcheck, "splitting_search", lambda N, diag: forged)
    code, out, err = run_cli(["battery", str(path), "--json"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdicts"]["i"] is not report["verdicts"]["ii"]
    assert (report["flag"], report["splitting_iff_omega_zero"]) == (flag, False)


# ----- instance files -------------------------------------------------------


@pytest.mark.parametrize("lines, message", [
    ("ring = k\n[algebra]\nvar y : 0 = 0\n", "variable y has degree 0 < 1"),
    ("ring = k[a]/(a^2)\n[algebra]\nvar a : 1 = 0\n",
     "variable clashes with base generator name"),
    ("ring = k\n[algebra]\nvar y : 1 = 0\nvar x : 2 = 0\nvar z : 3 = y + x*y\n",
     "d(z) is not homogeneous"),
], ids=["degree-zero", "base-generator-name", "inhomogeneous-differential"])
def test_an_ill_formed_algebra_is_an_invalid_instance(tmp_path, capsys, lines, message):
    p = tmp_path / "algebra.dg"
    p.write_text("[base]\n" + lines + "[module N]\ngen e0 : 0\n")
    with pytest.raises(IllFormedPresentation, match=f"^{re.escape(message)}$"):
        parse_instance(str(p), CONFIG)
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().err == f"invalid instance: {message}\n"


# ----- the library ------------------------------------------------------------


def test_make_module_refuses_duplicate_generator_names(ext):
    with pytest.raises(NotTriangular, match="^duplicate basis name 'e0'$"):
        make_module(ext, [("e0", 0), ("e0", 1)])


def test_direct_sum_refuses_two_algebras(ext):
    other = build_algebra(BaseRing(), [("y", 1, "0")], 0, CONFIG)
    with pytest.raises(OwnerMismatch, match="^" + re.escape(
            "summands over different algebras: summand 0 over k<y:1> (A = first 0 vars), "
            "summand 1 over k<y:1> (A = first 0 vars)") + "$"):
        direct_sum(free_module(ext, 1), free_module(other, 1))


# Each guard of the algebra and module constructors, and of arithmetic
# across algebras, that no other test reaches: (the call on ext and on
# other, a second algebra with the same presentation; the error type; its
# message, naming the generator, entry or name at fault where it has one).
LIBRARY_GUARDS = {
    "base-ring-name-only": (lambda ext, other: BaseRing("a"), IllFormedPresentation,
                            "base ring needs both generator name and order, or neither; "
                            "got only the name 'a'"),
    "base-ring-order-only": (lambda ext, other: BaseRing(order=2), IllFormedPresentation,
                             "base ring needs both generator name and order, or neither; "
                             "got only the order 2"),
    "duplicate-variable": (lambda ext, other: DGAlgebra(BaseRing(), ["y", "z", "y"], [1, 1, 1], 0,
                                                        CONFIG),
                           IllFormedPresentation, "duplicate variable name 'y'"),
    "prefix-out-of-range": (lambda ext, other: DGAlgebra(BaseRing(), ["y"], [1], 2, CONFIG),
                            IllFormedPresentation,
                            "A-prefix size 2 out of range 0..1, the number of variables"),
    "unknown-generator": (lambda ext, other: ext.gen("z"), IllFormedPresentation,
                          "unknown generator 'z'"),
    "inhomogeneous-degree": (lambda ext, other: (ext.one() + ext.gen("y")).degree(), ValueError,
                             "element is not homogeneous: degrees [0, 1]"),
    "sum-across-algebras": (lambda ext, other: ext.one() + other.one(), OwnerMismatch,
                            "elements belong to different algebras: "
                            "k<y:1> (A = first 0 vars) and k<y:1> (A = first 0 vars)"),
    "entry-out-of-range": (lambda ext, other: SemifreeModule(ext, ["e0"], [0],
                                                             {(0, 1): ext.gen("y")}),
                           NotTriangular, "entry index (0,1) out of range"),
    "foreign-entry": (lambda ext, other: SemifreeModule(ext, ["e0", "e1"], [0, 2],
                                                        {(0, 1): other.gen("y")}),
                      OwnerMismatch, "differential entry (e0,e1) from a foreign algebra"),
    "chain-map-across-algebras": (lambda ext, other: ChainMap(free_module(ext, 1),
                                                              free_module(other, 1), 0, {}),
                                  OwnerMismatch,
                                  "chain map across different algebras: source over "
                                  "k<y:1> (A = first 0 vars), target over k<y:1> (A = first 0 vars)"),
    "compose-unmatched": (lambda ext, other: ChainMap.identity(free_module(ext, 1)).compose(
        ChainMap.identity(free_module(ext, 1))), OwnerMismatch,
        "composition targets do not match"),
}


@pytest.mark.parametrize("case", list(LIBRARY_GUARDS))
def test_each_library_guard_raises_its_named_error(ext, case):
    call, error, message = LIBRARY_GUARDS[case]
    other = build_algebra(BaseRing(), [("y", 1, "0")], 0, CONFIG)
    with pytest.raises(error) as exc:
        call(ext, other)
    assert type(exc.value) is error and str(exc.value) == message


def shift_one_map(alg):
    """The zero chain map B -> Sigma B[1], a chain map of shift 1."""
    return ChainMap(free_module(alg, 1, 1), free_module(alg, 1), 1, {})


def test_cone_refuses_a_map_of_nonzero_shift(ext):
    with pytest.raises(DegreeMismatch, match="^cone needs a shift-0 chain map, got shift 1$"):
        cone(shift_one_map(ext))


def test_chain_map_operator_refuses_a_map_of_nonzero_shift(ext):
    with pytest.raises(DimensionMismatch, match="^" + re.escape(
            "operator form needs a shift-0 chain map, got shift 1: "
            "ChainMap([f0:1] -> S^1 [f0:0])") + "$"):
        chain_map_operator(shift_one_map(ext))


def test_an_operator_applies_only_to_maps_into_its_source(ext):
    diag = Diagonal(ext)
    N = two_step(ext)
    w0 = ObstructionTower(N, diag).component(0)
    into_T1 = chi_power(N, diag, 1)   # lands in N (x) T^1, w0's target
    with pytest.raises(DimensionMismatch, match="^" + re.escape(
            "operator w[0]: SemifreeCarrier([e0:0, e1:2] (x)_B AlgebraCarrier) -> "
            "SemifreeCarrier([e0:0, e1:2] (x)_B Sigma^1 J) does not apply to a map into "
            "SemifreeCarrier([e0:0, e1:2] (x)_B Sigma^1 J)") + "$"):
        w0.apply(into_T1)


def test_a_negative_tensor_degree_is_refused(ext):
    with pytest.raises(DimensionMismatch, match="^tensor degree must be >= 0, got -1$"):
        Diagonal(ext).T(-1)


def test_a_tensor_factor_needs_its_action(ext):
    """N's own carrier has no left action and the bare Carrier no right one."""
    N = two_step(ext)
    own = re.escape("right tensor factor SemifreeCarrier([e0:0, e1:2] (x)_B AlgebraCarrier) "
                    "needs a left action")
    with pytest.raises(DimensionMismatch, match=f"^{own}$"):
        SemifreeCarrier(N, N.carrier())
    with pytest.raises(DimensionMismatch,
                       match="^left tensor factor Carrier needs a right action$"):
        TensorCarrier(Carrier(ext), ext.carrier())
    with pytest.raises(DimensionMismatch, match=f"^{own}$"):
        TensorCarrier(ext.carrier(), N.carrier())


def test_a_map_into_a_tensor_carrier_is_no_chain_map_of_modules(ext):
    """carrier_map_to_chain reads a map back as a matrix over B only when
    its target is a module's own carrier; N (x)_B T^1 is not, and is named."""
    N = two_step(ext)
    into_T1 = chi_power(N, Diagonal(ext), 1)
    with pytest.raises(DimensionMismatch, match="^" + re.escape(
            "target SemifreeCarrier([e0:0, e1:2] (x)_B Sigma^1 J) is not a semifree "
            "module carrier") + "$"):
        carrier_map_to_chain(into_T1)


class IdentityDifferential(Carrier):
    """One basis vector in each degree, with the identity as differential."""

    def dim(self, d):
        return 1

    def diff(self, d):
        return SparseMatrix(self.field, 1, 1, {0: {0: self.field.one}})


def test_validate_carrier_squares_catches_a_nonzero_square(ext):
    with pytest.raises(DimensionMismatch, match="^IdentityDifferential: differential does "
                                                "not square to zero at degree 2$"):
        validate_carrier_squares(IdentityDifferential(ext), range(2, 5))


# ----- the witness rechecks -------------------------------------------------


def test_a_minimal_model_recheck_catches_a_corrupted_g(ext):
    """N = B (+) cone(id_B) retracts onto N' = B; doubling g's one entry
    keeps g a chain map but breaks f g = id, and dropping h breaks
    id - g f = d h + h d.  Each refusal names N."""
    N = direct_sum(free_module(ext, 1), cone(ChainMap.identity(free_module(ext, 1))))
    model = Diagonal(ext).minimal(N)
    assert model.module.n_gens == 1 and len(model.g.entries) == 1
    model.recheck()
    ((key, el),) = model.g.entries.items()
    doubled = ChainMap(model.g.source, model.g.target, 0, {key: el.scale(2)})
    named = re.escape("minimal model of SemifreeModule([f0.0:0, c.f0.1:0, s.f0.1:1]): ")
    with pytest.raises(DimensionMismatch, match=f"^{named}f g is not the identity of N'$"):
        replace(model, g=doubled).recheck()
    with pytest.raises(DimensionMismatch, match=f"^{named}id - g f is not d h \\+ h d$"):
        replace(model, h={}).recheck()


def test_the_class_count_catches_a_boundary_that_is_no_cycle(ext, monkeypatch):
    """With one column of delta_s replaced by a map that is not a chain map,
    the boundaries are not all cycles: the class count refuses the space,
    naming it."""
    N = two_step(ext)
    honest = HomSpace(N, N.carrier(), 0)
    chain_cols = honest.chain_matrix().columns()
    j = min(chain_cols)  # a unit vector that delta_{s+1} does not kill
    delta = honest.boundary_matrix()
    cols = delta.columns()
    forged = SparseMatrix.from_cols(ext.field, delta.nrows, [
        {j: ext.field.one} if k == 0 else cols.get(k, {}) for k in range(delta.ncols)])
    monkeypatch.setattr(HomSpace, "boundary_matrix", lambda self: forged)
    space = re.escape(space_name(N, N.carrier(), 0))
    with pytest.raises(DimensionMismatch, match=f"in the {space}: the boundaries are not "
                                                f"all cycles$"):
        HomSpace(N, N.carrier(), 0).class_reps()


def test_a_wrong_unit_inverse_is_refused(ext, monkeypatch):
    """A unit coefficient 2 is cancelled through its inverse; with the
    field's inverse wrong, the sum stops at its bound and the recheck
    refuses it, naming both elements."""
    N = make_module(ext, [("a", 0), ("b", 1)], {("a", "b"): ext.one().scale(2)})
    assert minimal_model(N).module.n_gens == 0
    monkeypatch.setattr(ext.field, "inv", lambda c: ext.field.one)
    with pytest.raises(DimensionMismatch, match="^1 is not the inverse of 2$"):
        minimal_model(N)


def test_a_summand_witness_with_a_corrupted_homotopy_is_refused(monkeypatch):
    """The contractible cone's witness has a nonzero homotopy; doubled, it
    fails the recheck, and summand_witness refuses it."""
    inst = build_corpus(CONFIG, ["exterior"])["exterior"]
    N = inst.modules["cone_id"]
    G, pi = inst.diag.base_change(N)
    sigma = splitting_search(N, inst.diag)
    honest = summand_witness(N, sigma, G, pi, inst.diag.minimal(N))
    assert honest.homotopy and honest.recheck()
    doubled = {k: v.scale(2) for k, v in honest.homotopy.items()}
    assert not replace(honest, homotopy=doubled).recheck()

    real = liftcheck.SummandWitness
    monkeypatch.setattr(liftcheck, "SummandWitness", lambda m, g, h, homotopy: real(
        m, g, h, {k: v.scale(2) for k, v in homotopy.items()}))
    with pytest.raises(DimensionMismatch, match="^" + re.escape(
            "summand witness of SemifreeModule([c_b0:0, s_b0:1]) failed its homotopy "
            "recheck") + "$"):
        summand_witness(N, sigma, G, pi, inst.diag.minimal(N))
