"""Acceptance criteria: one test per criterion, exact tolerances throughout.

Each test prints a single pass line on success; pytest reports failures.
The corpus is rebuilt per scalar backend so both arithmetic substrates are
exercised where a criterion demands it.
"""

import random

import pytest

from dglift.config import EngineConfig
from dglift.homotopy import carrier_map_to_chain, hom_k_dim, is_null_homotopic
from dglift.instances import build_corpus, battery_pairs
from dglift.liftcheck import (kernel_sequence_check, naive_lift_battery,
                              splitting_search)
from dglift.modules import ChainMap, homology_dim
from dglift.obstruction import (EnvelopingRouteTower, ObstructionTower,
                                carrier_maps_equal, chi_power, chi_power_iterated,
                                conjugation_commutes, gamma_dim, local_nilpotency,
                                omega_action_matrix, omega_is_zero, towers_agree)
from dglift.scalars import DEFAULT_PRIME, FALLBACK_PRIME, PrimeField, RATIONALS

from hom_space_oracle import strict_triangular_cycles

Q_CONFIG = EngineConfig(field=RATIONALS, max_degree=8)
P_CONFIG = EngineConfig(field=PrimeField(DEFAULT_PRIME), max_degree=8)

_CORPUS_CACHE = {}


def corpus(config):
    key = config.field.name
    if key not in _CORPUS_CACHE:
        _CORPUS_CACHE[key] = build_corpus(config)
    return _CORPUS_CACHE[key]


def ar1_pairs(config):
    out = []
    for inst in corpus(config).values():
        for mname in inst.ar1_expected:
            out.append((inst, mname, inst.modules[mname]))
    return out


def _random_homogeneous(alg, rng, d):
    el = alg.zero()
    for u in alg.monomials(d):
        c = rng.randint(-3, 3)
        if c:
            el = el + alg.from_mono(u, alg.field.from_int(c))
    return el


def _passed(n, text):
    print(f"[criterion {n:2d}] PASS  {text}")


@pytest.mark.parametrize("config", [Q_CONFIG, P_CONFIG], ids=["Q", "Fp"])
def test_criterion_01_algebra_soundness(config):
    rng = random.Random(101)
    checked = 0
    for inst in corpus(config).values():
        alg = inst.algebra
        window = min(alg.config.max_degree, 6)
        for i in range(alg.nvars):
            assert alg.var_diffs[i].differentiate().is_zero()
        for _ in range(200):
            dx = rng.randint(0, window)
            dy = rng.randint(0, max(0, window - dx))
            x = _random_homogeneous(alg, rng, dx)
            y = _random_homogeneous(alg, rng, dy)
            assert x.differentiate().differentiate().is_zero()
            yx = y * x
            assert x * y == (yx if (dx * dy) % 2 == 0 else yx.neg())
            second = x * y.differentiate()
            assert (x * y).differentiate() == x.differentiate() * y + (
                second if dx % 2 == 0 else second.neg())
            checked += 1
    _passed(1, f"d^2, graded commutativity, Leibniz exact on {checked} random "
               f"homogeneous pairs over {config.field.name}")


def test_criterion_02_diagonal_exactness():
    config = Q_CONFIG
    total = 0
    for inst in corpus(config).values():
        diag = inst.diag
        cap = inst.algebra.config.max_degree
        L = inst.algebra.config.max_tensor
        for d in range(0, cap + 1):
            r = diag.check_basic_sequence(d)
            assert r["balanced"] and r["pi_surjective"], (inst.name, r)
            total += 1
        for n in range(0, L):
            for d in range(0, cap):
                r = diag.check_tensor_sequence(n, d)
                assert r["balanced"], (inst.name, r)
                total += 1
    _passed(2, f"(2.1) and (2.2) dimension balance exact at {total} grid points")


@pytest.mark.parametrize("config", [Q_CONFIG, P_CONFIG], ids=["Q", "Fp"])
def test_criterion_03_appendix_counterexample(config):
    inst = corpus(config)["koszul"]
    K = inst.modules["K"]
    alg = inst.algebra
    assert hom_k_dim(K, K, -1) >= 1
    f = ChainMap(K, K, -1, {(1, 0): alg.gen("a")})
    assert is_null_homotopic(f) is None
    assert homology_dim(K, 1) == 1
    _passed(3, f"zero-divisor complex: explicit class survives at shift -1 and "
               f"H_1 = 1 over {config.field.name}")


def test_criterion_04_omega_vanishes_on_frees():
    config = Q_CONFIG
    inst = corpus(config)["exterior"]
    diag = inst.diag
    for n in (1, 2, 3):
        B = inst.modules[f"B{n}"] if n > 1 else inst.modules["B"]
        wit = omega_is_zero(B, diag)
        assert wit is not None
        assert wit.boundary().is_zero()  # the witness certifies the zero map
        assert splitting_search(B, diag) is not None
    _passed(4, "omega = 0 with stored witness and strict splitting for ranks 1..3")


def test_criterion_05_splitting_iff_omega_zero():
    config = Q_CONFIG
    pairs = battery_pairs(corpus(config))
    assert len(pairs) >= 8
    rows = []
    for inst, mname, M in pairs:
        sigma = splitting_search(M, inst.diag)
        wit = omega_is_zero(M, inst.diag)
        assert (sigma is not None) == (wit is not None), (inst.name, mname)
        rows.append((f"{inst.name}/{mname}", sigma is not None))
    _passed(5, f"strict splitting iff omega vanishes on all {len(rows)} corpus "
               f"instances (liftable: {sum(1 for _, v in rows if v)})")


def test_criterion_06_nine_condition_agreement():
    config = Q_CONFIG
    count = 0
    for inst, mname, M in ar1_pairs(config):
        r = naive_lift_battery(M, inst.diag, name=mname)
        assert r.ar1.holds, (inst.name, mname)
        decided = [v for v in r.verdicts.values() if v is not None]
        assert len(set(decided)) == 1, (inst.name, mname, r.verdicts)
        assert r.agreement and r.flag is None, (inst.name, mname, r.flag)
        count += 1
    assert count >= 5
    _passed(6, f"all nine verdicts agree on {count} AR1-verified instances")


def test_criterion_07_action_matrix_ranks():
    config = Q_CONFIG
    checked = 0
    for inst, mname, M in ar1_pairs(config):
        diag = inst.diag
        L = inst.algebra.config.max_tensor
        for n in range(0, L):
            for m in range(0, 4):
                mat, s, t = omega_action_matrix(M, diag, n, m)
                rank = mat.rank()
                assert rank == t, (inst.name, mname, n, m, "not surjective")
                if m >= 1 or n >= 1:
                    assert rank == s, (inst.name, mname, n, m, "not injective")
                checked += 1
    _passed(7, f"action surjective (and injective where required) at {checked} "
               f"(n, m) grid points, exact ranks")


def test_criterion_08_gamma_structure():
    config = Q_CONFIG
    for inst, mname, M in ar1_pairs(config):
        diag = inst.diag
        L = inst.algebra.config.max_tensor
        end_dim = hom_k_dim(M, M, 0)
        # rank of omega^n . End through the product of action matrices
        prod_rank = end_dim
        mats = []
        for n in range(0, L):
            mat, s, t = omega_action_matrix(M, diag, n, 0)
            mats.append(mat)
            prod = mats[0]
            for mm in mats[1:]:
                prod = mm @ prod
            assert gamma_dim(M, diag, n + 1) == prod.rank(), (inst.name, mname, n)
        for n in (-1, -2):
            assert gamma_dim(M, diag, n) == 0
        # AR1 + AR2: the shifted Hom modules vanish entirely
        from dglift.homotopy import check_AR2
        if check_AR2(M, diag).holds:
            for n in range(0, L + 1):
                for m in range(1, 4):
                    assert hom_k_dim(M, diag.NT(M, n), m) == 0, (inst.name, mname, n, m)
    _passed(8, "graded endomorphism ring matches the power decomposition; "
               "shifted Hom vanishes under both hypotheses")


def test_criterion_09_kernel_sequence():
    config = Q_CONFIG
    for inst, mname, M in ar1_pairs(config):
        r = kernel_sequence_check(M, inst.diag)
        assert r["ok"], (inst.name, mname, r)
    _passed(9, "kernel = factorization ideal, cokernel slot = End, middle "
               "bijectivity, exact ranks")


def test_criterion_10_construction_cross_checks():
    config = Q_CONFIG
    rng = random.Random(31)
    for inst, mname, M in battery_pairs(corpus(config)):
        diag = inst.diag
        tower = ObstructionTower(M, diag)
        route = EnvelopingRouteTower(M, diag)
        window = range(M.min_degree, M.max_degree + 2)
        for i in (0, 1):
            assert towers_agree(tower, route, i, window), (inst.name, mname, i)
        top = min(inst.algebra.config.max_tensor, M.max_degree - M.min_degree + 1)
        for ell in range(1, top + 1):
            closed = chi_power(M, diag, ell)
            iterated = chi_power_iterated(M, diag, ell)
            assert carrier_maps_equal(closed, iterated), (inst.name, mname, ell)
        # five random triangular chain automorphisms u = id + strict cycle
        strict_cycles = strict_triangular_cycles(M)
        f = inst.algebra.field
        for _ in range(5):
            entries = dict(ChainMap.identity(M).entries)
            for cyc in strict_cycles:
                c = rng.randint(-2, 2)
                if not c:
                    continue
                cm = carrier_map_to_chain(cyc.scale(f.from_int(c)))
                for k, v in cm.entries.items():
                    entries[k] = entries[k] + v if k in entries else v
            u = ChainMap(M, M, 0, entries)
            assert conjugation_commutes(
                M, diag, u, window=range(M.min_degree, M.max_degree + 2)), (inst.name, mname)
    _passed(10, "formula = enveloping route entrywise; powers = iterated "
                "composition; conjugation by 5 random triangular automorphisms "
                "per instance")


def test_criterion_11_local_nilpotency():
    config = Q_CONFIG
    total = 0
    for inst, mname, M in battery_pairs(corpus(config)):
        if M.n_gens == 0:
            continue
        diag = inst.diag
        L = inst.algebra.config.max_tensor
        for i in (0, 1):
            if i + (M.max_degree - i + 1) > L:
                continue  # certificate would need deeper truncation
            certs = local_nilpotency(M, diag, i)
            for c in certs:
                assert c["power"] <= M.max_degree - i + 1
            total += len(certs)
    assert total > 0
    _passed(11, f"nilpotency exponents found and bounded for {total} spanning "
                f"elements")


def test_criterion_12_backend_agreement():
    qc = corpus(Q_CONFIG)
    pc = corpus(P_CONFIG)

    def menu(corp):
        out = {}
        for name, inst in corp.items():
            diag = inst.diag
            cap = min(inst.algebra.config.max_degree, 5)
            for d in range(0, cap + 1):
                out[(name, "B", d)] = len(inst.algebra.monomials(d))
                out[(name, "Be", d)] = diag.env.dim(d)
                out[(name, "J", d)] = diag.J.dim(d)
                out[(name, "T2", d)] = diag.T(2).dim(d)
            for mname in inst.battery:
                M = inst.modules[mname]
                out[(name, mname, "end")] = hom_k_dim(M, M, 0)
                out[(name, mname, "gamma1")] = gamma_dim(M, diag, 1)
                out[(name, mname, "H0")] = homology_dim(M, 0)
                out[(name, mname, "H1")] = homology_dim(M, 1)
        return out

    q_menu = menu(qc)
    p_menu = menu(pc)
    assert q_menu.keys() == p_menu.keys()
    mismatches = [k for k in q_menu if q_menu[k] != p_menu[k]]
    if mismatches:
        # rerun the offenders under a second prime before failing
        alt = build_corpus(EngineConfig(field=PrimeField(FALLBACK_PRIME), max_degree=8))
        alt_menu = menu(alt)
        still = [k for k in mismatches if q_menu[k] != alt_menu[k]]
        assert not still, f"backend disagreement confirmed by second prime: {still}"
    _passed(12, f"{len(q_menu)} dimensions agree between Q and Fp")
