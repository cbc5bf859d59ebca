import copy
import math
import pickle
import random
import re
from fractions import Fraction as F

import pytest

from fanoquotients.cyclotomic_rep import MAX_GROUP_ORDER
from fanoquotients.hj_resolution import (
    CyclicSing,
    ExceptionalChain,
    _discrepancy_memo,
    _resolve,
    hj_continued_fraction,
)


def evaluate_chain(selfints):
    """Fold the continued fraction back to n/q (round-trip oracle)."""
    value = F(selfints[-1])
    for b in reversed(selfints[:-1]):
        value = b - 1 / value
    return value


def expand(n, q):
    """n/q = b_1 - 1/(b_2 - ...) by the textbook loop, with no package code."""
    b = []
    while q:
        b.append(-(-n // q))
        n, q = q, b[-1] * q - n
    return tuple(b)


def all_types(max_n):
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                yield n, q


# n = 997 is prime: every q, with runs of (-2)-curves hundreds long (q = 2 and q = 996 among them)
SWEEP_997 = [(997, q) for q in range(1, 997)]


class TestExpansion:
    def test_node(self):
        assert CyclicSing(2, 1).chain().selfints == (2,)

    def test_fifteen_four(self):
        assert CyclicSing(15, 4).chain().selfints == (4, 4)

    def test_four_three(self):
        assert CyclicSing(4, 3).chain().selfints == (2, 2, 2)

    def test_eleven_three_up_to_reversal(self):
        chain = CyclicSing(11, 3).chain().selfints
        assert chain in ((3, 4), (4, 3))

    def test_round_trip_oracle_up_to_200(self):
        # folding the continued fraction back must reproduce n/q exactly
        for n, q in all_types(200):
            assert evaluate_chain(hj_continued_fraction(n, q)) == F(n, q)

    def test_du_val_chain_lengths(self):
        for n in range(2, 60):
            assert len(CyclicSing(n, n - 1).chain()) == n - 1

    def test_chain_length_is_its_component_count(self):
        for n, q in all_types(40):
            chain = CyclicSing(n, q).chain()
            assert len(chain) == len(chain.selfints) == len(chain.discrepancies)

    def test_from_selfints_is_a_classmethod_of_the_class_body(self):
        # benchmark/tracer.py wraps it through ExceptionalChain.__dict__
        assert isinstance(ExceptionalChain.__dict__["from_selfints"], classmethod)

    def test_cached_chain_is_read_only_and_survives_copy_and_pickle(self):
        chain = CyclicSing(11, 3).chain()
        with pytest.raises(AttributeError):
            chain.selfints = (2,)
        for clone in (copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
            assert clone == chain and clone.k2_correction() == chain.k2_correction()
            assert hash(clone) == hash(chain)


class TestDiscrepancies:
    def test_du_val_chain_is_crepant(self):
        assert CyclicSing(4, 3).chain().discrepancies == (F(0), F(0), F(0))

    def test_three_four_chain(self):
        assert ExceptionalChain.from_selfints((3, 4)).discrepancies == (F(6, 11), F(7, 11))

    def test_four_four_chain(self):
        assert ExceptionalChain.from_selfints((4, 4)).discrepancies == (F(2, 3), F(2, 3))

    def test_single_minus_three(self):
        assert ExceptionalChain.from_selfints((3,)).discrepancies == (F(1, 3),)

    def test_defining_system_up_to_200(self):
        for n, q in [*all_types(200), *SWEEP_997]:
            chain = ExceptionalChain.from_selfints(hj_continued_fraction(n, q))
            a = chain.discrepancies
            # M a = (2 - b_i) exactly, checked over the integers via n*a
            n_val = F(n)
            scaled = [int(x * n_val) for x in a]
            k = len(chain)
            for i in range(k):
                row = -chain.selfints[i] * scaled[i]
                if i > 0:
                    row += scaled[i - 1]
                if i + 1 < k:
                    row += scaled[i + 1]
                assert row == n * (2 - chain.selfints[i])
            assert all(0 <= x < 1 for x in a)
            assert (all(x == 0 for x in a)) == all(b == 2 for b in chain.selfints)

    def test_agrees_with_dense_solver(self):
        # dual-route check against the generic exact linear solver
        from exact_linalg import QMatrix, chain_solve, solve_linear

        for n, q in all_types(40):
            chain = hj_continued_fraction(n, q)
            k = len(chain)
            m = QMatrix([[(-chain[i] if i == j else (1 if abs(i - j) == 1 else 0))
                          for j in range(k)] for i in range(k)])
            dense = solve_linear(m, [2 - b for b in chain])
            assert ExceptionalChain.from_selfints(chain).discrepancies == dense
            # strict-transform systems M a = -m for a few incidence vectors m >= 0
            for mults in ([1] + [0] * (k - 1), [0] * (k - 1) + [2], [1] * k,
                          [(i * q) % 3 for i in range(k)]):
                assert chain_solve(chain, [-x for x in mults]) == solve_linear(m, [-x for x in mults])

    def test_closed_form_agrees_with_the_chain_solver(self):
        # second route: the shooting solver on M a = 2 - b, and a^T M a on the dense matrix (or on the
        # chain, where a dense matrix of the 9,999-component chain would be too large)
        from exact_linalg import QMatrix, chain_bilinear, chain_solve, quadratic_form

        rng = random.Random(17)
        # q = 2 for 9973 and q = 3 for 10000, where gcd(10000, 2) = 2 is refused
        large = [(n, q) for n in (9973, 10000)
                 for q in [*(q for q in (2, 3) if math.gcd(n, q) == 1), n - 1,
                           *rng.sample([q for q in range(3, n - 1) if math.gcd(n, q) == 1], 3)]]
        for n, q in [*all_types(60), *large]:
            b = hj_continued_fraction(n, q)
            chain = ExceptionalChain.from_selfints(b)
            assert chain.discrepancies == chain_solve(b, [2 - x for x in b]), (n, q)
            if n <= 60:
                k = len(b)
                m = QMatrix([[(-b[i] if i == j else int(abs(i - j) == 1)) for j in range(k)] for i in range(k)])
                assert chain.k2_correction() == quadratic_form(m, chain.discrepancies), (n, q)
            else:
                assert chain.k2_correction() == chain_bilinear(b, chain.discrepancies, chain.discrepancies), (n, q)


class TestChainSolve:
    def test_closed_form_agrees_with_shooting_and_the_dense_solver(self):
        # the Green's function of M against the oracle's integer shooting, and below 40 against Gaussian elimination
        from exact_linalg import QMatrix, chain_shoot, solve_linear

        rng = random.Random(23)
        for n, q in [*all_types(119), *SWEEP_997]:
            b = expand(n, q)
            r = [rng.randint(-5, 5) for _ in b]
            s, det = ExceptionalChain.from_selfints(b).solve(r)
            assert det == n and (s, det) == chain_shoot(b, r), (n, q, r)
            if n < 40:
                k = len(b)
                m = QMatrix([[(-b[i] if i == j else int(abs(i - j) == 1)) for j in range(k)] for i in range(k)])
                assert tuple(F(x, n) for x in s) == solve_linear(m, r), (n, q, r)

    def test_closed_form_solves_long_chains_in_integers(self):
        # M s = n r row by row, for chains up to 9,999 components long
        rng = random.Random(29)
        for n in (9973, 10000):
            for q in [n - 1, *(q for q in (2, 3) if math.gcd(n, q) == 1),
                      *rng.sample([q for q in range(3, n - 1) if math.gcd(n, q) == 1], 3)]:
                b = expand(n, q)
                r = [rng.randint(-5, 5) for _ in b]
                s, det = ExceptionalChain.from_selfints(b).solve(r)
                assert det == n, (n, q)
                padded = (0, *s, 0)
                assert all(padded[i] - x * padded[i + 1] + padded[i + 2] == n * y
                           for i, (x, y) in enumerate(zip(b, r))), (n, q)

    @pytest.mark.parametrize(("selfints", "rhs", "expected"), [
        ((5,), (1,), ([-1], 5)),  # k = 1: a single component, alpha = beta = (1,)
        ((3, 4), (1, 0), ([-4, -1], 11)),  # the order-11 chain: its M^-1 is [[-4, -1], [-1, -3]] / 11
        ((3, 4), (0, 1), ([-1, -3], 11)),
        ((2, 2, 2), (0, 1, 0), ([-2, -4, -2], 4)),
    ])
    def test_short_chains(self, selfints, rhs, expected):
        assert ExceptionalChain.from_selfints(selfints).solve(rhs) == expected


class TestK2Correction:
    def test_du_val_is_zero(self):
        assert CyclicSing(2, 1).chain().k2_correction() == 0

    def test_eleven_three(self):
        value = CyclicSing(11, 3).chain().k2_correction()
        assert value == F(-20, 11)
        # the order-11 quotient books: 45/11 + 5 * (-20/11) = -5
        assert F(45, 11) + 5 * value == -5

    def test_three_one(self):
        value = CyclicSing(3, 1).chain().k2_correction()
        assert value == F(-1, 3)
        # 27 such points: 15 + 27 * (-1/3) = 6
        assert 15 + 27 * value == 6

    def test_nonpositive_and_zero_iff_du_val(self):
        for n, q in all_types(120):
            sing = CyclicSing(n, q)
            value = sing.chain().k2_correction()
            assert value <= 0
            assert (value == 0) == sing.is_du_val == all(b == 2 for b in sing.chain().selfints)

    def test_agrees_with_generic_quadratic_form(self):
        # dual route: the collapsed sum against v^T M v on the dense matrix
        from exact_linalg import QMatrix, quadratic_form

        for n, q in all_types(40):
            selfints = hj_continued_fraction(n, q)
            k = len(selfints)
            m = QMatrix([[(-selfints[i] if i == j else (1 if abs(i - j) == 1 else 0))
                          for j in range(k)] for i in range(k)])
            chain = ExceptionalChain.from_selfints(selfints)
            assert chain.k2_correction() == quadratic_form(m, chain.discrepancies)

    def test_closed_form_below_300(self):
        # second route, no linear solve: K^2 correction = 2 - (2 + q + q')/n - sum (b_i - 2), q' = q^-1 mod n
        for n, q in [*all_types(299), *SWEEP_997]:
            chain = CyclicSing(n, q).chain()
            closed = 2 - F(2 + q + pow(q, -1, n), n) - sum(b - 2 for b in chain.selfints)
            assert chain.k2_correction() == closed, (n, q)
            scaled = [a * n for a in chain.discrepancies]
            assert all(s.denominator == 1 and 0 <= s < n for s in scaled), (n, q)

    def test_reversal_invariance(self):
        # computing on the reversed chain gives the same correction
        for n, q in all_types(80):
            chain = hj_continued_fraction(n, q)
            direct = ExceptionalChain.from_selfints(chain).k2_correction()
            reversed_ = ExceptionalChain.from_selfints(chain[::-1]).k2_correction()
            assert direct == reversed_
            # and the canonical form agrees with both orientations
            assert CyclicSing(n, q).chain().k2_correction() == direct


class TestCanonicalForm:
    def test_inverse_pairs_identified(self):
        assert CyclicSing(11, 4) == CyclicSing(11, 3)
        assert CyclicSing(11, 4).q == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CyclicSing(6, 2)
        with pytest.raises(ValueError):
            CyclicSing(1, 0)
        with pytest.raises(ValueError):
            CyclicSing(5, 5)

    def test_make_and_replace_pass_the_checks(self):
        # the NamedTuple machinery would build both with tuple.__new__, past the checks
        with pytest.raises(ValueError, match=r"^gcd\(n, q\) must be 1, got \(6, 4\)$"):
            CyclicSing._make((6, 4))
        replaced = CyclicSing(11, 3)._replace(q=4)
        assert replaced == CyclicSing(11, 4) and replaced.q == 3
        with pytest.raises(ValueError):
            CyclicSing(11, 3)._replace(q=11)

    def test_equal_types_hash_equal_and_sort_by_n_then_q(self):
        assert hash(CyclicSing(11, 4)) == hash(CyclicSing(11, 3))
        assert len({CyclicSing(11, 4), CyclicSing(11, 3), CyclicSing(11, 2)}) == 2
        assert sorted([CyclicSing(15, 4), CyclicSing(3, 2), CyclicSing(11, 6), CyclicSing(3, 1)]) == [
            CyclicSing(3, 1), CyclicSing(3, 2), CyclicSing(11, 2), CyclicSing(15, 4)]

    def test_display(self):
        assert CyclicSing(2, 1).display() == "A1"
        assert CyclicSing(4, 3).display() == "A3"
        assert CyclicSing(11, 3).display() == "A11,3"


class TestOnePassRoutes:
    def test_chain_is_its_fold_and_a_reversed_fold_lands_on_the_inverse(self):
        # from_selfints folds b back to (n, q) and resolves that pair; _resolve resolves (n, q) directly
        _resolve.cache_clear()
        for n, q in all_types(200):
            sing = CyclicSing(n, q)
            assert sing.chain() == ExceptionalChain.from_selfints(expand(n, sing.q)), (n, q)
            inverse = pow(q, -1, n)
            reversed_chain = ExceptionalChain.from_selfints(expand(n, q)[::-1])
            assert reversed_chain == _resolve(n, inverse), (n, q)
            assert reversed_chain.selfints == expand(n, inverse), (n, q)

    @pytest.mark.parametrize(("n", "q", "message"), [
        (5, 7, "q must satisfy 1 <= q < n, got q=7, n=5"),
        (5, 0, "q must satisfy 1 <= q < n, got q=0, n=5"),
        (5, -2, "q must satisfy 1 <= q < n, got q=-2, n=5"),
        (6, 2, "gcd(n, q) must be 1, got (6, 2)"),
    ], ids=["above-n", "zero", "negative", "not-coprime"])
    def test_continued_fraction_refuses_what_cyclic_sing_refuses(self, n, q, message):
        for build in (hj_continued_fraction, CyclicSing):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(n, q)

    @pytest.mark.parametrize("selfints", [(), (1,), (2, 1, 3)])
    def test_from_selfints_rejects_a_component_below_two(self, selfints):
        message = f"chain self-intersections must all be >= 2, got {selfints}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExceptionalChain.from_selfints(selfints)


class TestChainCache:
    def test_sweep_near_1000_stays_bounded_and_hits_every_inverse(self):
        # three primes near 1000 give about 1,490 distinct chains, more than the cache keeps
        _resolve.cache_clear()
        for n in (983, 991, 997):
            for q in range(1, n):
                first = min(q, pow(q, -1, n)) == q  # the canonical q of the pair comes first in the sweep
                hits = _resolve.cache_info().hits
                CyclicSing(n, q).chain()
                assert _resolve.cache_info().hits == hits + (not first), (n, q)
        assert _resolve.cache_info().currsize <= 1024

    def test_certificate_and_report_chains_are_one_cached_record(self):
        # from_selfints folds (4, 4) to (15, 4), the canonical pair of A_{15,4}: every read below is one cache entry
        _resolve.cache_clear()
        chain = ExceptionalChain.from_selfints((4, 4))
        assert chain is ExceptionalChain.from_selfints((4, 4)) is CyclicSing(15, 4).chain()
        assert hj_continued_fraction(15, 4) is CyclicSing(15, 4).chain().selfints
        assert _resolve.cache_info()[:2] == (4, 1)  # (hits, misses): one pass for the five reads


class TestDiscrepancyMemo:
    def test_sweep_near_1000_shares_equal_values_and_stays_bounded(self):
        _resolve.cache_clear()
        _discrepancy_memo.cache_clear()
        for n in (983, 991, 997):
            shared = {}
            for q in range(1, n):
                for a in CyclicSing(n, q).chain().discrepancies:
                    assert shared.setdefault(a, a) is a, (n, q, a)
            # a few per-n tables, each the n values s/n, 0 <= s < n, at index s
            assert _discrepancy_memo.cache_info().currsize <= _discrepancy_memo.cache_info().maxsize == 4
            assert _discrepancy_memo(n) == tuple(F(s, n) for s in range(n))
        assert len(shared) > 900  # most values n a_i in 0..996 occur, all of them shared

    def test_table_is_bounded_by_the_group_order(self):
        # n divides |G| <= MAX_GROUP_ORDER, so a larger n is refused before any table is built
        _discrepancy_memo.cache_clear()
        message = f"n must be at most {MAX_GROUP_ORDER}, got {MAX_GROUP_ORDER + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _discrepancy_memo(MAX_GROUP_ORDER + 1)
        with pytest.raises(ValueError, match=re.escape(f"n must be at most {MAX_GROUP_ORDER}, got {10**9 + 7}")):
            CyclicSing(10**9 + 7, 2).chain()
        assert _discrepancy_memo.cache_info().currsize == 0

    def test_even_n_table_holds_only_the_even_numerators(self):
        # for even n every n a_i is even, so s / n sits at index s >> 1 and the table is half as long
        assert len(_discrepancy_memo(512)) == 256
        assert len(_discrepancy_memo(511)) == 511
        assert _discrepancy_memo(512) == tuple(F(s, 512) for s in range(0, 512, 2))

    def test_du_val_zeros_are_one_object(self):
        chain = ExceptionalChain.from_selfints((2,) * 9999)
        assert chain.discrepancies == (0,) * 9999
        assert len({id(a) for a in chain.discrepancies}) == 1
