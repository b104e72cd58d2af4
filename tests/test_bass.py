import pytest

from qisog import bass
from qisog import ideals as idl
from qisog import numth
from qisog.errors import PreconditionError
from qisog.quat import QuatAlgebra


def bass_for(p):
    return bass.bass_order(QuatAlgebra.for_prime(p))


class TestBassOrder:
    def test_p7_is_maximal(self):
        O = bass_for(7)
        assert O.reduced_discriminant == 7 and O.is_maximal

    def test_p13_discrd_8p(self):
        O = bass_for(13)
        assert O.reduced_discriminant == 104 and not O.is_maximal

    def test_p17_discrd_pq(self):
        O = bass_for(17)
        assert O.reduced_discriminant == 51

    def test_discriminant_formula(self):
        for p in (7, 13, 17, 23, 29, 41):
            alg = QuatAlgebra.for_prime(p)
            dKi = numth.fundamental_discriminant(alg.d_i)
            dKj = numth.fundamental_discriminant(alg.d_j)
            assert bass.bass_order(alg).reduced_discriminant == dKi * dKj // 4

    def test_rejects_two_odd_discriminants(self):
        with pytest.raises(PreconditionError):
            bass.bass_order(QuatAlgebra(p=5, d_i=-3, d_j=-7))


class TestEichlerSymbol:
    def test_p13_ell2_ramified(self):
        O = bass_for(13)
        assert bass.eichler_symbol(O, 2, bass._contained_dK(O)).value == 0

    def test_p17_ell3_split_case(self):
        O = bass_for(17)
        assert bass.eichler_symbol(O, 3, bass._contained_dK(O)).value == 1

    def test_ell_equals_p(self):
        for p in (13, 17):
            O = bass_for(p)
            assert bass.eichler_symbol(O, p, bass._contained_dK(O)).value == -1

    def test_formula_vs_radical_all_cases(self):
        for p in (7, 13, 17, 29, 41):
            O = bass_for(p)
            dK = bass._contained_dK(O)
            for ell in numth.factorize(O.reduced_discriminant):
                formula = bass.eichler_symbol_formula(O, ell, dK)
                oracle = bass.eichler_symbol_radical(O, ell)
                assert formula == oracle, (p, ell)

    def test_undefined_away_from_discriminant(self):
        O = bass_for(13)
        with pytest.raises(PreconditionError):
            bass.eichler_symbol_formula(O, 3, bass._contained_dK(O))

    def test_radical_oracle_standalone(self):
        # mid-walk orders without a known quadratic maximal order still work
        O = bass_for(29)
        assert bass.eichler_symbol(O, 2).value == 0


class TestEmbeddingNumbers:
    @pytest.mark.parametrize("p,e2,e", [(7, 1, 1), (13, 2, 2)])
    def test_examples(self, p, e2, e):
        O = bass_for(p)
        assert bass.local_embedding_number(O, 2) == e2
        assert bass.global_embedding_number(O) == e

    def test_p17(self):
        O = bass_for(17)
        assert bass.local_embedding_number(O, 3) == 2
        assert bass.local_embedding_number(O, 17) == 1
        assert bass.global_embedding_number(O) == 2

    def test_always_one_or_two(self):
        for p in (7, 13, 17, 23, 29, 41):
            O = bass_for(p)
            for ell in (2, 3, 5, 7, p):
                assert bass.local_embedding_number(O, ell) in (1, 2)


class TestSuperorderOracle:
    @pytest.mark.parametrize("p", [7, 13, 17, 23, 29, 41, 73, 193])
    def test_count_matches_formula(self, p):
        O = bass_for(p)
        supers = bass.enumerate_maximal_superorders(O)
        assert len(supers) == bass.global_embedding_number(O)
        for S in supers:
            assert S.reduced_discriminant == O.algebra.p
            assert S.contains_order(O)

    def test_matches_explicit_root_orders(self):
        for p in (13, 17):
            got = {S.key() for S in bass.enumerate_maximal_superorders(bass_for(p))}
            want = {o.key() for o in idl.root_maximal_orders(p)}
            assert got == want

    def test_p7_superorder_is_itself(self):
        O = bass_for(7)
        supers = bass.enumerate_maximal_superorders(O)
        assert len(supers) == 1 and supers[0].key() == O.key()
