"""Exact rational matrices: determinants, flag minors, sign rule, embedding."""

import io
import json
import random
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import oracles
import flagpipes.decperm as decperm
import flagpipes.ratmat as ratmat
from flagpipes.exceptions import (
    DomainError,
    GuardExceededError,
    NotGeneralizedPermutationError,
    SizeMismatchError,
)
from flagpipes.ratmat import (
    RationalMatrix,
    check_sign_rule,
    det,
    embed_append,
    flag_minors,
    matrix_to_json,
    pivot_columns,
    rational_matrix,
)

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=9))


def square_matrices(max_size: int = 4):
    def build(size):
        return st.lists(
            st.lists(fractions_st, min_size=size, max_size=size),
            min_size=size, max_size=size,
        ).map(rational_matrix)
    return st.integers(min_value=1, max_value=max_size).flatmap(build)


class TestExactness:
    def test_floats_are_refused(self):
        with pytest.raises(DomainError):
            rational_matrix([[0.5]])
        with pytest.raises(DomainError):
            rational_matrix([[1, 2.0], [3, 4]])

    def test_module_source_has_no_float_literals(self):
        with open(ratmat.__file__) as handle:
            source = handle.read()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NUMBER:
                assert "." not in tok.string
                assert "e" not in tok.string.lower()

    def test_strings_and_ints_are_exact(self):
        A = rational_matrix([["1/3", 2], ["-5/7", "0"]])
        assert A.entry(1, 1) == Fraction(1, 3)
        assert A.entry(2, 1) == Fraction(-5, 7)
        assert all(isinstance(x, Fraction) for row in A.rows for x in row)

    @pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3", "1e999999999",
                                      "1E5", "2.5e-3", "-1e0"])
    def test_unreadable_strings_are_domain_errors(self, text):
        with pytest.raises(DomainError, match="exact rational"):
            rational_matrix([[text]])

    @pytest.mark.parametrize("entry", [True, False])
    def test_booleans_are_refused(self, entry):
        with pytest.raises(DomainError, match="exact rational"):
            rational_matrix([[1, entry]])


class TestConstruction:
    def test_shape_and_labels(self):
        A = rational_matrix([[1, 2, 3], [4, 5, 6]])
        assert (A.k, A.n) == (2, 3)
        assert A.column_labels == (1, 2, 3)
        B = RationalMatrix(rational_matrix([[1, 2, 3]]).rows,
                           offset_zero=True)
        assert B.column_labels == (0, 1, 2)
        assert B.entry(1, 0) == 1

    @pytest.mark.parametrize("rows", [["12", "34"], "12", [[1, 2], "34"]])
    def test_strings_are_not_rows(self, rows):
        """A string row would read its characters as entries."""
        with pytest.raises(DomainError, match="is the string"):
            rational_matrix(rows)

    @pytest.mark.parametrize("rows, message", [
        ([b"12"], "row 1 is b'12', not a list of entries"),
        ([[1, 2], bytearray(b"12")], "row 2 is bytearray"),
        ([{5, 1, 3}], "row 1 is {1, 3, 5}, not a list of entries"),
        ([[1, 2], {1: 2, 3: 4}], "row 2 is {1: 2, 3: 4}"),
        ([[1, 2], 7], "row 2 is 7, not a list of entries"),
        (b"\x01", "the matrix is b'\\x01', not a list of rows"),
        (5, "the matrix is 5, not a list of rows"),
        ({(1, 2), (3, 4)}, "not a list of rows"),
        ({1: [1, 2]}, "not a list of rows"),
    ], ids=["bytes-row", "bytearray-row", "set-row", "dict-row", "int-row",
            "bytes", "int", "set", "dict"])
    def test_unordered_and_byte_containers_are_refused(self, rows, message):
        """Bytes would read as code points, a set in hash order and a dict
        as its keys: the matrix and each row must be a list or a tuple."""
        with pytest.raises(DomainError, match=re.escape(message)):
            rational_matrix(rows)

    def test_fast_build_equals_the_validated_matrix(self):
        """rational_matrix and embed_append build without a second
        validation; each result equals, hashes, prints and clears
        denominators like ``RationalMatrix`` of the same entries, on random
        int, Fraction and string matrices."""
        rng = random.Random("ratmat/trusted")
        entries = (lambda: rng.randint(-9, 9),
                   lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")
        for t in range(150):
            k, n = rng.randint(1, 5), rng.randint(1, 7)
            rows = [[entries[t % 3]() for _ in range(n)] for _ in range(k)]
            A = rational_matrix(rows)
            exact = tuple(tuple(Fraction(x) for x in row) for row in rows)
            B = embed_append(A)
            sign = Fraction((-1) ** (k - 1))
            pairs = [(A, RationalMatrix(exact)),
                     (B, RationalMatrix(
                         tuple((Fraction(0),) + row for row in exact[:-1])
                         + ((sign,) + exact[-1],), offset_zero=True))]
            for got, want in pairs:
                assert got == want
                assert hash(got) == hash(want)
                assert repr(got) == repr(want)
                assert got._ints == want._ints
                assert got._scales == want._scales

    @pytest.mark.parametrize("i", [0, -1, 3, True])
    def test_rows_outside_one_to_k_are_refused(self, i):
        A = rational_matrix([[1, 2, 3], [4, 5, 6]])
        message = rf"no row {i!r}: rows are 1\.\.2"
        with pytest.raises(DomainError, match=message):
            A.entry(i, 1)
        with pytest.raises(DomainError, match=message):
            A.submatrix(i, [1, 2])

    @pytest.mark.parametrize("label", [True, False, 1.0, "1"])
    def test_column_labels_must_be_ints(self, label):
        """A boolean (or any label that is not an int) names no column,
        though True == 1 and False == 0."""
        A = rational_matrix([[1, 2], [3, 4]])
        with pytest.raises(DomainError, match=f"no column labeled {label!r}"):
            A.entry(1, label)
        with pytest.raises(DomainError, match=f"no column labeled {label!r}"):
            A.submatrix(2, [label, 2])
        B = RationalMatrix(A.rows, offset_zero=True)
        with pytest.raises(DomainError, match=f"no column labeled {label!r}"):
            B.entry(1, label)

    def test_submatrix_needs_a_column(self):
        with pytest.raises(DomainError, match="dimensions must be positive"):
            rational_matrix([[1, 2]]).submatrix(1, [])

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            rational_matrix([[1, 2], [3]])

    def test_submatrix(self):
        A = rational_matrix([[1, 2, 3], [4, 5, 6]])
        S = A.submatrix(1, (1, 3))
        assert S.rows == ((Fraction(1), Fraction(3)),)
        assert not S.offset_zero

    def test_submatrix_equals_the_validated_matrix(self):
        """submatrix skips validation and slices the integer rows; it still
        equals, hashes and prints like the matrix built from its entries,
        and its determinant divides by the full rows' scales to the same
        value."""
        A = rational_matrix([["1/2", "-3/4", 5], ["2/3", 0, "-7/6"],
                             [1, "5/9", -3]])
        for B in (A, embed_append(A)):
            for r in range(1, B.k + 1):
                for size in range(1, B.n + 1):
                    for labels in combinations(B.column_labels, size):
                        S = B.submatrix(r, labels)
                        R = rational_matrix([[B.entry(i, c) for c in labels]
                                             for i in range(1, r + 1)])
                        assert S == R
                        assert hash(S) == hash(R)
                        assert repr(S) == repr(R)
                        if r == size:
                            assert det(S) == det(R)

    def test_integer_rows_stay_out_of_repr_and_json(self):
        import flagpipes.serialize as ser

        A = rational_matrix([["1/2", 3], [0, "-2/3"]])
        assert repr(A) == (
            "RationalMatrix(rows=((Fraction(1, 2), Fraction(3, 1)), "
            "(Fraction(0, 1), Fraction(-2, 3))), offset_zero=False)")
        assert repr(A.submatrix(1, (2,))) == (
            "RationalMatrix(rows=((Fraction(3, 1),),), offset_zero=False)")
        assert ser.to_json(A) == [["1/2", "3"], ["0", "-2/3"]]

    def test_json_roundtrip(self):
        A = rational_matrix([["1/2", -1], [3, "7/5"]])
        data = matrix_to_json(A)
        assert data == [["1/2", "-1"], ["3", "7/5"]]
        assert rational_matrix(data) == A


class TestDeterminant:
    def test_goldens(self):
        assert det(rational_matrix([[1, 2], [3, 4]])) == -2
        assert det(rational_matrix([["1/2", 0], [0, "1/3"]])) == Fraction(1, 6)
        assert det(rational_matrix([[1, 2], [2, 4]])) == 0

    def test_needs_square(self):
        with pytest.raises(SizeMismatchError):
            det(rational_matrix([[1, 2, 3], [4, 5, 6]]))

    @pytest.mark.parametrize("size", [1, 2])
    def test_small_sizes_match_cofactor_expansion(self, size):
        """Sizes 1 and 2 skip elimination: every matrix over a few entries,
        alone and as the leading block of a wider matrix whose rows carry
        one more denominator."""
        values = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
                  Fraction(1)]
        for entries in product(values, repeat=size * size):
            rows = [list(entries[i * size:(i + 1) * size])
                    for i in range(size)]
            want = oracles.laplace_det(rows)
            assert det(rational_matrix(rows)) == want
            wide = rational_matrix([row + [Fraction(1, 7)] for row in rows])
            assert det(wide.submatrix(size, range(1, size + 1))) == want

    @given(square_matrices())
    def test_matches_cofactor_expansion(self, A):
        assert det(A) == oracles.laplace_det([list(r) for r in A.rows])

    @given(square_matrices(max_size=3))
    def test_transpose_invariance(self, A):
        T = rational_matrix([list(col) for col in zip(*A.rows)])
        assert det(A) == det(T)


class TestFlagMinors:
    def test_all_against_cofactor_oracle(self, golden_matrix):
        raw = [list(r) for r in golden_matrix.rows]
        mm = flag_minors(golden_matrix, (3, 4))
        assert len(mm) == 35 + 35
        for (r, S), value in mm.items():
            assert value == oracles.minor_of(raw, r, S)

    def test_golden_matrix_is_nonnegative(self, golden_matrix):
        mm = flag_minors(golden_matrix, (3, 4))
        assert all(v >= 0 for v in mm.values())
        positive = {r: sum(1 for (rr, _), v in mm.items() if rr == r and v > 0)
                    for r in (3, 4)}
        assert positive == {3: 14, 4: 14}

    def test_rank_validation(self, golden_matrix):
        with pytest.raises(DomainError):
            flag_minors(golden_matrix, (4, 3))
        with pytest.raises(DomainError):
            flag_minors(golden_matrix, (5,))

    def test_column_guard(self):
        wide = rational_matrix([[1] * 13])
        with pytest.raises(GuardExceededError):
            flag_minors(wide, (1,))

    def test_ranks_below_one_rejected(self, golden_matrix):
        for ranks in ((0, 2), (-1, 2)):
            with pytest.raises(DomainError):
                flag_minors(golden_matrix, ranks)

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 3), (2, 4)])
    def test_every_small_sign_matrix_matches_determinants(self, k, n):
        ranks = tuple(range(1, k + 1))
        for entries in product((-1, 0, 1), repeat=k * n):
            A = rational_matrix([entries[i * n:(i + 1) * n] for i in range(k)])
            got = list(flag_minors(A, ranks).items())
            assert got == list(oracles.flag_minors_by_det(A, ranks).items())
            assert got == list(
                oracles.flag_minors_by_slicing(A, ranks).items())

    def test_random_fractions_match_determinants(self):
        rng = random.Random(20)
        for _ in range(120):
            k = rng.randint(1, 5)
            n = rng.randint(k, 9)
            A = rational_matrix(
                [[Fraction(rng.choice((0, rng.randint(-9, 9))), rng.randint(1, 6))
                  for _ in range(n)] for _ in range(k)])
            if k >= 2:
                A = rng.choice((A, embed_append(A)))
            ranks = tuple(sorted(rng.sample(range(1, k + 1),
                                            rng.randint(0, k))))
            got = flag_minors(A, ranks)
            want = oracles.flag_minors_by_det(A, ranks)
            assert list(got.items()) == list(want.items())

    def test_no_ranks_gives_no_minors(self, golden_matrix):
        assert flag_minors(golden_matrix, ()) == {}

    @pytest.mark.parametrize("rank", [1.0, True, "1"])
    def test_ranks_must_be_ints(self, golden_matrix, rank):
        with pytest.raises(DomainError, match="integers"):
            flag_minors(golden_matrix, (rank,))
        with pytest.raises(DomainError, match="integers"):
            flag_minors(golden_matrix, (1, 2, rank))

    def test_laplace_tables_are_bounded(self):
        """The per-size tables of the flag-minor and text routes are
        bounded caches."""
        for cached in (ratmat._laplace_table, decperm._tokens):
            maxsize = cached.cache_info().maxsize
            assert isinstance(maxsize, int) and maxsize > 0

    def test_optimized_mode_gives_the_same_minors(self):
        """The minors, their keys and their order do not depend on
        ``assert`` statements: ``python -O`` prints the same."""
        script = (
            "import random\n"
            "from fractions import Fraction\n"
            "import flagpipes.ratmat as rm\n"
            "rng = random.Random(7)\n"
            "for k, n in ((1, 1), (3, 8), (5, 12), (4, 6)):\n"
            "    A = rm.rational_matrix(\n"
            "        [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))\n"
            "          for _ in range(n)] for _ in range(k)])\n"
            "    print(list(rm.flag_minors(A, range(1, k + 1)).items()))\n"
            "    if k > 1 and n < 12:\n"
            "        B = rm.embed_append(A)\n"
            "        print(list(rm.flag_minors(B, (k,)).items()))\n")
        plain, optimized = (
            subprocess.run([sys.executable, *flags, "-c", script],
                           capture_output=True, text=True)
            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout
        assert plain.stdout.count("\n") == 6

    def test_matches_the_slicing_route_up_to_the_guard(self):
        """The index-table expansion against the slicing expansion it
        replaced, item for item and in order: shapes up to 5 x 12 (the
        minors_max_n guard), columns labeled from 1 or 0, embedded
        matrices, sparse rank sets and no ranks."""
        rng = random.Random("flag-minors/slicing")
        ks = [rng.randint(1, 5) for _ in range(80)]
        for k, n in [(5, 12)] + [(k, rng.randint(k, 12)) for k in ks]:
            rows = [[Fraction(rng.choice((0, rng.randint(-9, 9))),
                              rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(k)]
            inputs = [rational_matrix(rows),
                      RationalMatrix(rational_matrix(rows).rows,
                                     offset_zero=True)]
            if 2 <= k and n < 12:
                inputs.append(embed_append(rational_matrix(rows)))
            for A in inputs:
                for ranks in (range(1, k + 1), (), tuple(sorted(
                        rng.sample(range(1, k + 1), rng.randint(1, k))))):
                    got = flag_minors(A, ranks)
                    want = oracles.flag_minors_by_slicing(A, ranks)
                    assert list(got.items()) == list(want.items())


class TestPivotData:
    def test_golden_profile(self, golden_matrix):
        assert pivot_columns(golden_matrix) == (5, 3, 1, 6)
        assert oracles.pivot_signs(golden_matrix) == (1, -1, 1, 1)
        assert oracles.nep_values(golden_matrix) == (0, 1, 2, 0)

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError):
            pivot_columns(rational_matrix([[1, 0], [0, 0]]))


class TestSignRule:
    def test_goldens(self):
        assert check_sign_rule(rational_matrix([[1, 0], [0, 1]]))
        assert not check_sign_rule(rational_matrix([[0, 1], [1, 0]]))
        assert check_sign_rule(rational_matrix([[0, 1], [-1, 0]]))

    def test_alternating_antidiagonal(self):
        # entries (-1)^(northeast count) down the antidiagonal always pass
        n = 4
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][n - 1 - i] = Fraction((-1) ** i)
        assert check_sign_rule(rational_matrix(rows))

    def test_requires_generalized_permutation(self):
        with pytest.raises(NotGeneralizedPermutationError):
            check_sign_rule(rational_matrix([[1, 1], [0, 1]]))
        with pytest.raises(NotGeneralizedPermutationError):
            check_sign_rule(rational_matrix([[1, 0], [1, 0]]))

    def test_column_error_names_the_column(self):
        with pytest.raises(NotGeneralizedPermutationError,
                           match="^column 2 needs exactly one nonzero$"):
            check_sign_rule(rational_matrix([[1, 0, 0], [0, 0, 1]]))
        with pytest.raises(NotGeneralizedPermutationError,
                           match="^column 1 needs exactly one nonzero$"):
            check_sign_rule(rational_matrix([[0, 1], [0, -1]]))

    def test_rule_equals_minor_route_small(self):
        from flagpipes.perm import all_permutations
        for k in (1, 2, 3):
            for perm in all_permutations(k):
                for signs in product((1, -1), repeat=k):
                    rows = [[Fraction(0)] * k for _ in range(k)]
                    for i in range(k):
                        rows[i][perm[i] - 1] = Fraction(signs[i])
                    A = rational_matrix(rows)
                    minors = all(
                        oracles.minor_of(rows, i, sorted(perm[:i])) >= 0
                        for i in range(1, k + 1))
                    assert check_sign_rule(A) == minors

    def test_optimized_mode_gives_the_same_verdicts(self):
        script = (
            "import json\n"
            "from itertools import product\n"
            "import flagpipes.ratmat as rm\n"
            "from flagpipes.perm import all_permutations\n"
            "verdicts = []\n"
            "for k in (1, 2, 3, 4, 5):\n"
            "    for perm in all_permutations(k):\n"
            "        for signs in product((1, -1), repeat=k):\n"
            "            rows = [[0] * k for _ in range(k)]\n"
            "            for i in range(k):\n"
            "                rows[i][perm[i] - 1] = signs[i]\n"
            "            verdicts.append(rm.check_sign_rule(rm.rational_matrix(rows)))\n"
            "print(json.dumps(verdicts))\n")
        plain, optimized = (
            subprocess.run([sys.executable, *flags, "-c", script],
                           capture_output=True, text=True)
            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout
        verdicts = json.loads(optimized.stdout)
        assert len(verdicts) == 2 + 8 + 48 + 384 + 3840


class TestEmbedding:
    def test_matrix_labeled_from_zero_is_refused(self, golden_matrix):
        """Shifting labels that start at 0 would move A's minor on (0, 1)
        to (1, 2); such a matrix, an embedded one among them, is refused."""
        B = embed_append(golden_matrix)
        for A in (B, RationalMatrix(golden_matrix.rows, offset_zero=True)):
            with pytest.raises(DomainError, match="labeled from 0"):
                embed_append(A)

    def test_new_column_and_labels(self, golden_matrix):
        B = embed_append(golden_matrix)
        assert B.offset_zero
        assert B.column_labels == tuple(range(0, 8))
        col = tuple(B.entry(i, 0) for i in range(1, 5))
        assert col == (0, 0, 0, -1)  # (-1)^3 with three rows above

    def test_minor_identity_golden(self, golden_matrix):
        A = golden_matrix
        B = embed_append(A)
        for S in combinations(B.column_labels, 4):
            got = det(B.submatrix(4, S))
            if 0 in S:
                want = det(A.submatrix(3, [c for c in S if c != 0]))
            else:
                want = det(A.submatrix(4, S))
            assert got == want

    @given(st.integers(min_value=0, max_value=10_000))
    def test_minor_identity_random(self, seed):
        import random
        rng = random.Random(seed)
        rows = rng.randint(2, 3)
        cols = rng.randint(rows, 5)
        A = rational_matrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(cols)] for _ in range(rows)])
        B = embed_append(A)
        for (r, S), v in flag_minors(B, (rows,)).items():
            if 0 in S:
                assert v == det(A.submatrix(rows - 1, [c for c in S if c != 0]))
            else:
                assert v == det(A.submatrix(rows, S))


class TestMatrixMatroid:
    def test_golden_rank_three(self, golden_matrix):
        B = oracles.matroid_of_matrix(golden_matrix, 3)
        assert B.bases[0] == (1, 3, 5)
        raw = [list(r) for r in golden_matrix.rows]
        expect = tuple(S for S in combinations(range(1, 8), 3)
                       if oracles.minor_of(raw, 3, S) != 0)
        assert B.bases == expect

    def test_random_matrices_match_nonzero_determinants(self):
        rng = random.Random(21)
        for _ in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(k, 7)
            A = rational_matrix([[rng.choice((0, 0, 1, -1, "1/2"))
                                  for _ in range(n)] for _ in range(k)])
            if k >= 2 and rng.random() < 0.5:
                A = embed_append(A)
            r = rng.randint(1, A.k)
            want = tuple(S for S in combinations(A.column_labels, r)
                         if det(A.submatrix(r, S)) != 0)
            if not want:
                with pytest.raises(oracles.RankDeficientError):
                    oracles.matroid_of_matrix(A, r)
                continue
            B = oracles.matroid_of_matrix(A, r)
            assert B.bases == want
            assert B.offset_zero == A.offset_zero

    def test_rank_deficient(self):
        with pytest.raises(oracles.RankDeficientError):
            oracles.matroid_of_matrix(rational_matrix([[1, 1], [1, 1]]), 2)

    def test_rank_out_of_range(self, golden_matrix):
        with pytest.raises(DomainError):
            oracles.matroid_of_matrix(golden_matrix, 5)

    def test_offset_ground_set(self, golden_matrix):
        B = oracles.matroid_of_matrix(embed_append(golden_matrix), 4)
        assert B.offset_zero
        assert B.bases[0] == (0, 1, 3, 5)


class TestShapePredicates:
    def test_lower_reduced(self):
        assert oracles.is_lower_reduced(rational_matrix([[0, 1], [1, 0]]))
        assert not oracles.is_lower_reduced(rational_matrix([[1, 0], [1, 1]]))

    def test_reverse_echelon_blocks(self):
        A = rational_matrix([[0, 1], [1, 1]])
        assert oracles.is_reverse_echelon(A)
        assert oracles.is_reverse_echelon(A, ranks=(1, 2))
        B = rational_matrix([[1, 0], [0, 1]])
        assert not oracles.is_reverse_echelon(B)  # pivots rise in one block
        assert oracles.is_reverse_echelon(B, ranks=(1, 2))
        with pytest.raises(DomainError):
            oracles.is_reverse_echelon(A, ranks=(1,))

    def test_complete_representation_golden(self, golden_matrix):
        assert oracles.is_complete_nonneg_representation(
            golden_matrix, ranks=(3, 4))

    def test_repeated_pivot_column_rejected(self, golden_matrix):
        # a stray entry under another row's pivot makes two rows share a
        # pivot column, which the lower-reduced clause rejects
        rows = [list(r) for r in golden_matrix.rows]
        rows[3][4] = Fraction(-1)
        variant = rational_matrix(rows)
        assert pivot_columns(variant) == (5, 3, 1, 5)
        assert not oracles.is_lower_reduced(variant)
        assert not oracles.is_complete_nonneg_representation(
            variant, ranks=(3, 4))

    def test_shape_check_ignores_off_pivot_entries(self, golden_matrix):
        # perturbing a free entry keeps the shape verdict, though the
        # minors themselves can go negative
        rows = [list(r) for r in golden_matrix.rows]
        rows[2][1] = Fraction(-1)
        variant = rational_matrix(rows)
        assert oracles.is_complete_nonneg_representation(
            variant, ranks=(3, 4))
        mm = flag_minors(variant, (3, 4))
        assert any(v < 0 for v in mm.values())

    def test_zero_row_is_not_complete(self):
        A = rational_matrix([[1, 0], [0, 0]])
        assert not oracles.is_complete_nonneg_representation(A)
