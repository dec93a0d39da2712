import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench.data_ingest import (
    Dataset,
    ParseError,
    SparseRow,
    _parse_checked,
    _parse_rows,
    bundled_dataset_path,
    estimate_L,
    parse_libsvm,
    serialize_libsvm,
    spectral_norm_sq,
    subsample,
    synthesize_logistic_dataset,
)


class TestParse:
    def test_single_row(self):
        ds = parse_libsvm("+1 3:1 7:0.5")
        assert ds.n == 1 and ds.dim == 7
        assert ds.labels[0] == 1
        assert list(ds.rows[0].indices) == [3, 7]
        assert list(ds.rows[0].values) == [1.0, 0.5]

    def test_two_rows(self):
        ds = parse_libsvm("-1 1:2\n+1 2:1")
        assert ds.n == 2 and ds.dim == 2
        assert list(ds.labels) == [-1, 1]

    def test_label_aliases(self):
        ds = parse_libsvm("1 1:1\n0 1:1\n-1 1:1\n+1 1:1")
        assert list(ds.labels) == [1, -1, -1, 1]

    def test_blank_lines_and_comments_skipped(self):
        ds = parse_libsvm("# header\n\n+1 1:1\n   \n# trailing\n-1 1:2\n")
        assert ds.n == 2

    def test_empty_feature_row(self):
        ds = parse_libsvm("+1\n-1 2:1")
        assert ds.rows[0].indices.size == 0 and ds.dim == 2

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 3:1 2:1")
        with pytest.raises(ParseError, match="increasing"):
            parse_libsvm("+1 3:1 3:2")

    def test_bad_label_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n2 1:1")

    def test_malformed_tokens_rejected(self):
        for bad in ("+1 1", "+1 a:1", "+1 1:x", "+1 0:1", "+1 1:inf"):
            with pytest.raises(ParseError):
                parse_libsvm(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("# nothing\n\n")

    def test_round_trip_identity(self):
        text = "+1 1:0.25 5:-3.5\n-1 2:1.0 3:0.1\n+1 4:7.0\n"
        ds = parse_libsvm(text)
        assert parse_libsvm(serialize_libsvm(ds)) == ds

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        rows, labels = [], []
        for _ in range(50):
            k = int(rng.integers(0, 6))
            idx = np.sort(rng.choice(30, size=k, replace=False)) + 1
            rows.append(SparseRow(idx, rng.normal(size=k)))
            labels.append(int(rng.choice([-1, 1])))
        ds = Dataset(tuple(rows), np.array(labels), 30)
        assert parse_libsvm(serialize_libsvm(ds)) == ds

    def test_bundled_file_parses(self):
        ds = parse_libsvm(bundled_dataset_path().read_text())
        assert ds.n == 500 and ds.dim == 60
        assert parse_libsvm(serialize_libsvm(ds)) == ds
        assert ds == synthesize_logistic_dataset()


def assert_same_dataset(got, expected):
    """Bit-for-bit equality, dtypes and shapes included."""
    assert got.dim == expected.dim and got.n == expected.n
    assert got.labels.dtype == expected.labels.dtype == np.int64
    assert got.labels.tobytes() == expected.labels.tobytes()
    for a, b in zip(got.rows, expected.rows):
        assert a.indices.dtype == b.indices.dtype == np.int64
        assert a.values.dtype == b.values.dtype == np.float64
        assert a.indices.shape == b.indices.shape
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


def random_dataset(n, dim, seed):
    """Rows of 0..12 features with values over many magnitudes and signs."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        k = int(rng.integers(0, 13))
        idx = np.sort(rng.choice(dim, size=k, replace=False)) + 1
        rows.append(SparseRow(idx, rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8, size=k)))
    return Dataset(tuple(rows), rng.choice([-1, 1], size=n), dim)


class TestVectorizedParse:
    """The array parse against the per-token reference ``_parse_checked``."""

    def test_bundled_file_matches_per_token_reference(self):
        lines = bundled_dataset_path().read_text().splitlines()
        assert_same_dataset(parse_libsvm(lines), _parse_checked(lines))

    def test_well_formed_files_take_the_array_path(self):
        # the per-token pass is only the error path
        texts = [bundled_dataset_path().read_text(), "+1\n-1 3:2 4:1\n+1\n-1\n",
                 serialize_libsvm(random_dataset(500, 80, seed=2))]
        for text in texts:
            lines = text.splitlines()
            ds = _parse_rows(lines)
            assert ds is not None
            assert_same_dataset(ds, _parse_checked(lines))

    def test_synthesized_2000_rows_match_per_token_reference(self):
        for ds in (synthesize_logistic_dataset(n=2000, dim=200, seed=3),
                   random_dataset(2000, 300, seed=5)):
            text = serialize_libsvm(ds)
            parsed = parse_libsvm(text)
            assert_same_dataset(parsed, _parse_checked(text.splitlines()))
            assert parsed == ds

    @pytest.mark.parametrize("text", [
        "+1 1:1\t2:2\n-1\t3:0.5",          # tabs
        "+1 1:1\r\n-1 2:2\r\n",           # CRLF
        "+1 1:1   \n-1 2:2\t \n",          # trailing blanks
        "  +1 1:1\n",                      # leading blanks
        "+1\n-1 2:1\n0\n",                 # label-only rows
        "0 1:1\n1 2:2\n",                  # labels 0 and 1
        "+1 +3:1",                          # signed index
        "+1 1_0:1 2_0:1_5",                 # underscores
        "+1 \u0663:2",                      # a Unicode digit
        "+1 1:.5 2:1e-3 3:5. 4:-0 5:+2 6:1E+2",
        "+1 007:1 8:4.9e-324 9:1e-400 10:-1e308",
        "# c\n\n+1 2:1\n#+1 x\n-1 1:1 3:1\n",
    ])
    def test_odd_valid_inputs_match_per_token_reference(self, text):
        assert_same_dataset(parse_libsvm(text), _parse_checked(text.splitlines()))

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r", "\n"])
    def test_whitespace_inside_a_given_line_matches_reference(self, sep):
        # a line handed over in a list may hold any whitespace str.split splits on
        lines = [f"+1 1:1{sep}2:2", "-1 3:1"]
        ds = parse_libsvm(lines)
        assert_same_dataset(ds, _parse_checked(lines))
        assert list(ds.rows[0].indices) == [1, 2]

    def test_odd_tokens_give_their_values(self):
        ds = parse_libsvm("+1 +3:1_0 1_1:.5\n0 \u0663\u0664:1e-3")
        assert list(ds.rows[0].indices) == [3, 11] and list(ds.rows[0].values) == [10.0, 0.5]
        assert list(ds.rows[1].indices) == [34] and list(ds.rows[1].values) == [1e-3]
        assert list(ds.labels) == [1, -1] and ds.dim == 34

    def test_iterable_of_lines_with_newlines(self):
        ds = parse_libsvm(iter(["+1 1:1\n", "\n", "-1 2:2\n"]))
        assert ds.n == 2 and ds.dim == 2

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1\n2 1:1", "line 2: unmappable label '2' (expected +1/1/-1/0)"),
        ("+0 1:1", "line 1: unmappable label '+0' (expected +1/1/-1/0)"),
        ("+1 1", "line 1: malformed feature token '1'"),
        ("+1 1:2 3", "line 1: malformed feature token '3'"),
        ("+1 1:", "line 1: malformed feature token '1:'"),
        ("+1 :1", "line 1: malformed feature token ':1'"),
        ("+1 1:2:3", "line 1: malformed feature token '1:2:3'"),
        ("+1 1 2:3:4", "line 1: malformed feature token '1'"),
        ("+1 a:1", "line 1: malformed feature token 'a:1'"),
        ("+1 1:x", "line 1: malformed feature token '1:x'"),
        ("+1 3.0:1", "line 1: malformed feature token '3.0:1'"),
        ("+1 0:1", "line 1: feature index must be >= 1, got 0"),
        ("+1 -2:1", "line 1: feature index must be >= 1, got -2"),
        ("+1 3:1 2:1", "line 1: feature indices not strictly increasing (2 after 3)"),
        ("+1 3:1 3:2", "line 1: feature indices not strictly increasing (3 after 3)"),
        ("+1 1:inf", "line 1: non-finite feature value in '1:inf'"),
        ("+1 1:nan", "line 1: non-finite feature value in '1:nan'"),
        ("+1 1:1e400", "line 1: non-finite feature value in '1:1e400'"),
        ("# only a comment\n\n", "line 0: no data rows found"),
        ("", "line 0: no data rows found"),
        ("+1 1:0.5 99999999999999999999999:1.0",
         "line 1: feature index must be < 2**63, got 99999999999999999999999"),
        ("+1 9223372036854775808:1",
         "line 1: feature index must be < 2**63, got 9223372036854775808"),
        # the first bad line is named, after blank and comment lines
        ("# h\n+1 1:1\n\n-1 2:1 2:1\n+1 0:1", "line 4: feature indices not strictly increasing (2 after 2)"),
        ("+1 5:1\n-1 1:1\n+1 1:nan\n+1 x", "line 3: non-finite feature value in '1:nan'"),
    ])
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(text)
        assert str(exc.value) == message

    def test_parsed_rows_pass_their_own_checks(self):
        ds = parse_libsvm(serialize_libsvm(random_dataset(200, 40, seed=8)))
        for row in ds.rows:
            assert SparseRow(row.indices, row.values) == row
        assert Dataset(ds.rows, ds.labels, ds.dim) == ds


class TestToDense:
    @staticmethod
    def row_loop(ds):
        A = np.zeros((ds.n, ds.dim))
        for i, row in enumerate(ds.rows):
            A[i, row.indices - 1] = row.values
        return A

    @pytest.mark.parametrize("make", [
        lambda: parse_libsvm("+1\n-1"),
        lambda: parse_libsvm("+1\n-1 3:2\n+1\n"),
        lambda: parse_libsvm("-1 1:-0.0 2:5e-324\n+1"),
        lambda: random_dataset(300, 50, seed=11),
        synthesize_logistic_dataset,
    ], ids=["no_features", "empty_rows", "signed_zero_subnormal", "random", "bundled_recipe"])
    def test_bit_equal_to_row_loop(self, make):
        ds = make()
        A = ds.to_dense()
        assert A.shape == (ds.n, ds.dim) and A.dtype == np.float64
        assert A.tobytes() == self.row_loop(ds).tobytes()


class TestEstimateL:
    def test_single_row(self):
        # rank-1 Gram eigenvalue is the squared row norm: 4 / (4 * 1) = 1
        ds = parse_libsvm("+1 1:2")
        assert estimate_L(ds) == pytest.approx(1.0, rel=1e-10)

    def test_two_identical_unit_rows(self):
        # A^T A has top eigenvalue 2, so L = 2 / (4 * 2) = 1/4
        ds = parse_libsvm("+1 1:1\n-1 1:1")
        assert estimate_L(ds) == pytest.approx(0.25, rel=1e-10)

    def test_empty_feature_rows(self):
        ds = parse_libsvm("+1\n-1")
        assert estimate_L(ds) == 0.0

    def test_power_iteration_matches_eigensolver(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(1, 5))))
            expected = float(np.linalg.eigvalsh(A.T @ A)[-1])
            assert spectral_norm_sq(A) == pytest.approx(expected, rel=1e-6)

    def test_upper_bounds_logistic_hessian(self):
        # Hessian (1/n) A^T D A with D <= 1/4 has spectral norm <= L
        from clipbench.problems import _sigmoid

        rng = np.random.default_rng(13)
        for trial in range(10):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 6))
            A = rng.normal(size=(n, d))
            y = rng.choice([-1.0, 1.0], size=n)
            rows = tuple(
                SparseRow(np.arange(1, d + 1), A[i]) for i in range(n)
            )
            ds = Dataset(rows, y.astype(np.int64), d)
            L = estimate_L(ds)
            for _ in range(5):
                x = rng.normal(size=d)
                s = _sigmoid(y * (A @ x))
                D = s * (1.0 - s)
                H = (A.T * D) @ A / n
                assert np.linalg.eigvalsh(H)[-1] <= L * (1.0 + 1e-8)


class TestSubsample:
    def test_full_sample_is_identity(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1\n+1 3:1")
        assert subsample(ds, 3, seed=0) == ds

    def test_deterministic(self):
        ds = parse_libsvm("\n".join(f"+1 {i}:1.0" for i in range(1, 21)))
        a = subsample(ds, 5, seed=42)
        b = subsample(ds, 5, seed=42)
        assert a == b
        assert serialize_libsvm(a) == serialize_libsvm(b)

    def test_singleton(self):
        ds = parse_libsvm("+1 1:1\n-1 2:1\n+1 3:1")
        one = subsample(ds, 1, seed=5)
        assert one.n == 1 and one.dim == ds.dim

    def test_out_of_range(self):
        ds = parse_libsvm("+1 1:1")
        with pytest.raises(ValueError):
            subsample(ds, 0, seed=0)
        with pytest.raises(ValueError):
            subsample(ds, 2, seed=0)


class TestValidation:
    def test_sparse_row_checks(self):
        with pytest.raises(ValueError):
            SparseRow(np.array([2, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SparseRow(np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SparseRow(np.array([1]), np.array([np.nan]))

    def test_dataset_checks(self):
        row = SparseRow(np.array([3]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset((row,), np.array([2]), 3)
        with pytest.raises(ValueError):
            Dataset((row,), np.array([1]), 2)  # dim below max index
        with pytest.raises(ValueError):
            Dataset((), np.array([], dtype=np.int64), 0)

    def test_to_dense(self):
        ds = parse_libsvm("+1 2:3\n-1 1:1 3:2")
        assert_allclose(ds.to_dense(), [[0, 3, 0], [1, 0, 2]], rtol=0, atol=0)
