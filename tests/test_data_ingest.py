import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clipbench.data_ingest import (
    Dataset,
    ParseError,
    _parse_checked,
    _parse_rows,
    bundled_dataset_path,
    parse_libsvm,
    serialize_libsvm,
    spectral_norm_sq,
    subsample,
    synthesize_logistic_dataset,
)


def from_rows(rows, labels, dim):
    """A Dataset from a list of (indices, values) rows."""
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    indices = np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _ in rows] + [[]])
    values = np.concatenate([np.asarray(val, dtype=float) for _, val in rows] + [[]])
    return Dataset(indptr, indices, values, labels, dim)


def row(ds, i):
    """Row ``i`` of ``ds`` as (indices, values) lists."""
    a, b = ds.indptr[i], ds.indptr[i + 1]
    return ds.indices[a:b].tolist(), ds.values[a:b].tolist()


class TestParse:
    def test_single_row(self):
        ds = parse_libsvm("+1 3:1 7:0.5")
        assert ds.n == 1 and ds.dim == 7
        assert ds.labels[0] == 1
        assert row(ds, 0) == ([3, 7], [1.0, 0.5])

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
        assert row(ds, 0) == ([], []) and ds.dim == 2

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
            rows.append((idx, rng.normal(size=k)))
            labels.append(int(rng.choice([-1, 1])))
        ds = from_rows(rows, np.array(labels), 30)
        assert parse_libsvm(serialize_libsvm(ds)) == ds

    def test_bundled_file_parses(self):
        ds = parse_libsvm(bundled_dataset_path().read_text())
        assert ds.n == 500 and ds.dim == 60
        assert parse_libsvm(serialize_libsvm(ds)) == ds
        assert ds == synthesize_logistic_dataset()


def assert_same_dataset(got, expected):
    """Bit-for-bit equality, dtypes and shapes included."""
    assert got.dim == expected.dim and got.n == expected.n
    for name, dtype in [("indptr", np.int64), ("indices", np.int64),
                        ("values", np.float64), ("labels", np.int64)]:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def random_dataset(n, dim, seed):
    """Rows of 0..12 features with values over many magnitudes and signs."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        k = int(rng.integers(0, 13))
        idx = np.sort(rng.choice(dim, size=k, replace=False)) + 1
        rows.append((idx, rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8, size=k)))
    return from_rows(rows, rng.choice([-1, 1], size=n), dim)


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
        assert row(ds, 0)[0] == [1, 2]

    def test_odd_tokens_give_their_values(self):
        ds = parse_libsvm("+1 +3:1_0 1_1:.5\n0 \u0663\u0664:1e-3")
        assert row(ds, 0) == ([3, 11], [10.0, 0.5])
        assert row(ds, 1) == ([34], [1e-3])
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

    def test_parsed_arrays_pass_the_constructor_checks(self):
        ds = parse_libsvm(serialize_libsvm(random_dataset(200, 40, seed=8)))
        assert Dataset(ds.indptr, ds.indices, ds.values, ds.labels, ds.dim) == ds


class TestToDense:
    @staticmethod
    def row_loop(ds):
        A = np.zeros((ds.n, ds.dim))
        for i in range(ds.n):
            indices, values = row(ds, i)
            A[i, np.array(indices, dtype=np.int64) - 1] = values
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


class TestSpectralNormSq:
    def test_power_iteration_matches_eigensolver(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            A = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(1, 5))))
            expected = float(np.linalg.eigvalsh(A.T @ A)[-1])
            assert spectral_norm_sq(A) == pytest.approx(expected, rel=1e-6)

    @staticmethod
    def two_products(A, iters=50, tol=1e-8):
        """The power iteration as it was, with the product ``A.T @ (A @ v)``
        computed twice a step: the bits its one-product form must keep."""
        if A.size == 0:
            return 0.0
        d = A.shape[1]
        v = np.full(d, 1.0 / np.sqrt(d))
        lam = 0.0
        for _ in range(iters):
            w = A.T @ (A @ v)
            norm_w = float(np.sqrt(float(w @ w)))
            if norm_w == 0.0:
                return 0.0
            v = w / norm_w
            lam_new = float(v @ (A.T @ (A @ v)))
            if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
                return lam_new
            lam = lam_new
        return lam

    def test_one_product_a_step_keeps_the_bits(self):
        rng = np.random.default_rng(13)
        matrices = [rng.normal(size=(int(rng.integers(1, 90)), int(rng.integers(1, 40))))
                    * 10.0 ** rng.uniform(-5, 5) for _ in range(40)]
        matrices += [np.zeros((5, 3)), np.zeros((0, 4)),
                     parse_libsvm(bundled_dataset_path().read_text()).to_dense()]
        for A in matrices:
            for iters in (1, 3, 50):
                got = spectral_norm_sq(A, iters=iters)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(
                    self.two_products(A, iters=iters)).tobytes(), (A.shape, iters)


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


# a valid base: row 1 is empty, and the index drops from 3 to 2 across rows
BASE = dict(indptr=[0, 2, 2, 3], indices=[1, 3, 2], values=[1.0, 2.0, 3.0],
            labels=[1, -1, 1], dim=3)


class TestValidation:
    def test_index_may_drop_across_a_row_boundary(self):
        ds = Dataset(**BASE)
        assert ds.n == 3 and [row(ds, i)[0] for i in range(3)] == [[1, 3], [], [2]]

    @pytest.mark.parametrize("change, message", [
        (dict(indptr=[1, 2, 2, 3]), "indptr must rise from 0"),
        (dict(indptr=[0, 2, 1, 3]), "indptr must rise from 0"),
        (dict(indptr=[0, 2, 3]), "n \\+ 1 row offsets"),
        (dict(indptr=[0, 2, 2, 2]), "indptr must rise from 0"),
        (dict(indices=[0, 3, 2]), "strictly increasing within a row and >= 1"),
        (dict(indices=[3, 3, 2]), "strictly increasing within a row and >= 1"),
        (dict(indices=[3, 1, 2]), "strictly increasing within a row and >= 1"),
        (dict(values=[1.0, np.nan, 3.0]), "feature values must be finite"),
        (dict(labels=[1, 2, 1]), "labels must be \\+1 or -1"),
        (dict(dim=2), "dim 2 smaller than max feature index 3"),
        (dict(indptr=[0], indices=[], values=[], labels=[], dim=0), "at least one row"),
        (dict(dim=3.5), "dim must be an integer, got 3.5"),
        (dict(dim=3.0), "dim must be an integer, got 3.0"),
        (dict(dim=None), "dim must be an integer, got None"),
        (dict(dim="3"), "dim must be an integer, got '3'"),
    ], ids=["indptr_start", "indptr_decreases", "indptr_length", "indptr_end",
            "index_zero", "index_repeated", "index_decreasing", "nan_value",
            "bad_label", "dim_below_max_index", "zero_rows", "dim_fraction", "dim_float",
            "dim_none", "dim_str"])
    def test_constructor_rejects(self, change, message):
        with pytest.raises(ValueError, match=message):
            Dataset(**{**BASE, **change})

    def test_numpy_integer_dim_is_stored_as_int(self):
        ds = Dataset(**{**BASE, "dim": np.int64(4)})
        assert type(ds.dim) is int and ds.dim == 4
        assert ds.to_dense().shape == (3, 4)

    def test_to_dense(self):
        ds = parse_libsvm("+1 2:3\n-1 1:1 3:2")
        assert_allclose(ds.to_dense(), [[0, 3, 0], [1, 0, 2]], rtol=0, atol=0)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("make, digests", [
    (lambda: parse_libsvm(bundled_dataset_path().read_text()), (
        "b47c407236f2ce07ccaddf1cab1b73d5280cecab5dc94588b26311f447beca87",
        "70a3901486abcc6ab0d90aab0c18b44bbb08a042acafb8640c12dc303870963e",
        "724483c658013c2e99c4340d74974b174cefa377193598a5dc5ca91b4e6baa92",
        "e9e2bfc08f5bc4ebf9142d6ee500b607157c29982718fe44acdb46da98936565",
    )),
    (lambda: synthesize_logistic_dataset(n=20000, dim=200), (
        "108ab49bb3b96a791cdf39a2e117465dfbec0ceeee3c76026c48bcc91fe778e6",
        "ed977e161b4a894227ac33cbe09d80cbf0e4b944b7ab1f32b3bf95e5967b8d6d",
        "a2d1e14082ad20824c976ed43347208e23aaad8ccd631e680c2e8eec43e45bed",
        "1fe9e357a62bbcb293426609b2289f7fdf610d7b22a5437a93866e3bbafe4e50",
    )),
], ids=["bundled", "synthesized_20000"])
def test_frozen_digests(make, digests):
    # sha256 of to_dense(), serialize_libsvm, and subsample(ds, 137, seed=3)
    # serialized and densified, as the row-object Dataset gave them
    ds = make()
    sub = subsample(ds, 137, seed=3)
    assert (sha256(ds.to_dense().tobytes()), sha256(serialize_libsvm(ds).encode()),
            sha256(serialize_libsvm(sub).encode()), sha256(sub.to_dense().tobytes())) == digests
