"""Equivalence and selection tests for the pluggable GF(2^8) engine.

The two multiply backends must be byte-exact against each other and
against the seed-era scalar reference (``gf_mul_loop``) on randomized
shapes — this is the cross-validation contract that lets the ``auto``
rule switch backends freely without observable effect.
"""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.gf256 import gf_mul_loop, regionops
from repro.gf256.engine import (
    BACKENDS,
    EXP_PAD,
    LOG_PAD,
    LOG_PAD_SENTINEL,
    ENGINE,
    SWAR_MIN_ROWS,
    SWAR_MIN_WIDTH,
    Gf256Engine,
    multiples_table,
)
from repro.gf256.tables import MUL_TABLE


def scalar_reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Seed-era scalar reference: every product via the shift-and-add loop."""
    m, n = a.shape
    k = b.shape[1]
    out = np.zeros((m, k), dtype=np.uint8)
    for row in range(m):
        for col in range(k):
            acc = 0
            for i in range(n):
                acc ^= gf_mul_loop(int(a[row, i]), int(b[i, col]))
            out[row, col] = acc
    return out


def assert_lists_only_catalog(message: str) -> None:
    """The rejection names exactly the valid backends, nothing else."""
    assert message.endswith(f"expected one of {BACKENDS}")
    assert BACKENDS == ("auto", "table", "wide")


class TestPaddedTables:
    def test_sentinel_sums_decode_to_zero(self):
        assert LOG_PAD[0] == LOG_PAD_SENTINEL
        # Any sum involving at least one sentinel lands in the zero tail.
        assert EXP_PAD[LOG_PAD_SENTINEL:].max() == 0
        assert EXP_PAD.shape[0] == 2 * LOG_PAD_SENTINEL + 1

    def test_padded_gather_matches_mul_table(self):
        x = np.arange(256, dtype=np.uint8)
        for c in (0, 1, 2, 3, 0x53, 0xFF):
            expected = MUL_TABLE[c][x]
            got = EXP_PAD[LOG_PAD[np.uint8(c)] + LOG_PAD[x]]
            assert np.array_equal(expected, got)


class TestMultiplesTable:
    def test_all_multiples_of_random_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            row = rng.integers(0, 256, size=37, dtype=np.uint8)
            table = multiples_table(row)
            for c in (0, 1, 2, 5, 128, 255):
                assert np.array_equal(table[c], MUL_TABLE[c][row]), c

    def test_scratch_reuse(self):
        rng = np.random.default_rng(12)
        scratch = np.empty((256, 16), dtype=np.uint8)
        row_a = rng.integers(0, 256, size=16, dtype=np.uint8)
        row_b = rng.integers(0, 256, size=16, dtype=np.uint8)
        multiples_table(row_a, scratch)
        table_b = multiples_table(row_b, scratch)
        assert table_b is scratch
        assert np.array_equal(table_b[3], MUL_TABLE[3][row_b])


class TestBackendEquivalence:
    SHAPES = [
        (1, 1, 1),
        (1, 7, 13),
        (3, 4, 2),
        (5, 16, 33),
        (17, 8, 64),
        (40, 6, 40),
        (64, 12, 5),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backends_agree_with_scalar_reference(self, shape):
        m, n, k = shape
        rng = np.random.default_rng(hash(shape) % (2**32))
        a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        expected = scalar_reference_matmul(a, b)
        for backend in ("table", "wide"):
            engine = Gf256Engine(backend)
            assert np.array_equal(engine.matmul(a, b), expected), backend

    def test_backends_agree_on_large_random_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            m = int(rng.integers(1, 90))
            n = int(rng.integers(1, 70))
            k = int(rng.integers(1, 300))
            a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
            b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
            results = {
                backend: Gf256Engine(backend).matmul(a, b)
                for backend in ("table", "wide")
            }
            assert np.array_equal(results["table"], results["wide"])

    def test_zero_heavy_operands(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 256, size=(40, 20), dtype=np.uint8)
        a[a < 128] = 0
        b = rng.integers(0, 256, size=(20, 50), dtype=np.uint8)
        b[:, ::2] = 0
        results = [
            Gf256Engine(backend).matmul(a, b) for backend in ("table", "wide")
        ]
        assert np.array_equal(results[0], results[1])

    def test_rejects_non_u8(self):
        with pytest.raises(FieldError):
            ENGINE.matmul(
                np.zeros((2, 2), dtype=np.uint16),
                np.zeros((2, 2), dtype=np.uint8),
            )


class TestRowPrimitives:
    def test_scaled_rows_xor_matches_naive(self):
        rng = np.random.default_rng(15)
        rows = rng.integers(0, 256, size=(9, 70), dtype=np.uint8)
        factors = rng.integers(0, 256, size=9, dtype=np.uint8)
        expected = np.zeros(70, dtype=np.uint8)
        for i in range(9):
            expected ^= MUL_TABLE[factors[i]][rows[i]]
        assert np.array_equal(ENGINE.scaled_rows_xor(rows, factors), expected)

    def test_scaled_rows_matches_naive_both_sizes(self):
        rng = np.random.default_rng(16)
        # Small (log-gather path) and large (multiples-table path).
        for count, width in ((5, 40), (64, 128)):
            factors = rng.integers(0, 256, size=count, dtype=np.uint8)
            row = rng.integers(0, 256, size=width, dtype=np.uint8)
            got = ENGINE.scaled_rows(factors, row)
            for i in range(count):
                assert np.array_equal(got[i], MUL_TABLE[factors[i]][row])

    def test_mul_scalar(self):
        rng = np.random.default_rng(17)
        row = rng.integers(0, 256, size=50, dtype=np.uint8)
        assert np.array_equal(ENGINE.mul_scalar(row, 77), MUL_TABLE[77][row])


class TestBackendSelection:
    def test_env_var_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_GF_BACKEND", "table")
        engine = Gf256Engine()
        assert engine.backend == "table"
        assert engine.select_matmul_backend(1000, 8, 1000) == "table"

    def test_set_backend_overrides_and_resets(self):
        engine = Gf256Engine("table")
        assert engine.select_matmul_backend(1000, 8, 1000) == "table"
        engine.set_backend(None)
        assert engine.backend == "auto"

    def test_unknown_backend_rejected(self):
        # ``log`` and ``bitslice`` were backends once; they are unknown now.
        for name in ("simd9000", "log", "bitslice"):
            with pytest.raises(FieldError) as excinfo:
                Gf256Engine(name)
            assert_lists_only_catalog(str(excinfo.value))
        engine = Gf256Engine()
        with pytest.raises(FieldError):
            engine.set_backend("nope")

    def test_unknown_env_backend_raises_listing_catalog(self, monkeypatch):
        for name in ("quantum", "bitslice"):
            monkeypatch.setenv("REPRO_GF_BACKEND", name)
            with pytest.raises(FieldError) as excinfo:
                Gf256Engine()
            assert_lists_only_catalog(str(excinfo.value))

    def test_env_var_reread_per_construction(self, monkeypatch):
        # The variable is consulted at construction (and on
        # set_backend(None)), never latched at import time.
        monkeypatch.setenv("REPRO_GF_BACKEND", "wide")
        assert Gf256Engine().backend == "wide"
        monkeypatch.setenv("REPRO_GF_BACKEND", "table")
        assert Gf256Engine().backend == "table"
        engine = Gf256Engine("table")
        monkeypatch.setenv("REPRO_GF_BACKEND", "wide")
        engine.set_backend(None)
        assert engine.backend == "wide"

    def test_heuristic_prefers_wide_kernel_when_available(self, monkeypatch):
        engine = Gf256Engine("auto")
        monkeypatch.setattr(regionops, "kernel_available", lambda: True)
        # The fused region pass has no amortization threshold: every
        # shape routes to the compiled wide backend.
        assert engine.select_matmul_backend(256, 128, 4096) == "wide"
        assert engine.select_matmul_backend(1, 4, 8) == "wide"

    def test_heuristic_shape_dispatch_without_kernel(self, monkeypatch):
        engine = Gf256Engine("auto")
        monkeypatch.setattr(regionops, "kernel_available", lambda: False)
        # Enough rows, wide enough, amortize the SWAR nibble tables.
        assert engine.select_matmul_backend(256, 128, 4096) == "wide"
        assert (
            engine.select_matmul_backend(SWAR_MIN_ROWS, 1, SWAR_MIN_WIDTH)
            == "wide"
        )
        # Fewer rows: plain table gather.
        assert engine.select_matmul_backend(SWAR_MIN_ROWS - 1, 128, 4096) == (
            "table"
        )
        assert engine.select_matmul_backend(1, 128, 4096) == "table"
        # Narrow rows never pay the nibble-table build.
        assert engine.select_matmul_backend(256, 128, SWAR_MIN_WIDTH - 1) == (
            "table"
        )

    def test_all_backend_names_construct(self):
        for name in BACKENDS:
            assert Gf256Engine(name).backend == name
