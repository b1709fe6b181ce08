"""Differential suite for the batched Gauss–Jordan entry point.

``Gf256Engine.eliminate_batch`` runs the progressive decoder's
within-batch loop either in one compiled call (``gf256_eliminate_batch``
in ``_regionops.c``) or, without the kernel, as a Python loop over the
region ops.  Three implementations — the kernel, the wide backend's
numpy fallback (kernel disabled) and the ``table`` backend — must leave
identical ``work`` rows, pivot columns and accepted indices on random
shapes, dependent and all-zero rows, batches that reach full rank
mid-batch, and widths that are not a multiple of the SIMD word.
"""

import numpy as np
import pytest

from repro.gf256 import regionops
from repro.gf256.engine import Gf256Engine

#: Block counts straddling the 32/64-byte vector widths (row width 2n).
SIZES = (1, 2, 3, 5, 16, 17, 31, 33, 47, 64, 65, 70)


@pytest.fixture
def forced_numpy_fallback(monkeypatch):
    """Disable the compiled kernel so wide runs its numpy loop."""
    monkeypatch.setenv(regionops.KERNEL_ENV_VAR, "0")
    regionops._reset_for_tests()
    yield
    regionops._reset_for_tests()


def forward_reduce(coefficients, work, held, pivot_cols):
    """The decoder's one-matmul forward reduction of a fresh batch."""
    n = work.shape[0]
    incoming = np.zeros((coefficients.shape[0], 2 * n), dtype=np.uint8)
    incoming[:, :n] = coefficients
    if held:
        factors = coefficients[:, pivot_cols[:held]]
        incoming ^= Gf256Engine("table").matmul(factors, work[:held])
    return incoming


def random_case(seed):
    """A held RREF state plus a forward-reduced batch with edge rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice(SIZES))
    work = np.zeros((n, 2 * n), dtype=np.uint8)
    pivot_cols = np.zeros(n, dtype=np.int64)
    start = int(rng.choice([0, n - 1, n, rng.integers(0, n + 1)]))
    held = 0
    if start:
        seed_rows = rng.integers(0, 256, size=(start, n), dtype=np.uint8)
        table = Gf256Engine("table")
        held = table.eliminate_batch(
            forward_reduce(seed_rows, work, 0, pivot_cols), work, 0, pivot_cols
        ).shape[0]
    m = int(rng.integers(0, n - held + 6))
    coefficients = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
    for row in range(m):
        kind = rng.integers(0, 6)
        if kind == 0:
            coefficients[row] = 0
        elif kind == 1 and row:
            # A combination of two earlier batch rows: dependent.
            a, b = rng.integers(0, row, size=2)
            ca, cb = rng.integers(1, 256, size=2)
            table = Gf256Engine("table")
            coefficients[row] = table.matmul(
                np.array([[ca, cb]], dtype=np.uint8),
                coefficients[[a, b]],
            )[0]
        elif kind == 2:
            # Sparse: only a couple of nonzero columns.
            coefficients[row] = 0
            cols = rng.integers(0, n, size=2)
            coefficients[row, cols] = rng.integers(1, 256, size=2)
    incoming = forward_reduce(coefficients, work, held, pivot_cols)
    return incoming, work, held, pivot_cols


def run(engine, case):
    incoming, work, held, pivot_cols = (
        part.copy() if isinstance(part, np.ndarray) else part for part in case
    )
    accepted = engine.eliminate_batch(incoming, work, held, pivot_cols)
    assert accepted.dtype == np.int64
    count = accepted.shape[0]
    return work, pivot_cols[: held + count], accepted


def assert_same(left, right, seed):
    for a, b in zip(left, right):
        assert np.array_equal(a, b), seed


SEEDS = range(300)


@pytest.fixture(scope="module")
def cases():
    return {seed: random_case(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def table_results(cases):
    table = Gf256Engine("table")
    return {seed: run(table, case) for seed, case in cases.items()}


class TestDifferential:
    def test_kernel_matches_table(self, cases, table_results):
        if not regionops.kernel_available():
            pytest.skip(f"kernel unavailable: {regionops.load_error()}")
        wide = Gf256Engine("wide")
        for seed, case in cases.items():
            assert_same(run(wide, case), table_results[seed], seed)

    def test_numpy_fallback_matches_table(
        self, forced_numpy_fallback, cases, table_results
    ):
        assert not regionops.kernel_available()
        wide = Gf256Engine("wide")
        for seed, case in cases.items():
            assert_same(run(wide, case), table_results[seed], seed)

    def test_cases_cover_the_edges(self, cases, table_results):
        completes_mid_batch = dependent = full_start = 0
        for seed, (incoming, work, held, _) in cases.items():
            n = work.shape[0]
            m = incoming.shape[0]
            count = table_results[seed][2].shape[0]
            full_start += held >= n - 1
            dependent += count < m
            completes_mid_batch += held + count == n and (
                table_results[seed][2][-1] < m - 1 if count else False
            )
        assert completes_mid_batch >= 10
        assert dependent >= 50
        assert full_start >= 20

    def test_result_is_reduced_row_echelon(self, cases, table_results):
        for seed, (_, work, held, _) in cases.items():
            rows, pivots, accepted = table_results[seed]
            rank = held + accepted.shape[0]
            n = work.shape[0]
            for row, col in enumerate(pivots):
                column = rows[:rank, col]
                assert column[row] == 1, seed
                assert np.count_nonzero(column) == 1, seed
                assert not rows[row, :col].any(), seed
            assert not rows[rank:].any(), seed
            assert len(set(pivots.tolist())) == rank <= n


class TestEdges:
    @pytest.mark.parametrize("backend", ["wide", "table"])
    def test_full_rank_with_zero_rows_accepts_nothing(self, backend):
        n = 5
        work = np.zeros((n, 2 * n), dtype=np.uint8)
        work[:, :n] = np.eye(n, dtype=np.uint8)
        pivot_cols = np.arange(n, dtype=np.int64)
        incoming = np.zeros((3, 2 * n), dtype=np.uint8)
        accepted = Gf256Engine(backend).eliminate_batch(
            incoming, work, n, pivot_cols
        )
        assert accepted.shape == (0,)

    @pytest.mark.parametrize("backend", ["wide", "table"])
    def test_innovative_row_past_full_rank_raises(self, backend):
        n = 3
        work = np.zeros((n, 2 * n), dtype=np.uint8)
        work[:, :n] = np.eye(n, dtype=np.uint8)
        pivot_cols = np.arange(n, dtype=np.int64)
        incoming = np.zeros((1, 2 * n), dtype=np.uint8)
        incoming[0, 1] = 7  # not reduced against work: no free slot
        before = work.copy()
        with pytest.raises(ValueError, match="free rows"):
            Gf256Engine(backend).eliminate_batch(incoming, work, n, pivot_cols)
        assert np.array_equal(work, before)

    def test_empty_batch(self):
        n = 4
        work = np.zeros((n, 2 * n), dtype=np.uint8)
        pivot_cols = np.zeros(n, dtype=np.int64)
        incoming = np.zeros((0, 2 * n), dtype=np.uint8)
        for backend in ("wide", "table"):
            accepted = Gf256Engine(backend).eliminate_batch(
                incoming, work, 0, pivot_cols
            )
            assert accepted.shape == (0,)
        assert not work.any()


def operands(n=4, m=3):
    return (
        np.zeros((m, 2 * n), dtype=np.uint8),
        np.zeros((n, 2 * n), dtype=np.uint8),
        0,
        np.zeros(n, dtype=np.int64),
    )


def _non_contiguous_incoming():
    incoming, work, held, pivots = operands()
    wide = np.zeros((incoming.shape[0], 2 * incoming.shape[1]), dtype=np.uint8)
    return wide[:, ::2], work, held, pivots


def _read_only_work():
    incoming, work, held, pivots = operands()
    work.flags.writeable = False
    return incoming, work, held, pivots


BAD_OPERANDS = {
    "incoming-non-contiguous": _non_contiguous_incoming,
    "incoming-wrong-dtype": lambda: (
        operands()[0].astype(np.uint16),
        *operands()[1:],
    ),
    "work-transposed": lambda: (
        operands(n=4, m=3)[0],
        np.zeros((8, 4), dtype=np.uint8).T,
        0,
        np.zeros(4, dtype=np.int64),
    ),
    "work-read-only": _read_only_work,
    "pivots-int32": lambda: (*operands()[:3], np.zeros(4, dtype=np.int32)),
    "pivots-strided": lambda: (
        *operands()[:3],
        np.zeros(8, dtype=np.int64)[::2],
    ),
    "width-mismatch": lambda: (
        np.zeros((3, 6), dtype=np.uint8),
        *operands()[1:],
    ),
    "held-past-n": lambda: (*operands()[:2], 5, operands()[3]),
    "held-negative": lambda: (*operands()[:2], -1, operands()[3]),
}


class TestOperandChecks:
    @pytest.mark.parametrize("name", sorted(BAD_OPERANDS))
    def test_rejected_before_ctypes(self, monkeypatch, name):
        def no_kernel():
            raise AssertionError("operand reached the kernel loader")

        monkeypatch.setattr(regionops, "_load", no_kernel)
        with pytest.raises(ValueError):
            regionops.eliminate_batch(*BAD_OPERANDS[name]())

    @pytest.mark.parametrize("name", sorted(BAD_OPERANDS))
    def test_fallback_rejects_the_same(self, name):
        with pytest.raises(ValueError):
            Gf256Engine("table").eliminate_batch(*BAD_OPERANDS[name]())
