import itertools
import logging
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tropgeo as tg
from tropgeo import _batch, honeycomb
from tropgeo.honeycomb import HEX_BASIS_2D, as_center, hexagon_rings

from helpers import (
    batch_dist,
    containing_count_oracle,
    facet_neighbors_oracle,
    tiling_report_oracle,
)


def lattice_window(n, halfwidth):
    for c in itertools.product(range(-halfwidth, halfwidth + 1), repeat=n):
        if sum(c) % (n + 1) == 0:
            yield c


def test_in_lattice_worked_values():
    assert tg.in_lattice((0, 0))
    assert tg.in_lattice((2, 1))
    assert not tg.in_lattice((1, 1))
    assert tg.in_lattice((1, 1, 2))
    assert tg.in_lattice((0,))
    assert not tg.in_lattice((1,))


def test_center_validation():
    assert as_center((2.0, 1.0)) == (2, 1)
    with pytest.raises(tg.DomainError):
        as_center((1.5, 0))
    with pytest.raises(tg.DomainError):
        as_center(())
    with pytest.raises(tg.DomainError):
        tg.in_lattice((0.25,))


def test_nonzero_lattice_vectors_keep_their_distance():
    # everything except the origin is at least 2 away, which is why the
    # unit balls tile without overlapping interiors
    for n in (1, 2, 3):
        best = min(
            tg.norm(c)
            for c in lattice_window(n, 2)
            if any(c)
        )
        assert best == 2.0


def test_locate_worked_values():
    res = tg.locate((0.5, 0.3))
    assert res.center == (0, 0)
    assert res.status == "interior"
    assert res.all_centers == ((0, 0),)
    assert res.distance == pytest.approx(0.5, abs=1e-12)

    res = tg.locate((1.2, 0.7))
    assert res.center == (2, 1)
    assert res.status == "interior"
    assert res.distance == pytest.approx(0.8, abs=1e-12)

    res = tg.locate((0.9, -0.4))
    assert res.center == (1, -1)
    assert res.status == "interior"
    assert res.distance == pytest.approx(0.7, abs=1e-12)


def test_locate_at_a_center():
    res = tg.locate((0.0, 0.0, 0.0))
    assert res.center == (0, 0, 0)
    assert res.status == "interior"
    assert res.distance == 0.0
    assert res.all_centers == ((0, 0, 0),)


def test_locate_certificate():
    rng = np.random.default_rng(41)
    for n in range(1, 5):
        for _ in range(200):
            x = tuple(rng.uniform(-8, 8, n))
            res = tg.locate(x)
            assert res.distance == tg.dist(x, res.center)
            assert res.distance <= 1.0 + 1e-9
            assert res.center in res.all_centers
            for c in res.all_centers:
                assert tg.in_lattice(c)
                assert tg.dist(x, c) <= 1.0 + 1e-9


def test_locate_matches_bruteforce():
    rng = np.random.default_rng(42)
    for n in range(1, 5):
        for _ in range(300):
            x = tuple(rng.uniform(-6, 6, n))
            res = tg.locate(x)
            brute = tg.locate_bruteforce(x)
            assert tuple(brute) == res.all_centers
            if res.status == "interior":
                assert brute == [res.center]


def test_boundary_point_on_shared_facet():
    res = tg.locate((1.0, 0.5))
    assert res.status == "boundary"
    assert set(res.all_centers) == {(0, 0), (2, 1)}
    brute = tg.locate_bruteforce((1.0, 0.5))
    assert set(brute) == {(0, 0), (2, 1)}


def test_fractional_tie_is_a_boundary_point():
    # equal fractional parts mean the floor/raise choice is ambiguous,
    # which is exactly the shared-facet situation
    res = tg.locate((1.3, 1.3))
    assert res.status == "boundary"
    assert set(res.all_centers) == {(1, 2), (2, 1)}
    assert res.distance == pytest.approx(1.0, abs=1e-12)


def test_integer_coordinate_can_still_be_interior():
    res = tg.locate((0.0, 0.3))
    assert res.status == "interior"
    assert res.all_centers == ((0, 0),)


def test_no_other_raise_count_fits_the_congruence():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        for _ in range(100):
            x = rng.uniform(-5, 5, n)
            floors = np.floor(x).astype(int)
            k = int(floors.sum()) % (n + 1)
            m_good = 0 if k == 0 else n + 1 - k
            for m in range(n + 1):
                ok = (int(floors.sum()) + m) % (n + 1) == 0
                assert ok == (m == m_good)


def test_locate_translation_covariance():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3):
        basis = tg.lattice_basis(n)
        for _ in range(100):
            # dyadic coordinates keep the shifted sums exact
            x = tuple(float(v) / 1024.0 for v in rng.integers(-5120, 5120, n))
            base = tg.locate(x)
            for v in basis:
                shifted = tg.locate(tuple(a + b for a, b in zip(x, v)))
                assert shifted.center == tuple(a + b for a, b in zip(base.center, v))
                assert shifted.status == base.status
                assert shifted.distance == base.distance


def _exact_centers(x):
    """Each center within distance 1 of the rational point x, with its
    distance, in exact arithmetic."""
    n = len(x)
    out = {}
    for delta in itertools.product((-1, 0, 1, 2), repeat=n):
        c = tuple(math.floor(v) + b for v, b in zip(x, delta))
        diff = [a - v for a, v in zip(c, x)]
        d = max(max(diff), 0) - min(min(diff), 0)
        if d <= 1 and sum(c) % (n + 1) == 0:
            out[c] = d
    return out


@pytest.mark.parametrize("y", [3.0, 3.25, 3.5, 3.75])
@pytest.mark.parametrize("s", [1.0, 2.0**52, 2.0**53, 1e16, 1e17], ids=repr)
def test_locate_is_exact_at_every_magnitude(s, y, caplog):
    # (s, 3) is a vertex of three hexagons however large s is; past 2^53 a
    # center one step from x rounds onto x's own coordinate, so distances
    # taken in the global frame come out too short
    want = _exact_centers((Fraction(s), Fraction(y)))
    res = tg.locate((s, y))
    assert set(res.all_centers) == set(want)
    assert y != 3.0 or len(want) == 3
    assert res.distance == float(want[res.center])
    assert (res.status == "interior") == (len(want) == 1 and want[res.center] < 1)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_neighbors_golden_2d():
    assert set(tg.neighbors((0, 0))) == {
        (2, 1), (1, 2), (-1, 1), (1, -1), (-2, -1), (-1, -2),
    }


def test_neighbors_counts_and_distance():
    for n in range(1, 5):
        nbs = tg.neighbors((0,) * n)
        assert len(nbs) == n * (n + 1)
        assert len(set(nbs)) == len(nbs)
        for nb in nbs:
            assert tg.in_lattice(nb)
            assert tg.norm(nb) == 2.0


def test_neighbors_share_a_full_facet():
    for n in (2, 3):
        own = tg.hrep(tg.Ball((0,) * n))
        for nb in tg.neighbors((0,) * n):
            shared = own.intersect(tg.hrep(tg.Ball(nb)))
            assert shared.affine_dim() == n - 1


def test_neighbors_translation_covariance():
    base = set(tg.neighbors((0, 0)))
    c = (2, 1)
    assert set(tg.neighbors(c)) == {(a + c[0], b + c[1]) for a, b in base}


def random_lattice_center(n, rng):
    c = [int(v) for v in rng.integers(-50, 51, n)]
    c[-1] -= sum(c) % (n + 1)
    return tuple(c)


NEIGHBOR_ORACLE_CASES = [
    (n, k) for n in range(1, 6) for k in range(3)
] + [(6, 1)]


@pytest.mark.parametrize("n, k", NEIGHBOR_ORACLE_CASES)
def test_neighbors_equal_the_window_search(n, k):
    # k = 0 is the origin, k > 0 a random lattice center
    c = (0,) * n if k == 0 else random_lattice_center(n, np.random.default_rng([n, k]))
    assert tg.in_lattice(c)
    assert tg.neighbors(c) == facet_neighbors_oracle(c)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("shifted", [False, True])
def test_neighbors_at_high_dimension(n, shifted):
    c = random_lattice_center(n, np.random.default_rng(n)) if shifted else (0,) * n
    nbs = tg.neighbors(c)
    assert len(nbs) == len(set(nbs)) == n * (n + 1)
    for nb in nbs:
        assert tg.in_lattice(nb)
        assert tg.dist(c, nb) == 2.0


@pytest.mark.parametrize("c", [(2**52, -2**52), (2**53 + 3, -(2**53)), (3 * 10**20, 0)])
def test_neighbors_are_exact_at_every_magnitude(c):
    base = tg.neighbors((0, 0))
    assert tg.neighbors(c) == sorted(tuple(a + b for a, b in zip(c, r)) for r in base)


def test_neighbors_rejects_non_lattice_centers():
    with pytest.raises(tg.DomainError):
        tg.neighbors((1, 1))


def test_lattice_basis():
    assert tg.lattice_basis(1) == [(2,)]
    for n in range(1, 7):
        basis = tg.lattice_basis(n)
        assert len(basis) == n
        for v in basis:
            assert tg.in_lattice(v)
        det = round(abs(np.linalg.det(np.array(basis, dtype=float))))
        assert det == n + 1


def test_hex_basis_spans_the_same_lattice():
    assert tg.spans_same_lattice(tg.lattice_basis(2), HEX_BASIS_2D)
    assert tg.spans_same_lattice(HEX_BASIS_2D, ((1, -1), (0, 3)))
    assert not tg.spans_same_lattice(HEX_BASIS_2D, ((1, 0), (0, 1)))
    # sublattice of index 2: one-way containment only
    assert not tg.spans_same_lattice(HEX_BASIS_2D, ((4, 2), (-1, 1)))


def test_basis_generates_the_window():
    # integer combinations of the basis hit every lattice point in a window
    for n in (1, 2, 3):
        basis = np.array(tg.lattice_basis(n))
        got = set()
        for coeffs in itertools.product(range(-6, 7), repeat=n):
            v = tuple(int(x) for x in np.array(coeffs) @ basis)
            if max(abs(c) for c in v) <= 2:
                got.add(v)
        assert got == set(lattice_window(n, 2))


def test_verify_tiling_small_runs():
    for n in (1, 2, 3):
        rep = tg.verify_tiling(n, box_halfwidth=6.0, samples=4000, seed=5)
        assert rep.mismatches == 0
        assert rep.interior + rep.boundary == rep.samples == 4000
        assert rep.n == n
        # random reals land on facets almost never
        assert rep.boundary <= 5


def test_verify_tiling_is_deterministic():
    a = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=9)
    b = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=9)
    assert a == b
    c = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=10)
    assert c.mismatches == 0


def test_verify_tiling_crosses_shard_boundaries():
    rep = tg.verify_tiling(2, box_halfwidth=5.0, samples=3000, seed=3, shard_size=1024)
    assert rep.mismatches == 0
    assert rep.interior + rep.boundary == 3000


def test_verify_tiling_rejects_bad_arguments():
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(0)
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(2, samples=-5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shard_size": 0},
        {"shard_size": -3},
        {"box_halfwidth": -1.0},
        {"box_halfwidth": math.nan},
        {"box_halfwidth": math.inf},
        {"box_halfwidth": 1e16},
        {"box_halfwidth": 1e19},
        {"eps": 0.0},
        {"eps": -1.0},
        {"eps": math.nan},
        {"eps": math.inf},
    ],
    ids=repr,
)
def test_verify_tiling_rejects_bad_input(kwargs):
    # with no samples no shard is drawn, so each input must be rejected up
    # front; a shard_size below 1 would otherwise never finish
    with pytest.raises(tg.DomainError):
        tg.verify_tiling(2, samples=0, **kwargs)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_verify_tiling_is_exact_up_to_the_box_limit(n, caplog):
    # 2^53 is the largest box in which float64 holds every integer
    report = tg.verify_tiling(n, box_halfwidth=2.0**53, samples=3000, seed=1)
    assert report.mismatches == 0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize(
    "n, box, seed, interior, boundary",
    [(2, 0.7, 1, 4794, 206), (3, 3.0, 7, 4322, 678), (5, 10.0, 1, 3861, 1139)],
)
def test_verify_tiling_report_with_a_wide_eps(n, box, seed, interior, boundary):
    # eps = 0.05 sends a tenth of the coordinates to the scalar locate path,
    # so these pinned counts hold the batch and the scalar rows to one rule
    report = tg.verify_tiling(n, box_halfwidth=box, samples=5000, seed=seed, eps=0.05)
    assert (report.interior, report.boundary, report.mismatches) == (interior, boundary, 0)


def _snapped_floors(X, eps):
    """The floors _verify_block uses: coordinates within eps of an integer snap first."""
    R = np.round(X)
    return np.floor(np.where(np.abs(X - R) <= eps, R, X))


def _count_cases(n, rng):
    """Uniform rows, rows with tied fractional parts, facet grids and snapping rows."""
    m = 150
    uniform = rng.uniform(-10, 10, (m, n))
    tied = rng.integers(-6, 6, (m, n)) + rng.choice([0.25, 0.5, 0.75, 0.3], (m, n))
    quarters = rng.integers(-24, 24, (m, n)) / 4
    eighths = rng.integers(-48, 48, (m, n)) / 8
    snapping = rng.uniform(-10, 10, (m, n))
    hit = rng.random((m, n)) < 0.3
    snapping[hit] = np.round(snapping[hit]) + rng.choice([0.0, 1e-12, -1e-12], hit.sum())
    return np.vstack([uniform, tied, quarters, eighths, snapping])


@pytest.mark.parametrize("n", range(1, 13))
def test_batch_locator_matches_fast_center_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    scale = 2.0 ** rng.integers(0, 54, (200, n))
    X = np.vstack([
        _count_cases(n, rng),
        rng.uniform(-1, 1, (200, n)) * scale,
        rng.uniform(-(2.0**53), 2.0**53, (50, n)),
    ])
    for eps in (tg.DEFAULT_EPS, 0.05):
        F, inc, d, snapped = _batch._locate_rows(X.T.copy(), eps)
        centers = (F + inc).T.astype(np.int64).tolist()
        for j, row in enumerate(X.tolist()):
            c, dj, sj = honeycomb._fast_center(row, eps)
            assert tuple(centers[j]) == c
            assert np.float64(d[j]).tobytes() == np.float64(dj).tobytes()
            assert bool(snapped[j]) == sj


@pytest.mark.parametrize("n", range(1, 9))
def test_containing_counts_match_the_exhaustive_oracle(n):
    rng = np.random.default_rng(100 + n)
    X = _count_cases(n, rng)
    for eps in (tg.DEFAULT_EPS, 0.05):
        F = _snapped_floors(X, eps)
        got = _batch._containing_counts(X.T.copy(), F.T.copy(), eps)
        assert np.array_equal(got, containing_count_oracle(X, F, eps))


def test_containing_counts_cross_row_chunks_at_n12():
    n = 12
    X = np.random.default_rng(12).uniform(-10, 10, (600, n))
    F = _snapped_floors(X, tg.DEFAULT_EPS)
    weight = -F.sum(axis=1).astype(np.int64) % (n + 1)
    rows_per_chunk = [_batch._BROADCAST_BUDGET // (math.comb(n, r) * n) for r in range(n + 1)]
    assert any((weight == r).sum() > rows_per_chunk[r] for r in range(n + 1))
    got = _batch._containing_counts(X.T.copy(), F.T.copy(), tg.DEFAULT_EPS)
    assert np.array_equal(got, containing_count_oracle(X, F, tg.DEFAULT_EPS))


def test_containing_counts_do_not_depend_on_the_budget(monkeypatch):
    # a budget of a few elements cuts both the row and the candidate axis
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        X = _count_cases(n, rng)[::10]
        XT, FT = X.T.copy(), _snapped_floors(X, tg.DEFAULT_EPS).T.copy()
        # the result is a workspace view that the next call overwrites
        want = _batch._containing_counts(XT, FT, tg.DEFAULT_EPS).copy()
        monkeypatch.setattr(_batch, "_BROADCAST_BUDGET", 2 * n)
        assert np.array_equal(_batch._containing_counts(XT, FT, tg.DEFAULT_EPS), want)
        monkeypatch.undo()


def test_weight_vectors_enumerate_each_weight_once():
    for n in range(1, 7):
        for r in range(n + 1):
            blocks = _batch._weight_vectors(n, r, 4)
            assert all(B.dtype == bool for B in blocks)
            assert all(B.shape[::2] == (n, 1) and 1 <= B.shape[1] <= 4 for B in blocks)
            vecs = np.concatenate([B[:, :, 0].T for B in blocks]).astype(int)
            want = [b for b in itertools.product((0, 1), repeat=n) if sum(b) == r]
            assert sorted(map(tuple, vecs)) == sorted(want)


def test_weight_vector_blocks_are_read_only():
    # the blocks are cached and shared by every call, so none may be written
    (B,) = _batch._weight_vectors(3, 2, 8)
    assert _batch._weight_vectors(3, 2, 8)[0] is B
    with pytest.raises(ValueError):
        B[0, 0, 0] = False


def test_verify_tiling_memory_stays_bounded():
    tracemalloc.start()
    try:
        rep = tg.verify_tiling(12, samples=8000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.mismatches == 0
    assert peak < 32 * 2**20


@pytest.mark.parametrize("box", [0.0, 0.7, 3.0, 10.0, 1e-300, 2.0**53])
@pytest.mark.parametrize("budget", [1, 7, 13, _batch._TILING_BUDGET])
def test_sample_blocks_are_uniform_byte_for_byte(monkeypatch, box, budget):
    # verify_tiling's samples are the substream's uniform draws, however the
    # blocks cut them; m is never a multiple of the block, so the last block
    # is always shorter
    monkeypatch.setattr(_batch, "_TILING_BUDGET", budget)
    for n, m in [(1, 61), (3, 101), (5, 43)]:
        rows = max(1, budget // n)
        blocks = [X.copy() for X in _batch._sample_blocks(11, 2, m, n, box)]
        assert [len(X) for X in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        want = np.random.default_rng([11, 2]).uniform(-box, box, (m, n))
        assert np.concatenate(blocks).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_tiling_reports_do_not_depend_on_the_block_budget(monkeypatch, n):
    for eps in (tg.DEFAULT_EPS, 0.05):
        for shard_size, samples in [(1, 30), (7, 150), (1500, 150), (65_536, 150)]:
            kw = dict(box_halfwidth=3.0, samples=samples, seed=4, eps=eps, shard_size=shard_size)
            want = tiling_report_oracle(n, **kw)
            for budget in (1, 7, 13 * n, _batch._TILING_BUDGET):
                monkeypatch.setattr(_batch, "_TILING_BUDGET", budget)
                assert tg.verify_tiling(n, **kw) == want, (eps, shard_size, budget)


def _in_fresh_thread(fn):
    """fn() run in a new thread, so with an empty workspace."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return out[0]


def _workspace_bytes():
    return sum(buf.nbytes for buf in _batch._WS.buffers.values())


def test_verify_tiling_threads_get_the_serial_reports():
    # more threads than cores, each cycling through blocks of other shapes
    # than its neighbours, with frequent switches between them
    jobs = [(3, 24_000), (6, 3_400), (9, 480), (2, 70_000), (4, 900)]
    want = [tg.verify_tiling(n, samples=s, seed=s) for n, s in jobs]
    start = threading.Barrier(4)
    got = {}

    def run(k):
        start.wait(timeout=60)
        order = list(range(k, len(jobs))) + list(range(k))
        got[k] = [(i, tg.verify_tiling(jobs[i][0], samples=jobs[i][1], seed=jobs[i][1])) for i in order * 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for runs in got.values():
        assert len(runs) == 2 * len(jobs)
        assert all(rep == want[i] for i, rep in runs)


def test_verify_tiling_allocates_its_workspace_once():
    def peaks():
        out = []
        for samples in (20_000, 20_000, 200_000):
            tracemalloc.start()
            try:
                rep = tg.verify_tiling(3, samples=samples, seed=2, shard_size=20_000)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.mismatches == 0
        return out

    first, second, ten_shards = _in_fresh_thread(peaks)
    # the first call maps in the workspace; later calls, one shard or ten,
    # draw only small transients next to it
    assert second <= first and ten_shards <= first
    assert max(second, ten_shards) < first / 4


def test_verify_tiling_workspace_is_bounded_by_the_budget():
    def retained(n):
        block = _batch._TILING_BUDGET // n
        sizes = []
        for samples, shard_size in [(block, 65_536), (3 * block + 5, 3 * block), (block, block)]:
            for _ in range(2):
                tg.verify_tiling(n, samples=samples, seed=3, shard_size=shard_size)
                sizes.append(_workspace_bytes())
        return sizes

    for n in (1, 3):
        sizes = _in_fresh_thread(lambda: retained(n))
        # once a full block has been checked, nothing grows
        assert len(set(sizes[2:])) == 1
        # n = 1 has the most rows per block, and reserves 17.5 MiB
        assert max(sizes) <= 20 * 8 * _batch._TILING_BUDGET


def test_batch_engine_agrees_with_scalar_locate():
    rng = np.random.default_rng(46)
    for n in (2, 3):
        X = rng.uniform(-6, 6, (500, n))
        centers = np.array([tg.locate(tuple(row)).center for row in X], dtype=float)
        d = batch_dist(X, centers)
        assert (d <= 1.0 + 1e-9).all()


def test_hexagon_rings():
    rings = hexagon_rings(2.0)
    centers = [c for c, _ in rings]
    assert (0, 0) in centers
    assert len(set(centers)) == len(centers)
    offsets = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    for c, ring in rings:
        assert tg.in_lattice(c)
        assert max(abs(v) for v in c) <= 2
        assert len(ring) == 6
        for (ox, oy), v in zip(offsets, ring):
            assert v == (c[0] + ox, c[1] + oy)


@pytest.mark.parametrize("box", [math.nan, math.inf, -1.0, 101.0], ids=repr)
def test_hexagon_rings_rejects_a_box_outside_0_to_100(box):
    with pytest.raises(tg.DomainError, match="box halfwidth must be finite and in"):
        hexagon_rings(box)


def test_hexagon_rings_accepts_the_largest_box():
    assert len(hexagon_rings(100)) == len(list(lattice_window(2, 100)))


def test_locate_result_is_frozen():
    res = tg.locate((0.5, 0.3))
    with pytest.raises(AttributeError):
        res.center = (1, 1)
