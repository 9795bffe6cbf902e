import re
import tracemalloc
import warnings

import numpy as np
import pytest

from faemb import retrieval
from faemb.aggregate import ImageSignature
from faemb.binary import BinaryCode
from faemb.retrieval import (
    GroundTruth,
    MapReport,
    RetrievalIndex,
    average_precision,
    build_binary_index,
    build_index,
    evaluate_map,
    search,
    synth_corpus,
)

from oracles import ap_naive, evaluate_map_naive, search_naive, search_scan_naive


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_real_index(rng, n=12, d=5):
    sigs = [
        ImageSignature(values=unit(rng.standard_normal(d)), image_id=f"img{i}")
        for i in range(n)
    ]
    return sigs, build_index(sigs)


def make_code(bits, image_id=""):
    arr = np.asarray(bits, dtype=np.uint8)
    return BinaryCode(
        packed=np.packbits(arr, bitorder="little"), n_bits=len(arr), image_id=image_id
    )


class TestSearch:
    def test_matches_naive_real(self):
        rng = np.random.default_rng(0)
        sigs, index = make_real_index(rng)
        for _ in range(5):
            q = unit(rng.standard_normal(5))
            got = search(q, index)
            expected = search_naive(q, index.vectors, list(index.ids))
            assert [rid for rid, _ in got] == [rid for rid, _ in expected]
            np.testing.assert_allclose(
                [dist for _, dist in got], [dist for _, dist in expected], atol=1e-12
            )

    @pytest.mark.parametrize("n,d", [(1, 3), (700, 952), (257, 1088), (40, 9000)])
    def test_distances_identical_to_whole_matrix_form(self, n, d):
        # the scan runs block by block; every row must still reduce bit for bit
        # as the one-shot ((V - q) ** 2).sum(axis=1) does, in C or F order
        rng = np.random.default_rng(n + d)
        V = rng.standard_normal((n, d))
        q = V[n // 2] + 1e-3 * rng.standard_normal(d)
        diff = V - q
        expected = np.sqrt((diff * diff).sum(axis=1))
        for vectors in (V, np.asfortranarray(V)):
            index = RetrievalIndex(
                ids=tuple(map(str, range(n))), vectors=vectors, mode="real", width=d
            )
            got = dict(search(q, index))
            dist = np.array([got[str(i)] for i in range(n)])
            assert np.array_equal(dist, expected)

    def test_query_allocates_no_index_sized_temporary(self):
        rng = np.random.default_rng(6)
        n, d = 2000, 952  # 15 MB of index rows
        V = rng.standard_normal((n, d))
        index = RetrievalIndex(ids=tuple(map(str, range(n))), vectors=V, mode="real", width=d)
        search(V[0], index, k=10)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            search(V[1], index, k=10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_self_query_ranks_first(self):
        rng = np.random.default_rng(1)
        sigs, index = make_real_index(rng)
        ranked = search(sigs[4], index)
        assert ranked[0] == ("img4", 0.0)

    def test_stable_tie_order(self):
        a = ImageSignature(values=np.array([1.0, 0.0]), image_id="a")
        b = ImageSignature(values=np.array([0.0, 1.0]), image_id="b")
        c = ImageSignature(values=np.array([1.0, 0.0]), image_id="c")
        index = build_index([a, b, c])
        ranked = search(np.array([1.0, 0.0]), index)
        assert [rid for rid, _ in ranked] == ["a", "c", "b"]

    def test_top_k(self):
        rng = np.random.default_rng(2)
        _, index = make_real_index(rng)
        assert len(search(unit(rng.standard_normal(5)), index, k=3)) == 3

    def test_binary_search_counts_hamming(self):
        codes = [
            make_code([0, 0, 0, 0], "z"),
            make_code([1, 1, 0, 0], "two"),
            make_code([1, 0, 0, 0], "one"),
        ]
        index = build_binary_index(codes)
        ranked = search(make_code([0, 0, 0, 0]), index)
        assert ranked == [("z", 0.0), ("one", 1.0), ("two", 2.0)]

    def test_mode_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        sigs, real_index = make_real_index(rng, n=3)
        bin_index = build_binary_index([make_code([1, 0], "a"), make_code([0, 1], "b")])
        with pytest.raises(ValueError):
            search(sigs[0], bin_index)
        with pytest.raises(ValueError):
            search(make_code([1, 0]), real_index)
        with pytest.raises(ValueError):
            search(np.ones(2), bin_index)

    def test_query_width_checked(self):
        rng = np.random.default_rng(4)
        _, index = make_real_index(rng)
        with pytest.raises(ValueError):
            search(np.ones(6), index)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="unique"):
            RetrievalIndex(
                ids=("a", "a"), vectors=np.ones((2, 2)), mode="real", width=2
            )
        with pytest.raises(ValueError):
            build_index([])
        # a NaN row would rank differently in search and evaluate_map
        for bad in (np.nan, np.inf, 1e200):
            with pytest.raises(ValueError, match="finite"):
                RetrievalIndex(
                    ids=("a", "b"), vectors=np.array([[0.0, 1.0], [bad, 0.0]]), mode="real", width=2
                )


def count_scans(monkeypatch):
    """Patch ``_squared_scan`` to record how many rows each call scans."""
    scanned = []
    scan = retrieval._squared_scan

    def counting_scan(vectors, q, rows=None):
        scanned.append(len(vectors) if rows is None else len(rows))
        return scan(vectors, q, rows)

    monkeypatch.setattr(retrieval, "_squared_scan", counting_scan)
    return scanned


def top_k_case(seed):
    """A real index and queries built to catch a top-k shortcut.

    The index holds exact duplicates and one-ulp neighbours, and a group of
    rows at exactly the same distance from a centre point, wide enough to
    straddle the k = 1, 2 and 10 cuts; odd seeds round the rows, and every
    third seed moves index and queries far from the origin.  The queries
    are the centre, an index row and a random point.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 250))
    width = int(rng.integers(1, 40))
    scale = 10.0 ** rng.uniform(-3, 3)
    V = rng.standard_normal((n, width)) * scale
    if seed % 2:
        V = np.round(V, 1)
    centre = rng.standard_normal(width) * scale
    step = scale * 1e-2 * rng.standard_normal(width)
    tied = rng.choice(n, size=min(n // 2, 14), replace=False)
    # sign flips of one step: every squared difference is the same
    V[tied] = centre + step * rng.choice([-1.0, 1.0], size=(tied.size, width))
    for i in range(0, n - 2, 9):
        V[i + 1] = V[i]
        V[i + 2] = V[i]
        k = int(rng.integers(width))
        V[i + 2, k] = np.nextafter(V[i, k], np.inf)
    queries = [centre, V[int(rng.integers(n))].copy(), rng.standard_normal(width) * scale]
    if seed % 3 == 2:
        offset = 1e4 * np.abs(V).max() * rng.standard_normal(width)
        V += offset
        queries = [q + offset for q in queries]
    ids = tuple(f"r{i}" for i in range(n))
    return RetrievalIndex(ids=ids, vectors=V, mode="real", width=width), queries


def bitwise(ranking):
    return [(rid, float(dist).hex()) for rid, dist in ranking]


class TestTopKSearch:
    @pytest.mark.parametrize("seed", range(9))
    def test_bitwise_equal_full_scan(self, seed, monkeypatch):
        index, queries = top_k_case(seed)
        n = len(index)
        rescored = count_scans(monkeypatch)
        beyond_k = 0
        for q in queries:
            for k in (1, 2, 10, n - 1, n, n + 5, None):
                expected = search_scan_naive(q, index.vectors, index.ids, k)
                rescored.clear()
                assert bitwise(search(q, index, k)) == bitwise(expected), (seed, k)
                # one exact scan: all n rows, or the candidates of a top-k
                (scanned,) = rescored
                if k is None or k >= n:
                    assert scanned == n
                else:
                    assert k <= scanned <= n
                    beyond_k += scanned > k
        # the tied group and the offset make the cut itself need re-scoring
        assert beyond_k > 0

    def test_far_offset_stays_within_one_megabyte(self, monkeypatch):
        # the common offset puts every row inside the error bound, so the
        # exact fallback re-scores most rows of a 15 MB index
        rng = np.random.default_rng(9)
        n, d = 2000, 952
        V = rng.standard_normal((n, d)) + 1e6
        sigs = [ImageSignature(values=v, image_id=str(i)) for i, v in enumerate(V)]
        index = build_index(sigs)
        gt = GroundTruth(
            entries={str(i): (frozenset({str(i + 1), str(i + 2)}), frozenset()) for i in range(3)}
        )
        rescored = count_scans(monkeypatch)
        for run in (lambda: search(V[1], index, k=10), lambda: evaluate_map(sigs[:3], index, gt)):
            run()
            rescored.clear()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert max(rescored) > n // 2
            assert peak < 1 << 20

    def test_negative_k_rejected(self):
        rng = np.random.default_rng(10)
        sigs, index = make_real_index(rng)
        bin_index = build_binary_index([make_code([1, 0], "a"), make_code([0, 1], "b")])
        for query, idx in ((sigs[0], index), (make_code([1, 1]), bin_index)):
            with pytest.raises(ValueError, match="k must be"):
                search(query, idx, k=-1)
            assert search(query, idx, k=0) == []

    def test_non_finite_query_rejected(self):
        rng = np.random.default_rng(11)
        sigs, index = make_real_index(rng, n=4)
        huge = ImageSignature(values=sigs[0].values * 1e200, image_id="img0")
        gt = GroundTruth(entries={"img0": (frozenset({"img1"}), frozenset())})
        for query in (np.array([np.nan, 0, 0, 0, 0]), np.array([0, np.inf, 0, 0, 0]), huge):
            for k in (None, 2):
                with pytest.raises(ValueError, match="finite"):
                    search(query, index, k)
        with pytest.raises(ValueError, match="finite"):
            evaluate_map([huge], index, gt)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(["r1", "r2", "x"], {"r1", "r2"}) == 1.0

    def test_textbook_value(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
        ap = average_precision(["r1", "x", "r2", "y"], {"r1", "r2"})
        np.testing.assert_allclose(ap, 5.0 / 6.0)

    def test_denominator_counts_missing_relevant(self):
        ap = average_precision(["r1", "x"], {"r1", "r2"})
        np.testing.assert_allclose(ap, 0.5)

    def test_junk_positions_close_up(self):
        # junk occupies rank 2; removing it promotes r2 to rank 2
        ap = average_precision(["r1", "j", "r2"], {"r1", "r2"}, junk={"j"})
        np.testing.assert_allclose(ap, 1.0)

    def test_junk_insertion_invariance(self):
        rng = np.random.default_rng(5)
        ranked = [f"d{i}" for i in range(8)]
        relevant = {"d1", "d4", "d6"}
        base = average_precision(ranked, relevant)
        spiked = list(ranked)
        for pos in (0, 3, 7):
            spiked.insert(pos, f"junk{pos}")
        junk = {"junk0", "junk3", "junk7"}
        np.testing.assert_allclose(
            average_precision(spiked, relevant, junk=junk), base
        )

    def test_matches_naive(self):
        rng = np.random.default_rng(6)
        ids = [f"d{i}" for i in range(15)]
        for _ in range(20):
            ranked = list(rng.permutation(ids))
            relevant = set(rng.choice(ids, size=4, replace=False))
            junk = set(rng.choice([i for i in ids if i not in relevant], size=2, replace=False))
            np.testing.assert_allclose(
                average_precision(ranked, relevant, junk=junk),
                ap_naive(ranked, relevant, frozenset(junk)),
            )

    def test_empty_relevant_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="empty relevant"):
            assert average_precision(["a", "b"], set()) == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            average_precision(["a", "a"], {"a"})


class TestEvaluateMap:
    def build_fixture(self):
        # two tight pairs and one off-cluster image
        sigs = [
            ImageSignature(values=unit([1.0, 0.0, 0.05]), image_id="a1"),
            ImageSignature(values=unit([1.0, 0.05, 0.0]), image_id="a2"),
            ImageSignature(values=unit([0.0, 1.0, 0.05]), image_id="b1"),
            ImageSignature(values=unit([0.05, 1.0, 0.0]), image_id="b2"),
            ImageSignature(values=unit([0.3, 0.3, 1.0]), image_id="solo"),
        ]
        gt = GroundTruth(
            entries={
                "a1": (frozenset({"a2"}), frozenset()),
                "a2": (frozenset({"a1"}), frozenset()),
                "b1": (frozenset({"b2"}), frozenset()),
                "b2": (frozenset({"b1"}), frozenset()),
            }
        )
        return sigs, build_index(sigs), gt

    def test_clustered_queries_score_one(self):
        sigs, index, gt = self.build_fixture()
        report = evaluate_map(sigs[:4], index, gt)
        assert isinstance(report, MapReport)
        np.testing.assert_allclose(report.mean_average_precision, 1.0)
        assert set(report.per_query) == {"a1", "a2", "b1", "b2"}

    def test_query_id_removed_from_ranking_and_relevant(self):
        sigs, index, gt_ignored = self.build_fixture()
        # ground truth that (incorrectly) lists the query as its own match:
        # the evaluator must strip it from both sides
        gt = GroundTruth(entries={"a1": (frozenset({"a1", "a2"}), frozenset())})
        report = evaluate_map([sigs[0]], index, gt)
        np.testing.assert_allclose(report.mean_average_precision, 1.0)

    def test_missing_ground_truth_raises(self):
        sigs, index, gt = self.build_fixture()
        with pytest.raises(KeyError, match="solo"):
            evaluate_map([sigs[4]], index, gt)

    def test_empty_queries_rejected(self):
        _, index, gt = self.build_fixture()
        with pytest.raises(ValueError):
            evaluate_map([], index, gt)

    def test_mixed_quality_mean(self):
        sigs = [
            ImageSignature(values=unit([1.0, 0.0]), image_id="q"),
            ImageSignature(values=unit([1.0, 0.1]), image_id="near"),
            ImageSignature(values=unit([0.0, 1.0]), image_id="far"),
        ]
        index = build_index(sigs)
        gt = GroundTruth(
            entries={
                "q": (frozenset({"near"}), frozenset()),
                "near": (frozenset({"far"}), frozenset()),
            }
        )
        report = evaluate_map(sigs[:2], index, gt)
        # "q" ranks near first (AP 1); "near" ranks q first, far second (AP 1/2)
        np.testing.assert_allclose(report.per_query["q"], 1.0)
        np.testing.assert_allclose(report.per_query["near"], 0.5)
        np.testing.assert_allclose(report.mean_average_precision, 0.75)


def stress_case(seed, mode):
    """Index, queries and ground truth built to catch a ranking shortcut.

    A third of the rows repeat an earlier row exactly or with one coordinate
    one ulp away, and some indexes sit far from the origin; most queries are index rows (so they tie with themselves
    and their copies); ground truth mixes in junk, the query's own id, ids
    missing from the index, empty relevant sets and queries missing from
    the index.  There are more queries than one block holds.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 400))
    if mode == "real":
        width = int(rng.integers(1, 40))
        V = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-3, 3)
        if seed % 2:
            V = np.round(V, 1)
        if seed % 3 == 2:
            # a common offset: distances cancel, the GEMM's rounding matters
            V += 1e3 * np.abs(V).max() * rng.standard_normal(width)
        for i in range(0, n - 2, 9):
            V[i + 1] = V[i]
            V[i + 2] = V[i]
            k = int(rng.integers(width))
            V[i + 2, k] = np.nextafter(V[i, k], np.inf)
        rows = V
    else:
        width = int(rng.integers(1, 100))
        bits = rng.integers(0, 2, (n, width)).astype(np.uint8)
        bits[1::9] = bits[::9][: len(bits[1::9])]
        rows = np.packbits(bits, axis=1, bitorder="little")
    ids = tuple(f"r{i}" for i in range(n))
    index = RetrievalIndex(ids=ids, vectors=rows, mode=mode, width=width)
    block = retrieval._SCORE_BLOCK_BYTES // (8 * n)  # no block holds more queries
    queries, entries = [], {}
    pool = list(ids) + ["gone0", "gone1", "gone2"]
    for k in range(block + 40):
        i = int(rng.integers(n))
        inside = rng.random() < 0.85
        qid = ids[i] if inside else f"out{k}"
        if mode == "real":
            v = V[i] if inside or rng.random() < 0.5 else rng.standard_normal(width)
            queries.append(ImageSignature(values=v, image_id=qid))
        else:
            code = rows[i] if inside else np.packbits(
                rng.integers(0, 2, width).astype(np.uint8), bitorder="little"
            )
            queries.append(BinaryCode(packed=code, n_bits=width, image_id=qid))
        near = [ids[j] for j in range(max(0, i - 3), min(n, i + 4))]
        relevant = set(rng.choice(near + pool, size=int(rng.integers(0, 6))))
        if rng.random() < 0.1:
            relevant = set()
        elif rng.random() < 0.3:
            relevant.add(qid)
        junk = set(rng.choice(near + pool, size=int(rng.integers(0, 5)))) - relevant
        if rng.random() < 0.3:
            junk.add(qid)
        entries[qid] = (frozenset(relevant), frozenset(junk - relevant))
    assert len(queries) > block
    return queries, index, GroundTruth(entries=entries)


def run_with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sum("empty relevant set" in str(w.message) for w in caught)


class TestEvaluateMapBatched:
    @pytest.mark.parametrize("seed", range(6))
    def test_real_aps_bitwise_equal_per_query_path(self, seed, monkeypatch):
        queries, index, gt = stress_case(seed, "real")
        (mean, expected), expected_warnings = run_with_warnings(
            evaluate_map_naive, queries, index, gt
        )
        scans = count_scans(monkeypatch)
        report, n_warnings = run_with_warnings(evaluate_map, queries, index, gt)
        assert report.per_query == expected
        assert report.mean_average_precision == mean
        assert n_warnings == expected_warnings > 0
        # one exact scan of the relevant rows per ranked query; any further
        # scan re-scored rows inside the GEMM's error bound
        ranked = sum(
            bool((gt.relevant_for(q.image_id) - {q.image_id}) & set(index.ids)) for q in queries
        )
        assert len(scans) > ranked

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_aps_bitwise_equal_per_query_path(self, seed):
        queries, index, gt = stress_case(seed, "binary")
        (mean, expected), expected_warnings = run_with_warnings(
            evaluate_map_naive, queries, index, gt
        )
        report, n_warnings = run_with_warnings(evaluate_map, queries, index, gt)
        assert report.per_query == expected
        assert report.mean_average_precision == mean
        assert n_warnings == expected_warnings > 0

    def test_validation_errors_match_per_query_path(self):
        rng = np.random.default_rng(5)
        sigs, real_index = make_real_index(rng, n=4)
        codes = [make_code([1, 0, 1], f"img{i}") for i in range(4)]
        bin_index = build_binary_index(codes)
        gt = GroundTruth(entries={f"img{i}": (frozenset({"img3"}), frozenset()) for i in range(3)})
        cases = [
            (sigs[:2] + [codes[0], sigs[3]], real_index),  # mode mismatch before missing gt
            (sigs[:1] + [sigs[3], codes[0]], real_index),  # missing gt first
            (codes[:2] + [sigs[0]], bin_index),
            (codes[:1] + [make_code([1, 0], "img1")], bin_index),  # bit lengths differ
            ([make_code([1, 0, 1, 1], "img2")], bin_index),
        ]
        for queries, index in cases:
            with pytest.raises((KeyError, ValueError)) as want:
                evaluate_map_naive(queries, index, gt)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                evaluate_map(queries, index, gt)

    def test_memory_stays_within_one_block(self):
        rng = np.random.default_rng(8)
        n, d = 2000, 952  # an unblocked score matrix would take 32 MB
        V = rng.standard_normal((n, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        sigs = [ImageSignature(values=v, image_id=str(i)) for i, v in enumerate(V)]
        gt = GroundTruth(
            entries={str(i): (frozenset({str(i ^ 1)}), frozenset()) for i in range(n)}
        )
        index = build_index(sigs)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            report = evaluate_map(sigs, index, gt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(report.per_query) == n
        assert peak < 8 << 20


class TestGroundTruth:
    def test_relevant_junk_overlap_rejected(self):
        with pytest.raises(ValueError, match="both relevant and junk"):
            GroundTruth(entries={"q": (frozenset({"a"}), frozenset({"a"}))})

    def test_lookup_api(self):
        gt = GroundTruth(entries={"q": (frozenset({"a"}), frozenset({"j"}))})
        assert gt.relevant_for("q") == {"a"}
        assert gt.junk_for("q") == {"j"}
        assert "q" in gt and "other" not in gt


class TestSynthCorpus:
    def test_deterministic(self):
        sets1, gt1 = synth_corpus(3, 2, 4, 0.1, seed=7, descriptors_per_image=10)
        sets2, gt2 = synth_corpus(3, 2, 4, 0.1, seed=7, descriptors_per_image=10)
        assert [s.image_id for s in sets1] == [s.image_id for s in sets2]
        for a, b in zip(sets1, sets2):
            np.testing.assert_array_equal(a.descriptors, b.descriptors)
        assert gt1.entries == gt2.entries

    def test_sigma_zero_duplicates_template(self):
        sets, _ = synth_corpus(2, 3, 5, 0.0, seed=0, descriptors_per_image=8)
        np.testing.assert_array_equal(sets[0].descriptors, sets[1].descriptors)
        np.testing.assert_array_equal(sets[0].descriptors, sets[2].descriptors)
        assert not np.array_equal(sets[0].descriptors, sets[3].descriptors)

    def test_relevance_is_mutual_and_excludes_self(self):
        _, gt = synth_corpus(2, 3, 4, 0.2, seed=1, descriptors_per_image=5)
        assert gt.relevant_for("c000_i00") == {"c000_i01", "c000_i02"}
        assert "c000_i00" not in gt.relevant_for("c000_i00")
        assert gt.junk_for("c001_i02") == frozenset()

    def test_shapes_and_ids(self):
        sets, gt = synth_corpus(2, 2, 6, 0.5, seed=3, descriptors_per_image=12)
        assert len(sets) == 4
        assert all(s.descriptors.shape == (12, 6) for s in sets)
        assert sets[0].image_id == "c000_i00"
        assert sets[3].image_id == "c001_i01"
        assert len(gt.entries) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_corpus(0, 2, 3, 0.1)
        with pytest.raises(ValueError):
            synth_corpus(2, 2, 3, -0.1)
