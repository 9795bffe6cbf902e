import tracemalloc

import numpy as np
import pytest

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

from oracles import ap_naive, search_naive


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
