import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from oracles import container_naive

from faemb.aggregate import ImageSignature
from faemb.binary import BinaryCode, fit_itq
from faemb.coding import CodingModel
from faemb.aggregate import WhiteningModel, fit_rotation_norm, fit_whitening, whiten_batch
from faemb.retrieval import GroundTruth, RetrievalIndex, build_binary_index, build_index
from faemb.core import DescriptorSet
from faemb.storage import (
    FORMAT_MAJOR,
    FORMAT_MINOR,
    StorageError,
    load_codes,
    load_descriptors,
    load_ground_truth,
    load_index,
    load_model,
    load_signatures,
    read_container,
    save_codes,
    save_descriptors,
    save_ground_truth,
    save_index,
    save_model,
    save_signatures,
    write_container,
)


def toy_sets(rng, n_images=3, count=7, dim=4):
    return [
        DescriptorSet(
            image_id=f"img{i:02d}", descriptors=rng.standard_normal((count, dim))
        )
        for i in range(n_images)
    ]


def storage_error_naming(path, match, load):
    """``load(path)`` raises one StorageError matching ``match`` that names ``path``."""
    with pytest.raises(StorageError, match=match) as exc:
        load(path)
    assert str(path) in str(exc.value)


def descriptor_sections(sets):
    return {
        "model_type": "descriptors",
        "ids": json.dumps([s.image_id for s in sets]),
        "counts": np.array([s.count for s in sets], dtype=np.int64),
        "values": np.concatenate([s.descriptors for s in sets]).astype(np.float32),
    }


class TestDescriptorFiles:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        sets = toy_sets(rng)
        path = tmp_path / "corpus.faeb"
        save_descriptors(path, sets)
        loaded = load_descriptors(path)
        assert [s.image_id for s in loaded] == [s.image_id for s in sets]
        for a, b in zip(loaded, sets):
            # values are stored at single precision by design
            assert a.descriptors.dtype == np.float64
            np.testing.assert_array_equal(
                a.descriptors, b.descriptors.astype(np.float32).astype(np.float64)
            )

    def test_bytes_match_reference_encoder(self, tmp_path):
        rng = np.random.default_rng(15)
        sets = toy_sets(rng, n_images=4) + [
            DescriptorSet(image_id="ünï", descriptors=rng.standard_normal((2, 4)))
        ]
        path = tmp_path / "corpus.faeb"
        save_descriptors(path, sets)
        assert path.read_bytes() == container_naive(descriptor_sections(sets))

    def test_variable_counts_per_image(self, tmp_path):
        rng = np.random.default_rng(1)
        sets = [
            DescriptorSet(image_id="a", descriptors=rng.standard_normal((3, 5))),
            DescriptorSet(image_id="b", descriptors=rng.standard_normal((11, 5))),
        ]
        path = tmp_path / "c.faeb"
        save_descriptors(path, sets)
        loaded = load_descriptors(path)
        assert loaded[0].count == 3 and loaded[1].count == 11

    def test_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "c.faeb"
        save_descriptors(path, toy_sets(rng))
        raw = bytearray(path.read_bytes())
        raw[-6] ^= 0xFF  # flip a byte of the last descriptor value
        path.write_bytes(bytes(raw))
        storage_error_naming(path, "checksum mismatch in section 'values'", load_descriptors)

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "c.faeb"
        save_descriptors(path, toy_sets(rng))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        storage_error_naming(path, "truncated file", load_descriptors)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.faeb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        storage_error_naming(path, "magic", load_descriptors)

    @pytest.mark.parametrize(
        "counts",
        [[7, 7, 6], [7, 7, 8], [7, 7], [7, 0, 14], [7, 14, 0]],
        ids=["too_few", "too_many", "one_short", "zero", "zero_last"],
    )
    def test_counts_that_disagree_with_values_rejected(self, tmp_path, counts):
        sections = descriptor_sections(toy_sets(np.random.default_rng(17)))
        sections["counts"] = np.array(counts, dtype=np.int64)
        path = tmp_path / "c.faeb"
        path.write_bytes(container_naive(sections))
        storage_error_naming(path, "counts do not match", load_descriptors)

    def test_coding_container_rejected(self, tmp_path):
        path = tmp_path / "coding.famb"
        save_model(path, CodingModel(anchors=np.eye(3), mu=0.01, variant="ffaemb"))
        storage_error_naming(path, "not a descriptor file", load_descriptors)

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_descriptors(tmp_path / "c.faeb", [])

    def test_mixed_dims_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        sets = [
            DescriptorSet(image_id="a", descriptors=rng.standard_normal((2, 3))),
            DescriptorSet(image_id="b", descriptors=rng.standard_normal((2, 4))),
        ]
        with pytest.raises(ValueError, match="mixed"):
            save_descriptors(tmp_path / "c.faeb", sets)


class TestGroundTruthFiles:
    def test_roundtrip(self, tmp_path):
        gt = GroundTruth(
            entries={
                "q1": (frozenset({"a", "b"}), frozenset({"j"})),
                "q2": (frozenset({"c"}), frozenset()),
            }
        )
        path = tmp_path / "gt.txt"
        save_ground_truth(path, gt)
        assert load_ground_truth(path).entries == gt.entries

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q | relevant: a | junk: \n\n\nr | relevant: b,c | junk: d\n")
        gt = load_ground_truth(path)
        assert gt.relevant_for("r") == {"b", "c"}
        assert gt.junk_for("q") == frozenset()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q relevant a\n")
        with pytest.raises(StorageError, match="expected"):
            load_ground_truth(path)

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("q | relevant: a | junk: \nq | relevant: b | junk: \n")
        with pytest.raises(StorageError, match="duplicate"):
            load_ground_truth(path)

    def test_reserved_characters_rejected(self, tmp_path):
        gt = GroundTruth(entries={"q|d": (frozenset({"a"}), frozenset())})
        with pytest.raises(ValueError, match="reserved"):
            save_ground_truth(tmp_path / "gt.txt", gt)


class TestContainer:
    def test_roundtrip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(5)
        sections = {
            "floats": rng.standard_normal((3, 4)),
            "ints": np.arange(6, dtype=np.int64).reshape(2, 3),
            "bytes": np.array([1, 2, 255], dtype=np.uint8),
            "text": "héllo world",
            "scalar": np.float64(3.25),
        }
        path = tmp_path / "m.famb"
        write_container(path, sections)
        out = read_container(path)
        assert set(out) == set(sections)
        np.testing.assert_array_equal(out["floats"], sections["floats"])
        np.testing.assert_array_equal(out["ints"], sections["ints"])
        np.testing.assert_array_equal(out["bytes"], sections["bytes"])
        assert out["text"] == "héllo world"
        assert out["scalar"].shape == ()
        assert float(out["scalar"]) == 3.25

    def test_dtypes_preserved(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"a": np.zeros(2, dtype=np.uint8)})
        assert read_container(path)["a"].dtype == np.uint8

    def test_newer_minor_version_accepted(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"x": np.ones(2)}, minor=FORMAT_MINOR + 7)
        np.testing.assert_array_equal(read_container(path)["x"], np.ones(2))

    def test_other_major_version_refused(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"x": np.ones(2)})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_MAJOR + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="major"):
            read_container(path)

    def test_section_corruption_detected(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"x": np.ones(4)})
        raw = bytearray(path.read_bytes())
        raw[-6] ^= 0x01  # inside the payload of the last section
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="checksum"):
            read_container(path)

    @pytest.mark.parametrize(
        "sections",
        [
            {"text": "héllo world", "empty_text": ""},
            {"f64": np.linspace(-1.0, 2.0, 12).reshape(3, 4)},
            {"i64": np.array([[-(2**62), -1], [0, 2**62]], dtype=np.int64)},
            {"u8": np.array([0, 1, 127, 255], dtype=np.uint8)},
            {"f32": np.array([[-1.5, 0.1], [3e38, -0.0]], dtype=np.float32)},
            {"f64_0d": np.float64(3.25), "i64_0d": np.int64(-7), "u8_0d": np.uint8(9)},
            {
                "none": np.zeros(0),
                "no_rows": np.zeros((0, 5)),
                "no_cols": np.zeros((4, 0), dtype=np.int64),
            },
            {"transposed": np.arange(12.0).reshape(3, 4).T},
            {f"emb/{i:06d}": np.full((i % 3, 2), float(i)) for i in range(150)},
        ],
        ids=["str", "f64", "i64", "u8", "f32", "0d", "empty", "non_contiguous", "150_sections"],
    )
    def test_bytes_match_reference_encoder(self, tmp_path, sections):
        path = tmp_path / "m.famb"
        write_container(path, sections, minor=FORMAT_MINOR + 3)
        assert path.read_bytes() == container_naive(sections, FORMAT_MAJOR, FORMAT_MINOR + 3)
        out = read_container(path)
        assert list(out) == list(sections)
        for name, value in sections.items():
            if isinstance(value, str):
                assert out[name] == value
            else:
                assert out[name].dtype == value.dtype and out[name].shape == value.shape
                np.testing.assert_array_equal(out[name], value)

    @pytest.mark.parametrize(
        "fault, match",
        [
            ("magic", "bad magic"),
            ("major", "major version"),
            ("truncated", "truncated file"),
            ("checksum", "checksum mismatch"),
            ("payload_size", "payload size"),
            ("kind", "unknown kind"),
        ],
        ids=["magic", "major", "truncated", "checksum", "payload_size", "kind"],
    )
    def test_every_structural_fault_names_the_file(self, tmp_path, fault, match):
        raw = bytearray(container_naive({"values": np.arange(5.0)}))
        start = 16 + 4 + len("values") + 16  # the only section's kind u32

        def relabel(kind, extent):
            raw[start : start + 4] = struct.pack("<I", kind)
            raw[start + 8 : start + 16] = struct.pack("<Q", extent)
            raw[-4:] = struct.pack("<I", zlib.crc32(raw[start:-4]))

        if fault == "magic":
            raw[:4] = b"FAEB"
        elif fault == "major":
            raw[4:8] = struct.pack("<I", FORMAT_MAJOR + 1)
        elif fault == "truncated":
            del raw[-3:]
        elif fault == "checksum":
            raw[-6] ^= 0x01
        elif fault == "payload_size":
            relabel(0, 6)  # six float64 values in five values' bytes
        else:
            relabel(9, 5)
        path = tmp_path / "m.famb"
        path.write_bytes(bytes(raw))
        storage_error_naming(path, match, read_container)

    def test_truncated_last_section_refused(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"a": np.ones(8), "b": np.arange(40.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(StorageError, match="truncated file.*section 'b'"):
            read_container(path)

    def test_table_entry_past_eof_refused_without_allocating(self, tmp_path):
        path = tmp_path / "m.famb"
        write_container(path, {"x": np.ones(4)})
        raw = bytearray(path.read_bytes())
        entry = 16 + 4 + len("x")  # offset u64 | length u64 of the only entry
        raw[entry : entry + 16] = struct.pack("<QQ", 2**40, 2**40)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(StorageError, match="truncated file"):
                read_container(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_write_and_read_stream_one_section_at_a_time(self, tmp_path):
        rng = np.random.default_rng(16)
        section = 2**20
        sections = {f"s{i:02d}": rng.standard_normal(section // 8) for i in range(20)}
        path = tmp_path / "m.famb"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            write_container(path, sections)
            write_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = read_container(path)
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # writing builds no image of the file; reading holds the arrays it
        # returns plus one section's bytes and its copy
        assert write_peak < section
        assert read_peak < 22 * section
        for name, value in sections.items():
            np.testing.assert_array_equal(out[name], value)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_container(tmp_path / "m.famb", {"x": np.ones(2, dtype=np.float16)})

    def test_empty_container_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_container(tmp_path / "m.famb", {})


class TestModelRoundtrips:
    def test_coding_model(self, tmp_path):
        rng = np.random.default_rng(6)
        model = CodingModel(anchors=rng.standard_normal((5, 3)), mu=0.02, variant="ffaemb")
        path = tmp_path / "coding.famb"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, CodingModel)
        np.testing.assert_array_equal(loaded.anchors, model.anchors)
        assert loaded.mu == model.mu and loaded.variant == model.variant

    def test_whitening_model(self, tmp_path):
        rng = np.random.default_rng(7)
        model = fit_whitening(rng.standard_normal((50, 6)), drop=2)
        path = tmp_path / "whitening.famb"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, WhiteningModel)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        np.testing.assert_array_equal(loaded.basis, model.basis)
        assert loaded.out_dim == 4
        assert loaded.floored == model.floored == 0
        # the in-memory model and the file's round alike: both bases are C-ordered
        Phi = rng.standard_normal((30, 6))
        assert whiten_batch(Phi, loaded).tobytes() == whiten_batch(Phi, model).tobytes()

    def test_whitening_floored_count_is_optional(self, tmp_path):
        model = fit_whitening(np.hstack([np.eye(5), np.zeros((5, 1))]), drop=1)
        path = tmp_path / "whitening.famb"
        save_model(path, model)
        assert load_model(path).floored == model.floored == 2  # a zero column, rank 4 of 5 rows
        sections = read_container(path)
        del sections["floored"]
        write_container(path, sections)
        assert load_model(path).floored is None
        save_model(path, load_model(path))
        assert "floored" not in read_container(path)
        write_container(path, {**sections, "floored": np.ones(2, dtype=np.int64)})
        with pytest.raises(StorageError, match="'floored' is not a scalar"):
            load_model(path)

    def test_rotation_norm_model(self, tmp_path):
        rng = np.random.default_rng(8)
        model = fit_rotation_norm(rng.standard_normal((40, 5)), keep=3)
        path = tmp_path / "rn.famb"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, WhiteningModel)
        np.testing.assert_array_equal(loaded.mean, np.zeros(5))
        np.testing.assert_array_equal(loaded.basis, model.basis)
        assert loaded.out_dim == 3

    def test_itq_model(self, tmp_path):
        rng = np.random.default_rng(9)
        Psi = rng.standard_normal((80, 10))
        model = fit_itq(Psi, bits=6, iters=10, seed=0).model
        path = tmp_path / "itq.famb"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        np.testing.assert_array_equal(loaded.pca, model.pca)
        np.testing.assert_array_equal(loaded.rotation, model.rotation)
        assert loaded.bits == 6

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.famb", object())

    def test_wrong_container_rejected(self, tmp_path):
        path = tmp_path / "x.famb"
        write_container(path, {"model_type": "mystery"})
        with pytest.raises(StorageError, match="model_type"):
            load_model(path)


class TestSignatureCodeIndexFiles:
    def test_signatures_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        sigs = [
            ImageSignature(values=rng.standard_normal(6), image_id=f"s{i}")
            for i in range(4)
        ] + [ImageSignature(values=np.zeros(6), image_id="dead", degenerate=True)]
        path = tmp_path / "signatures.famb"
        save_signatures(path, sigs)
        loaded = load_signatures(path)
        assert [s.image_id for s in loaded] == [s.image_id for s in sigs]
        for a, b in zip(loaded, sigs):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.degenerate == b.degenerate

    def test_codes_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        codes = [
            BinaryCode(
                packed=np.packbits(rng.integers(0, 2, 12).astype(np.uint8), bitorder="little"),
                n_bits=12,
                image_id=f"c{i}",
            )
            for i in range(5)
        ]
        path = tmp_path / "codes.famb"
        save_codes(path, codes)
        loaded = load_codes(path)
        for a, b in zip(loaded, codes):
            np.testing.assert_array_equal(a.packed, b.packed)
            assert a.n_bits == 12 and a.image_id == b.image_id

    def test_real_index_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        sigs = [
            ImageSignature(values=rng.standard_normal(4), image_id=f"i{i}")
            for i in range(6)
        ]
        index = build_index(sigs)
        path = tmp_path / "index.famb"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert loaded.mode == "real" and loaded.width == 4
        np.testing.assert_array_equal(loaded.vectors, index.vectors)

    def test_binary_index_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        codes = [
            BinaryCode(
                packed=np.packbits(rng.integers(0, 2, 10).astype(np.uint8), bitorder="little"),
                n_bits=10,
                image_id=f"b{i}",
            )
            for i in range(3)
        ]
        index = build_binary_index(codes)
        path = tmp_path / "index.famb"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.mode == "binary" and loaded.width == 10
        np.testing.assert_array_equal(loaded.vectors, index.vectors)

    def test_type_confusion_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        sigs = [ImageSignature(values=rng.standard_normal(3), image_id="x")]
        path = tmp_path / "signatures.famb"
        save_signatures(path, sigs)
        with pytest.raises(StorageError):
            load_codes(path)
        with pytest.raises(StorageError):
            load_index(path)
