import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import faemb.cli
import faemb.storage
from oracles import container_naive
from faemb.cli import main
from faemb.aggregate import ImageSignature
from faemb.config import parse_config
from faemb.storage import (
    load_codes,
    load_descriptors,
    load_index,
    load_model,
    load_signatures,
    save_signatures,
)


def run(*argv):
    rc = main(list(argv))
    assert rc == 0, f"command failed: {argv}"


def assert_one_storage_error(capsys, path):
    """stderr holds one JSON line: a StorageError naming ``path``."""
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    payload = json.loads(err_lines[0])
    assert payload["error"] == "StorageError"
    assert str(path) in payload["message"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Two end-to-end CLI runs: a noiseless corpus and a noisy one.

    The noiseless corpus makes retrieval quality exact (identical images per
    cluster); the noisy one has full-rank signatures for the binary leg.
    """
    root = tmp_path_factory.mktemp("cli")
    clean = root / "clean"
    noisy = root / "noisy"
    for d, sigma, seed in ((clean, 0.0, 3), (noisy, 0.3, 4)):
        run(
            "synth",
            "--out-dir", str(d),
            "--clusters", "5",
            "--per-cluster", "3",
            "--descriptors", "30",
            "--dim", "6",
            "--sigma", str(sigma),
            "--seed", str(seed),
        )
        corpus = d / "corpus.faeb"
        run(
            "train-coding",
            "--train", str(corpus),
            "--out", str(d / "coding.famb"),
            "--n", "4",
            "--mu", "0.01",
            "--variant", "ffaemb",
            "--seed", "0",
        )
        run(
            "embed",
            "--in", str(corpus),
            "--coding", str(d / "coding.famb"),
            "--out", str(d / "embedded.famb"),
            "--variant", "ffaemb",
        )
        run(
            "fit-agg",
            "--in", str(d / "embedded.famb"),
            "--out", str(d / "whitening.famb"),
        )
        run(
            "aggregate",
            "--in", str(d / "embedded.famb"),
            "--whitening", str(d / "whitening.famb"),
            "--out", str(d / "signatures.famb"),
            "--threads", "2",
        )
        run(
            "index",
            "--in", str(d / "signatures.famb"),
            "--out", str(d / "index.famb"),
        )
    return root


class TestPipelineArtifacts:
    def test_all_stage_outputs_exist(self, workspace):
        for name in (
            "corpus.faeb",
            "ground_truth.txt",
            "coding.famb",
            "embedded.famb",
            "whitening.famb",
            "signatures.famb",
            "index.famb",
        ):
            assert (workspace / "clean" / name).exists(), name

    def test_corpus_contents(self, workspace):
        sets = load_descriptors(workspace / "clean" / "corpus.faeb")
        assert len(sets) == 15
        assert all(s.descriptors.shape == (30, 6) for s in sets)

    def test_signatures_are_unit_norm(self, workspace):
        sigs = load_signatures(workspace / "clean" / "signatures.famb")
        assert len(sigs) == 15
        for s in sigs:
            np.testing.assert_allclose(np.linalg.norm(s.values), 1.0, atol=1e-9)

    def test_index_matches_signatures(self, workspace):
        index = load_index(workspace / "clean" / "index.famb")
        assert index.mode == "real"
        assert len(index) == 15


class TestEmbedLog:
    def test_logs_the_model_variant(self, workspace, tmp_path, capsys):
        # the configured variant defaults to faemb; the model here is ffaemb
        d = workspace / "clean"
        run(
            "embed",
            "--in", str(d / "corpus.faeb"),
            "--coding", str(d / "coding.famb"),
            "--out", str(tmp_path / "embedded.famb"),
        )
        err = capsys.readouterr().err
        assert "(ffaemb, threads=1)" in err
        assert "(faemb," not in err


class TestEval:
    def test_noiseless_corpus_scores_perfect_map(self, workspace, capsys):
        d = workspace / "clean"
        run(
            "eval",
            "--index", str(d / "index.famb"),
            "--queries", str(d / "signatures.famb"),
            "--gt", str(d / "ground_truth.txt"),
        )
        out = capsys.readouterr().out
        map_lines = [l for l in out.splitlines() if l.startswith("mAP")]
        assert len(map_lines) == 1
        assert float(map_lines[0].split()[1]) == 1.0

    def test_per_query_lines_present(self, workspace, capsys):
        d = workspace / "clean"
        run(
            "eval",
            "--index", str(d / "index.famb"),
            "--queries", str(d / "signatures.famb"),
            "--gt", str(d / "ground_truth.txt"),
        )
        out = capsys.readouterr().out
        ap_lines = [l for l in out.splitlines() if l.startswith("AP ")]
        assert len(ap_lines) == 15


class TestSearch:
    def test_self_ranks_first_with_zero_distance(self, workspace, capsys):
        d = workspace / "clean"
        run(
            "search",
            "--index", str(d / "index.famb"),
            "--queries", str(d / "signatures.famb"),
            "--query-id", "c000_i00",
        )
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert first == ["c000_i00", "1", "c000_i00", "0.000000"]

    def test_top_k_limits_output(self, workspace, capsys):
        d = workspace / "clean"
        run(
            "search",
            "--index", str(d / "index.famb"),
            "--queries", str(d / "signatures.famb"),
            "--query-id", "c001_i01",
            "--k", "4",
        )
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    def test_each_input_file_is_read_once(self, workspace, monkeypatch, capsys):
        reads = []
        read_container = faemb.storage.read_container

        def counting_read(path):
            reads.append(Path(path).name)
            return read_container(path)

        monkeypatch.setattr(faemb.cli, "read_container", counting_read)
        monkeypatch.setattr(faemb.storage, "read_container", counting_read)
        d = workspace / "clean"
        run(
            "search",
            "--index", str(d / "index.famb"),
            "--queries", str(d / "signatures.famb"),
            "--query-id", "c000_i00",
            "--k", "1",
        )
        assert sorted(reads) == ["index.famb", "signatures.famb"]

    def test_unknown_query_id_fails_cleanly(self, workspace, capsys):
        d = workspace / "clean"
        rc = main(
            [
                "search",
                "--index", str(d / "index.famb"),
                "--queries", str(d / "signatures.famb"),
                "--query-id", "ghost",
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "ghost" in err["message"]

    def test_overflowing_query_fails_cleanly(self, workspace, tmp_path, capsys):
        d = workspace / "clean"
        sig = load_signatures(d / "signatures.famb")[0]
        huge = ImageSignature(values=sig.values * 1e200, image_id=sig.image_id)
        save_signatures(tmp_path / "huge.famb", [huge])
        for k in ("3", "0"):
            rc = main(
                [
                    "search",
                    "--index", str(d / "index.famb"),
                    "--queries", str(tmp_path / "huge.famb"),
                    "--k", k,
                ]
            )
            assert rc == 1
            out, err = capsys.readouterr()
            assert out == ""
            payload = json.loads(err.splitlines()[-1])
            assert payload["error"] == "ValueError"
            assert "finite" in payload["message"]


class TestRotationLeg:
    def test_fit_and_apply(self, workspace):
        d = workspace / "noisy"
        run(
            "fit-rn",
            "--in", str(d / "signatures.famb"),
            "--out", str(d / "rn.famb"),
            "--keep", "8",
        )
        run(
            "aggregate",
            "--in", str(d / "embedded.famb"),
            "--whitening", str(d / "whitening.famb"),
            "--rn", str(d / "rn.famb"),
            "--out", str(d / "sig_short.famb"),
        )
        sigs = load_signatures(d / "sig_short.famb")
        assert all(s.dim == 8 for s in sigs)
        for s in sigs:
            np.testing.assert_allclose(np.linalg.norm(s.values), 1.0, atol=1e-9)


class TestBinaryLeg:
    def test_itq_encode_index_eval(self, workspace, capsys):
        d = workspace / "noisy"
        run(
            "fit-itq",
            "--in", str(d / "signatures.famb"),
            "--out", str(d / "itq.famb"),
            "--bits", "8",
            "--seed", "0",
        )
        run(
            "encode",
            "--in", str(d / "signatures.famb"),
            "--itq", str(d / "itq.famb"),
            "--out", str(d / "codes.famb"),
        )
        codes = load_codes(d / "codes.famb")
        assert len(codes) == 15
        assert all(c.n_bits == 8 for c in codes)
        run(
            "index",
            "--in", str(d / "codes.famb"),
            "--out", str(d / "bindex.famb"),
        )
        index = load_index(d / "bindex.famb")
        assert index.mode == "binary"
        capsys.readouterr()
        run(
            "eval",
            "--index", str(d / "bindex.famb"),
            "--queries", str(d / "codes.famb"),
            "--gt", str(d / "ground_truth.txt"),
        )
        out = capsys.readouterr().out
        map_lines = [l for l in out.splitlines() if l.startswith("mAP")]
        assert len(map_lines) == 1
        assert 0.0 <= float(map_lines[0].split()[1]) <= 1.0


class TestConfigCommand:
    def test_dump_defaults_roundtrips(self, capsys):
        run("config", "--dump-defaults")
        text = capsys.readouterr().out
        assert parse_config(text) == parse_config("")

    def test_resolved_config_reflects_flags(self, capsys):
        run("config", "--n", "32", "--variant", "ffaemb")
        out = capsys.readouterr().out
        assert "n=32" in out
        assert "variant='ffaemb'" in out

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[coding]\nn = 12\nmu = 0.5\n")
        run("config", "--config", str(cfg), "--n", "64")
        out = capsys.readouterr().out
        assert "n=64" in out  # flag beats file
        assert "mu=0.5" in out


class TestErrorHandling:
    def test_missing_input_exits_one_with_json_line(self, tmp_path, capsys):
        missing = tmp_path / "nope.famb"
        rc = main(["fit-agg", "--in", str(missing)])
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        payload = json.loads(err_lines[-1])
        assert payload["error"] == "FileNotFoundError"
        assert str(missing) in payload["message"]

    def test_invalid_config_exits_one_with_json_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[coding]\nn = banana\n")
        rc = main(["config", "--config", str(cfg)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert "banana" in payload["message"]

    def test_corrupt_file_exits_one(self, workspace, tmp_path, capsys):
        src = (workspace / "clean" / "coding.famb").read_bytes()
        bad = tmp_path / "coding.famb"
        bad.write_bytes(src[: len(src) - 3])
        rc = main(["embed", "--in", str(workspace / "clean" / "corpus.faeb"), "--coding", str(bad)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"] == "StorageError"

    def test_short_numeric_payload_is_storage_error(self, tmp_path, capsys):
        # a utf8 section relabelled f64 keeps its valid checksum: five payload
        # bytes for a shape of five float64 values
        raw = bytearray(container_naive({"values": "abcde"}))
        start = 16 + 4 + len("values") + 16
        raw[start : start + 4] = struct.pack("<I", 0)
        raw[-4:] = struct.pack("<I", zlib.crc32(raw[start:-4]))
        bad = tmp_path / "sigs.famb"
        bad.write_bytes(bytes(raw))
        rc = main(["index", "--in", str(bad), "--out", str(tmp_path / "index.famb")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["error"] == "StorageError"
        assert "'values'" in payload["message"]

    def test_stale_newton_config_key_exits_one_with_json_line(self, tmp_path, capsys):
        # solver settings that became fixed constants are stale keys
        cfg = tmp_path / "old.cfg"
        cfg.write_text(
            "[coding]\nnewton_step = 0.1\nouter_tol = 1e-6\n"
            "[aggregation]\ndem_iters = 100\ndem_tol = 1e-3\n"
        )
        rc = main(["config", "--config", str(cfg)])
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "ConfigError"
        for key in ("newton_step", "outer_tol", "dem_iters", "dem_tol"):
            assert f"unknown key '{key}'" in payload["message"]

    def test_embed_of_empty_descriptor_file_exits_one_with_json_line(
        self, workspace, tmp_path, capsys
    ):
        empty = tmp_path / "empty.faeb"
        empty.write_bytes(
            struct.pack("<4sIIQ", b"FAEB", 1, 6, 0) + struct.pack("<I", zlib.crc32(b""))
        )
        rc = main(
            [
                "embed",
                "--in", str(empty),
                "--coding", str(workspace / "clean" / "coding.famb"),
                "--out", str(tmp_path / "embedded.famb"),
            ]
        )
        assert rc == 1
        assert_one_storage_error(capsys, empty)

    def test_aggregate_of_empty_embedded_file_exits_one_with_json_line(self, tmp_path, capsys):
        empty = tmp_path / "embedded.famb"
        empty.write_bytes(
            container_naive(
                {"model_type": "embedded", "ids": "[]", "n": np.int64(4), "d": np.int64(6)}
            )
        )
        rc = main(
            [
                "aggregate",
                "--in", str(empty),
                "--whitening", str(tmp_path / "whitening.famb"),
                "--out", str(tmp_path / "signatures.famb"),
            ]
        )
        assert rc == 1
        assert_one_storage_error(capsys, empty)

    def test_index_of_empty_entry_file_exits_one_with_json_line(self, tmp_path, capsys):
        files = {
            "sigs.famb": {
                "model_type": "signatures",
                "ids": "[]",
                "values": np.zeros((0, 4)),
                "degenerate": np.zeros(0, dtype=np.uint8),
            },
            "codes.famb": {
                "model_type": "codes",
                "ids": "[]",
                "packed": np.zeros((0, 8), dtype=np.uint8),
                "n_bits": np.int64(64),
            },
        }
        for name, sections in files.items():
            path = tmp_path / name
            path.write_bytes(container_naive(sections))
            rc = main(["index", "--in", str(path), "--out", str(tmp_path / "index.famb")])
            assert rc == 1
            assert_one_storage_error(capsys, path)
        assert not (tmp_path / "index.famb").exists()

    def test_negative_k_exits_one_with_json_line(self, workspace, capsys):
        d = workspace / "clean"
        rc = main(
            [
                "search",
                "--index", str(d / "index.famb"),
                "--queries", str(d / "signatures.famb"),
                "--k", "-3",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "ValueError"
        assert "--k" in payload["message"]

    def test_drop_below_minus_one_exits_one_with_json_line(self, workspace, tmp_path, capsys):
        d = workspace / "clean"
        rc = main(
            [
                "fit-agg",
                "--in", str(d / "embedded.famb"),
                "--out", str(tmp_path / "whitening.famb"),
                "--drop", "-5",
            ]
        )
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "ValueError"
        assert "--drop" in payload["message"]
        assert not (tmp_path / "whitening.famb").exists()

    def test_drop_minus_one_means_auto(self, capsys):
        run("config", "--drop", "-1")
        assert "drop=None" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        d = workspace / "clean"
        corpus = d / "corpus.faeb"
        outs = []
        for attempt in range(2):
            out_dir = tmp_path / f"run{attempt}"
            out_dir.mkdir()
            run(
                "train-coding",
                "--train", str(corpus),
                "--out", str(out_dir / "coding.famb"),
                "--n", "4",
                "--mu", "0.01",
                "--variant", "ffaemb",
                "--seed", "0",
            )
            run(
                "embed",
                "--in", str(corpus),
                "--coding", str(out_dir / "coding.famb"),
                "--out", str(out_dir / "embedded.famb"),
            )
            outs.append(out_dir)
        for name in ("coding.famb", "embedded.famb"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_faemb_reruns_are_byte_identical(self, workspace, tmp_path):
        corpus = workspace / "noisy" / "corpus.faeb"
        outs = []
        for attempt in range(2):
            out_dir = tmp_path / f"run{attempt}"
            out_dir.mkdir()
            run(
                "train-coding",
                "--train", str(corpus),
                "--out", str(out_dir / "coding.famb"),
                "--n", "4",
                "--mu", "0.01",
                "--variant", "faemb",
                "--seed", "0",
            )
            run(
                "embed",
                "--in", str(corpus),
                "--coding", str(out_dir / "coding.famb"),
                "--out", str(out_dir / "embedded.famb"),
                "--variant", "faemb",
            )
            outs.append(out_dir)
        assert load_model(outs[0] / "coding.famb").variant == "faemb"
        for name in ("coding.famb", "embedded.famb"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_rerun_matches_fixture_artifact(self, workspace, tmp_path):
        d = workspace / "clean"
        out = tmp_path / "again.famb"
        run(
            "train-coding",
            "--train", str(d / "corpus.faeb"),
            "--out", str(out),
            "--n", "4",
            "--mu", "0.01",
            "--variant", "ffaemb",
            "--seed", "0",
        )
        assert out.read_bytes() == (d / "coding.famb").read_bytes()


class TestBench:
    def test_tiny_benchmark_prints_ratio(self, capsys):
        run(
            "bench",
            "--n", "2",
            "--d", "3",
            "--count", "30",
            "--faemb-sample", "5",
        )
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "us/descriptor" in out


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "faemb" in capsys.readouterr().out
