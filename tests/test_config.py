import pytest

from faemb.config import (
    ConfigError,
    PipelineConfig,
    apply_overrides,
    dump_defaults,
    load_config,
    parse_config,
)


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == PipelineConfig()

    def test_defaults_dump_roundtrips(self):
        assert parse_config(dump_defaults()) == PipelineConfig()

    def test_partial_file_overrides_only_named_keys(self):
        cfg = parse_config("[coding]\nn = 16\nmu = 0.5\n")
        assert cfg.n == 16
        assert cfg.mu == 0.5
        assert cfg.variant == "faemb"  # untouched default

    def test_drop_auto(self):
        assert parse_config("[whitening]\ndrop = auto\n").drop is None
        assert parse_config("[whitening]\ndrop = 12\n").drop == 12

    def test_all_violations_reported_together(self):
        text = "\n".join(
            [
                "[coding]",
                "n = 1",  # below minimum
                "mu = banana",  # unparseable
                "variant = vlad",  # not a choice
                "[nonsense]",  # unknown section
                "x = 1",
                "[itq]",
                "depth = 3",  # unknown key
            ]
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        v = err.value.violations
        assert len(v) == 5
        joined = "\n".join(v)
        assert "n = '1'" in joined
        assert "banana" in joined
        assert "vlad" in joined
        assert "[nonsense]" in joined
        assert "depth" in joined

    def test_range_checks(self):
        with pytest.raises(ConfigError, match="0, 1"):
            parse_config("[aggregation]\nalpha = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("[coding]\nouter_iters = -1\n")
        with pytest.raises(ConfigError):
            parse_config("[runtime]\nthreads = 0\n")
        with pytest.raises(ConfigError):
            parse_config("[whitening]\ndrop = -3\n")

    def test_newton_keys_are_unknown(self):
        # the solver settings are fixed constants; a file naming them is stale
        for section, key in (
            ("coding", "newton_tol"),
            ("coding", "newton_step"),
            ("coding", "newton_max_iters"),
            ("coding", "outer_tol"),
            ("aggregation", "dem_iters"),
            ("aggregation", "dem_tol"),
        ):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"[{section}]\n{key} = 1\n")

    def test_non_finite_floats_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[coding]\nmu = nan\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[aggregation]\nalpha = inf\n")

    def test_unparseable_structure_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config("key_without_section = 1\n")

    def test_paths_section(self):
        cfg = parse_config(
            "[paths]\ntrain = /data/train.faeb\nmodel_dir = /tmp/models\n"
        )
        assert cfg.train_path == "/data/train.faeb"
        assert cfg.model_dir == "/tmp/models"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("[itq]\nbits = 64\niters = 5\n")
        cfg = load_config(path)
        assert cfg.bits == 64
        assert cfg.itq_iters == 5


class TestOverrides:
    def test_none_values_are_ignored(self):
        cfg = apply_overrides(PipelineConfig(), n=None, mu=None)
        assert cfg == PipelineConfig()

    def test_values_replace_fields(self):
        cfg = apply_overrides(PipelineConfig(), n=32, variant="ffaemb")
        assert cfg.n == 32
        assert cfg.variant == "ffaemb"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(PipelineConfig(), wibble=3)

    def test_out_of_range_values_all_reported(self):
        with pytest.raises(ConfigError) as exc:
            apply_overrides(PipelineConfig(), threads=0, alpha=3.0, n=16)
        assert exc.value.violations == [
            "override threads = 0: must be >= 1",
            "override alpha = 3.0: must lie in (0, 1]",
        ]

    def test_non_finite_floats_all_reported(self):
        # a config file cannot hold these either: its float parser refuses them
        with pytest.raises(ConfigError) as exc:
            apply_overrides(PipelineConfig(), mu=float("inf"), alpha=float("nan"), s1=float("-inf"))
        assert exc.value.violations == [
            "override mu = inf: not finite",
            "override alpha = nan: not finite",
            "override s1 = -inf: not finite",
        ]


def test_dump_defaults_mentions_every_section():
    text = dump_defaults()
    for section in ("paths", "coding", "embedding", "whitening", "aggregation", "rotation", "itq", "runtime"):
        assert f"[{section}]" in text
    assert "drop = auto" in text
