import dataclasses

import numpy as np
import pytest

from colmode._fields import ConfigFields, count, real
from colmode.errors import ValidationError
from colmode.gaussian_core import ModelParams, Preset
from colmode.null_models import NullKind, NullModelSpec
from colmode.pipeline import PipelineConfig, bandlimit, demodulate
from colmode.thresholds import NoiseInputSpec
from colmode.trajectory import SourceTag, TrajectoryConfig, TrajectoryRecord

NOT_NUMBERS = [True, False, np.True_, "0.5", "1", None, [1.0], {"x": 1}]


class TestReal:
    @pytest.mark.parametrize("value", [2, 2.5, -1e-300, np.int64(3), np.float64(0.25),
                                       np.float32(0.5), np.uint8(7)])
    def test_finite_numbers_read_as_floats(self, value):
        x = real(value, "x")
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("value", NOT_NUMBERS + [float("nan"), float("inf"),
                                                     np.float64("-inf"), 10**400])
    def test_everything_else_names_the_field(self, value):
        with pytest.raises(ValidationError, match="^rate must be a finite number"):
            real(value, "rate")

    def test_bounds(self):
        assert real(0.0, "x", at_least=0.0) == 0.0
        with pytest.raises(ValidationError, match="^x must be > 0"):
            real(0.0, "x", above=0.0)
        with pytest.raises(ValidationError, match="^x must be >= 1"):
            real(0.5, "x", at_least=1.0)


class TestCount:
    @pytest.mark.parametrize("value, want", [(3, 3), (1e5, 100000), (np.int64(-4), -4),
                                             (np.float64(8.0), 8), (2**70, 2**70)])
    def test_integral_numbers_read_as_ints(self, value, want):
        n = count(value, "n")
        assert type(n) is int and n == want

    @pytest.mark.parametrize("value", NOT_NUMBERS + [2.5, 2000.7, float("nan"), float("inf")])
    def test_everything_else_names_the_field(self, value):
        with pytest.raises(ValidationError, match="^n_steps must be an integer"):
            count(value, "n_steps")

    def test_bound(self):
        with pytest.raises(ValidationError, match="^ensemble must be >= 1, got 0"):
            count(0, "ensemble", at_least=1)


def _configs(num):
    """One instance of each config class, every number passed through num."""
    return [
        ModelParams(G=num(0), kappa_a=num(1), kappa_b=num(1), n_a=num(0), n_b=num(0),
                    preset=Preset.CLOSED_FORM),
        TrajectoryConfig(dt=num(1), n_steps=num(100),
                         master_seed=num(9), burn_in=num(2)),
        PipelineConfig(bandwidth=num(1), integration_time=num(10), demod_frequency=num(0),
                       bootstrap_resamples=num(20)),
        NullModelSpec(kind=NullKind.SHARED_NOISE, target_bandwidth=num(2), target_power=num(1),
                      correlation=num(1), gain=num(0), seed=num(5)),
        NoiseInputSpec(B=num(400000), C_eff=num(1), omega_col=num(6), T_amb=num(300),
                       R_eff=num(50)),
    ]


class TestConfigClasses:
    @pytest.mark.parametrize("num", [np.int64, np.float64])
    def test_numpy_scalars_are_numbers(self, num):
        for plain, numpy_built in zip(_configs(lambda v: v), _configs(num)):
            assert numpy_built == plain
            assert numpy_built.to_dict() == plain.to_dict()
            assert all(type(v) in (int, float, str, type(None))
                       for v in numpy_built.to_dict().values())

    def test_bool_and_fraction_are_refused(self):
        with pytest.raises(ValidationError, match="^bandwidth must be a finite number"):
            PipelineConfig(bandwidth=True, integration_time=10.0)
        with pytest.raises(ValidationError, match="^bootstrap_resamples must be an integer"):
            PipelineConfig(bandwidth=1.0, integration_time=10.0, bootstrap_resamples=99.5)
        with pytest.raises(ValidationError, match="^G must be a finite number"):
            ModelParams(G=True, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0)
        with pytest.raises(ValidationError, match="^n_steps must be an integer"):
            TrajectoryConfig(dt=0.1, n_steps="2000")

    def test_from_dict_names_unknown_and_missing_fields(self):
        with pytest.raises(ValidationError, match=r"unknown PipelineConfig fields: \['bogus'\]"):
            PipelineConfig.from_dict({"bandwidth": 1.0, "integration_time": 10.0, "bogus": 1})
        with pytest.raises(ValidationError,
                           match=r"missing TrajectoryConfig fields: \['n_steps'\]"):
            TrajectoryConfig.from_dict({"dt": 0.1})
        with pytest.raises(ValidationError, match="needs a JSON object"):
            NullModelSpec.from_dict([1, 2])

    def test_every_field_is_checked_by_the_one_rule(self):
        """Every field of every config class is declared with checked, and
        each real or count field refuses True under its own name (the fields
        that may be None left out, so that no cross-field check runs first)."""
        examples = {type(c): c for c in _configs(lambda v: v)}
        assert set(ConfigFields.__subclasses__()) == set(examples)
        for cls, example in examples.items():
            fields = dataclasses.fields(cls)
            optional = {f.name: None for f in fields if f.default is None}
            for f in fields:
                assert "check" in f.metadata, f"{cls.__name__}.{f.name}"
                kind, _ = f.metadata["check"]
                if kind is real or kind is count:
                    with pytest.raises(ValidationError, match=f"^{f.name} must be"):
                        dataclasses.replace(example, **{**optional, f.name: True})

    def test_digests_are_pinned(self):
        # record params_hash and analysis config_hash values must never drift
        params = ModelParams(G=0.25, kappa_a=1.0, kappa_b=1.0, n_a=0.0, n_b=0.0,
                             preset=Preset.CLOSED_FORM)
        assert params.digest() == "c2afe795039c"
        assert ModelParams(G=0.2, kappa_a=1.0, kappa_b=1.5, n_a=0.3, n_b=0.1,
                           delta_a=0.05, delta_b=-0.02).digest() == "b15a538bc5d4"
        assert PipelineConfig(bandwidth=1.0, integration_time=10.0).digest() == "f108ae1b8da6"


class TestRecordNumbers:
    @pytest.mark.parametrize("dt", [0, -0.01, "0.01", True, float("nan")])
    def test_record_dt_must_be_positive_number(self, dt):
        with pytest.raises(ValidationError, match="^dt must be"):
            TrajectoryRecord(samples=np.zeros((10, 4)), dt=dt, source=SourceTag.QUANTUM, seed=0)

    def test_record_seed_must_be_integer(self):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            TrajectoryRecord(samples=np.zeros((10, 4)), dt=0.1, source=SourceTag.QUANTUM, seed=1.9)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, "1", True])
    def test_record_kappa_must_be_positive_number(self, kappa):
        rec = TrajectoryRecord(samples=np.random.default_rng(0).standard_normal((400, 4)),
                               dt=0.1, source=SourceTag.QUANTUM, seed=0, meta={"kappa": kappa})
        with pytest.raises(ValidationError, match="^kappa must be"):
            bandlimit(rec, 1.0)

    @pytest.mark.parametrize("f0", [True, "0.1", None])
    def test_demodulation_frequency_must_be_number(self, f0):
        rec = TrajectoryRecord(samples=np.zeros((10, 4)), dt=0.1, source=SourceTag.QUANTUM, seed=0)
        with pytest.raises(ValidationError, match="^demodulation frequency must be"):
            demodulate(rec, f0)
