"""CSV and model-document codecs: round trips, error locality, no coercion."""

import math

import numpy as np
import pytest

import retroflux as rf
from retroflux.dataio import format_number, write_forecast_csv

RNG_SEED = 20260809


class TestLoadCsv:
    def test_basic(self):
        series = rf.load_timeseries_csv(b"t,value\n0,1.0\n1,2.5\n")
        assert series == rf.TimeSeries([0.0, 1.0], [1.0, 2.5])

    def test_crlf_and_missing_final_newline(self):
        series = rf.load_timeseries_csv(b"t,value\r\n0,1.0\r\n1,2.5")
        assert series == rf.TimeSeries([0.0, 1.0], [1.0, 2.5])

    def test_malformed_header(self):
        with pytest.raises(rf.MalformedHeaderError):
            rf.load_timeseries_csv(b"time,value\n0,1\n")
        with pytest.raises(rf.MalformedHeaderError):
            rf.load_timeseries_csv(b"")

    def test_non_monotonic_names_line(self):
        with pytest.raises(rf.NonMonotonicTimeError) as info:
            rf.load_timeseries_csv(b"t,value\n1,2.0\n0,1.0\n")
        assert "line 3" in str(info.value)

    def test_non_numeric_names_line(self):
        with pytest.raises(rf.NonNumericFieldError) as info:
            rf.load_timeseries_csv(b"t,value\n0,abc\n")
        assert "line 2" in str(info.value)

    def test_wrong_field_count(self):
        with pytest.raises(rf.NonNumericFieldError) as info:
            rf.load_timeseries_csv(b"t,value\n0,1\n1\n")
        assert "line 3" in str(info.value)

    def test_empty_body(self):
        with pytest.raises(rf.EmptyBodyError):
            rf.load_timeseries_csv(b"t,value\n")

    def test_rejects_non_finite_and_decorated_numbers(self):
        for bad in (b"inf", b"nan", b"-inf", b"1e999", b"1_0", b" 1"):
            with pytest.raises(rf.NonNumericFieldError):
                rf.load_timeseries_csv(b"t,value\n0," + bad + b"\n")

    def test_invalid_utf8_names_line(self):
        with pytest.raises(rf.NonNumericFieldError, match="line 3: invalid UTF-8"):
            rf.load_timeseries_csv(b"t,value\n0,1\n1,\xff\n")
        with pytest.raises(rf.MalformedHeaderError, match="line 1: invalid UTF-8"):
            rf.load_timeseries_csv(b"t,val\xffue\n0,1\n")

    def test_non_ascii_digits_name_line(self):
        data = "t,value\n0,1\n\u0661,\u0662\n".encode("utf-8")  # Arabic-Indic 1, 2
        with pytest.raises(rf.NonNumericFieldError, match="line 3: .*non-ASCII"):
            rf.load_timeseries_csv(data)

    def test_duplicate_time_rejected(self):
        with pytest.raises(rf.NonMonotonicTimeError):
            rf.load_timeseries_csv(b"t,value\n1,1\n1,2\n")


class TestWriteCsv:
    def test_integral_values_render_bare(self):
        assert rf.write_timeseries_csv(rf.TimeSeries([0.0], [1.0])) == b"t,value\n0,1\n"

    def test_negative_zero_preserved(self):
        data = rf.write_timeseries_csv(rf.TimeSeries([0.0], [-0.0]))
        assert data == b"t,value\n0,-0\n"
        back = rf.load_timeseries_csv(data)
        assert math.copysign(1.0, back.values[0]) < 0

    def test_round_trip_random_series(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            t = np.sort(rng.normal(0, 10, size=n) * 10.0 ** rng.integers(-6, 7))
            t = np.unique(t)
            v = rng.normal(size=t.size) * 10.0 ** rng.integers(-300, 300, size=t.size)
            series = rf.TimeSeries(t, v)
            again = rf.load_timeseries_csv(rf.write_timeseries_csv(series))
            assert again == series

    def test_forecast_csv_golden_bytes(self):
        times = [1.0, 2.5, 3.0]
        influence = rf.TimeSeries(times, [-0.0, -7.0, 1e16])
        rate = rf.TimeSeries(times, [2.0, -0.0, 12345678901234567.0])
        assert write_forecast_csv(influence, rate) == (
            b"t,value,rate\n1,-0,2\n2.5,-7,-0\n3,1e+16,1.2345678901234568e+16\n"
        )

    def test_format_number_shortest(self):
        assert format_number(1.0) == "1"
        assert format_number(-3.0) == "-3"
        assert format_number(0.1) == "0.1"
        assert float(format_number(0.30000000000000004)) == 0.30000000000000004


class TestModelDocument:
    def test_round_trip_plain(self):
        doc = rf.ModelDocument(params=rf.ModelParams(0.8, 0.3, 1.0))
        again = rf.decode_model_document(rf.encode_model_document(doc))
        assert again.params == doc.params
        assert again.forcing is None
        assert again.metadata == {}

    def test_round_trip_full(self):
        doc = rf.ModelDocument(
            params=rf.ModelParams(0.8, 0.3, 1.0),
            forcing=rf.ForcingSpec(
                theta=rf.GoodwillSpec(kappa=1.5, alpha=0.25),
                eta=rf.TimeSeries([-1.0, 0.0, 1.0], [0.5, 0.75, 1.0]),
            ),
            metadata={"source": "unit-test", "units": "arbitrary"},
        )
        again = rf.decode_model_document(rf.encode_model_document(doc))
        assert again.params == doc.params
        assert again.forcing.theta == doc.forcing.theta
        assert again.forcing.eta == doc.forcing.eta
        assert again.metadata == doc.metadata

    def test_round_trip_constant_eta(self):
        doc = rf.ModelDocument(
            params=rf.ModelParams(0.1, 0.2, 0.3), forcing=rf.ForcingSpec(eta=2.5)
        )
        again = rf.decode_model_document(rf.encode_model_document(doc))
        assert again.forcing.eta == 2.5 and again.forcing.theta is None

    def test_encoding_deterministic(self):
        doc = rf.ModelDocument(
            params=rf.ModelParams(0.8, 0.3, 1.0), metadata={"b": "2", "a": "1"}
        )
        assert rf.encode_model_document(doc) == rf.encode_model_document(doc)

    def test_missing_field_named(self):
        with pytest.raises(rf.MissingFieldError) as info:
            rf.decode_model_document('{"a": 1.0, "b": 2.0}')
        assert str(info.value) == "c"

    def test_unknown_field_named_with_path(self):
        with pytest.raises(rf.UnknownFieldError) as info:
            rf.decode_model_document('{"a": 1, "b": 0, "c": 1, "d": 9}')
        assert str(info.value) == "d"
        with pytest.raises(rf.UnknownFieldError) as info:
            rf.decode_model_document(
                '{"a": 1, "b": 0, "c": 1, "forcing": {"gamma": 1}}'
            )
        assert str(info.value) == "forcing.gamma"

    def test_invalid_kappa_is_type_mismatch(self):
        text = '{"a": 1, "b": 0, "c": 1, "forcing": {"kappa": -1, "alpha": 0.5}}'
        with pytest.raises(rf.TypeMismatchError) as info:
            rf.decode_model_document(text)
        assert "kappa" in str(info.value)

    def test_wrong_types_rejected(self):
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document('{"a": "one", "b": 0, "c": 1}')
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document('{"a": true, "b": 0, "c": 1}')
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document('{"a": 1, "b": 0, "c": -2}')
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document('{"a": 1, "b": 0, "c": 1, "metadata": {"k": 5}}')
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document("not json at all")

    def test_partial_theta_missing_alpha(self):
        text = '{"a": 1, "b": 0, "c": 1, "forcing": {"kappa": 1.0}}'
        with pytest.raises(rf.MissingFieldError) as info:
            rf.decode_model_document(text)
        assert str(info.value) == "forcing.alpha"

    def test_tabulated_eta_validation(self):
        text = '{"a": 1, "b": 0, "c": 1, "forcing": {"eta": [[0, 1], [0, 2]]}}'
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document(text)
        text = '{"a": 1, "b": 0, "c": 1, "forcing": {"eta": [[0, 1, 2]]}}'
        with pytest.raises(rf.TypeMismatchError):
            rf.decode_model_document(text)

    def test_decode_errors_are_named(self):
        huge = "9" * 400
        for text in (
            '{"a": %s, "b": 0.1, "c": 1}' % huge,
            '{"a": -%s, "b": 0.1, "c": 1}' % ("9" * 5000),
            '{"a": 0.8, "b": 0.1, "c": 1, "forcing": {"eta": %s}}' % huge,
            '{"a": 0.8, "b": 0.1, "c": 1, "forcing": {"eta": [[0, %s], [1, 2]]}}' % huge,
            b'{"a": 0.8, "b": 0.1, "c": 1, "metadata": {"k": "\xff"}}',
        ):
            with pytest.raises(rf.TypeMismatchError):
                rf.decode_model_document(text)

    def test_repeated_field_rejected(self):
        with pytest.raises(rf.TypeMismatchError, match="'a' appears more than once"):
            rf.decode_model_document('{"a": 0.8, "a": 0.1, "b": 0.1, "c": 1}')
        with pytest.raises(rf.TypeMismatchError, match="'k' appears more than once"):
            rf.decode_model_document('{"a": 0, "b": 0, "c": 1, "metadata": {"k": "1", "k": "2"}}')

    def test_full_precision_numbers(self):
        value = 0.1234567890123456789
        doc = rf.ModelDocument(params=rf.ModelParams(value, -value, value))
        again = rf.decode_model_document(rf.encode_model_document(doc))
        assert again.params.a == doc.params.a
