"""CSV and model-document codecs: round trips, error locality, no coercion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retroflux as rf
from retroflux.dataio import _emit_csv, _load_plain, format_number, write_forecast_csv

RNG_SEED = 20260809


def _reference_format_number(value):
    """format_number as it was before it became repr without a trailing ".0"."""
    if value == 0.0:
        return "-0" if math.copysign(1.0, value) < 0 else "0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _reference_field(token, line_number, column):
    if token != token.strip() or "_" in token:
        raise rf.NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not a plain decimal"
        )
    try:
        value = float(token)
    except ValueError:
        raise rf.NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise rf.NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not finite"
        )
    return value


def _reference_load(data):
    """The per-line parser as it was before the vectorised pass."""
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        error = rf.MalformedHeaderError if line_number == 1 else rf.NonNumericFieldError
        raise error(f"line {line_number}: invalid UTF-8 ({exc.reason})") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines or lines[0] != "t,value":
        got = lines[0] if lines else ""
        raise rf.MalformedHeaderError(f"expected header {'t,value'!r}, got {got!r}")
    if not text.isascii():
        line_number = next(n for n, line in enumerate(lines, 1) if not line.isascii())
        raise rf.NonNumericFieldError(
            f"line {line_number}: {lines[line_number - 1]!r} has a non-ASCII "
            "character; fields must be plain decimals"
        )
    times, values = [], []
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise rf.NonNumericFieldError(
                f"line {line_number}: expected 2 comma-separated fields, "
                f"got {len(fields)}"
            )
        t = _reference_field(fields[0], line_number, "t")
        v = _reference_field(fields[1], line_number, "value")
        if times and t <= times[-1]:
            raise rf.NonMonotonicTimeError(
                f"line {line_number}: time {_reference_format_number(t)} does not "
                f"increase past {_reference_format_number(times[-1])}"
            )
        times.append(t)
        values.append(v)
    if not times:
        raise rf.EmptyBodyError("CSV has a header but no records")
    return rf.TimeSeries(np.array(times), np.array(values))


def _outcome(load, data):
    """The parsed bits, or the error class and message."""
    try:
        series = load(data)
    except rf.RetrofluxError as exc:
        return type(exc), str(exc)
    return series.times.tobytes(), series.values.tobytes()


# fields that float() reads differently from the CSV contract, or not at all
_ODD_FIELDS = st.sampled_from(
    ["+1", ".5", "5.", "1E5", "1e-3", "-0", "007", " 1", "1 ", "1_0", "inf", "-inf",
     "nan", "NaN", "1e999", "", "x", "1.2.3", "+-1", "e5", "1e", "--1", "\t2"]
)
_FIELDS = st.one_of(
    _ODD_FIELDS,
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
_TIME_FORMATS = st.sampled_from(["{}", "{}.0", "{}e0", "+{}", "{}.", "0{}", "{}E-0"])


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(["t,value"] * 12 + ["t,value\r", "time,value", ""]))
    lines = [header]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["record"] * 24 + ["any", "blank", "one", "three", "four"]
        ))
        value = draw(_FIELDS)
        time = draw(_TIME_FORMATS).format(i) if kind != "any" else draw(_FIELDS)
        if draw(st.integers(0, 29)) == 0:  # a repeated or decreasing time
            time = draw(st.sampled_from(["0", str(i - 1), "-5"]))
        lines.append({
            "record": f"{time},{value}",
            "any": f"{time},{value}",
            "blank": "",
            "one": time,
            "three": f"{time},{value},{value}",
            "four": f"{time},{value},{i + 0.5},{value}",
        }[kind])
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    endings = draw(st.lists(
        st.sampled_from(["\n", "\r\n"] * 8 + ["\r", "\r\r\n"]),
        min_size=len(lines), max_size=len(lines),
    )) if ending == "mixed" else [ending] * len(lines)
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


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

    @settings(max_examples=400, deadline=None)
    @given(_csv_texts())
    def test_matches_per_line_reference(self, text):
        data = text.encode("ascii")
        expected = _outcome(_reference_load, data)
        assert _outcome(rf.load_timeseries_csv, data) == expected
        assert _outcome(rf.load_timeseries_csv, text) == expected
        plain = _load_plain(text)  # the one-pass parse takes all good input, and only it
        got = None if plain is None else (plain.times.tobytes(), plain.values.tobytes())
        assert got == (expected if isinstance(expected[0], bytes) else None)

    def test_one_pass_takes_plain_and_crlf_bodies(self):
        for text in ("t,value\n0,1\n1.5,-2e-3\n", "t,value\r\n-0,+1\r\n.5,1E5",
                     "t,value\n0,1\r"):
            assert _load_plain(text) == _reference_load(text)
        for text in ("t,value\n0, 1\n", "t,value\n0,1\n\n", "t,value\n0,1,2\n",
                     "t,value\n0,inf\n", "t,value\n1,0\n0,1\n"):
            assert _load_plain(text) is None

    @pytest.mark.parametrize("text", [
        "t,value\n0,1\n\n1,2\n", "t,value\n\n0,1\n", "t,value\n0,1\n\n",
        "t,value\r\n0,1\r\n\r\n", "t,value\n#1,2\n", "t,value\n0,1\n#1,2\n",
        "t,value\n0,\t1\n", "t,value\n0\t,1\n", "t,value\n",
    ])
    def test_one_pass_refuses_what_loadtxt_would_skip(self, text):
        # loadtxt skips blank lines, comments and whitespace, and warns on no data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _load_plain(text) is None
            expected = _outcome(_reference_load, text)
            assert isinstance(expected[0], type)
            assert _outcome(rf.load_timeseries_csv, text) == expected


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

    def test_columns_match_format_number_join(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        bits = rng.integers(0, 2**63, size=4000, dtype=np.uint64)
        raw = bits.view(np.float64) * np.where(rng.random(bits.size) < 0.5, -1.0, 1.0)
        special = [0.0, -0.0, 1.0, -7.0, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, -1e16,
                   1e16 + 2, 9007199254740993.0, 123456789012345.0, 5e-324, -5e-324,
                   2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1e-7, 1e22, 2.5]
        scaled = rng.normal(size=2000) * 10.0 ** rng.integers(-20, 20, size=2000)
        column = np.concatenate([raw[np.isfinite(raw)], special, np.round(scaled), scaled])
        other = rng.permutation(column)

        values = column.tolist()
        assert list(map(format_number, values)) == list(
            map(_reference_format_number, values)
        )

        def reference(header, *columns):
            fields = [map(_reference_format_number, c.tolist()) for c in columns]
            return "\n".join([header, *map(",".join, zip(*fields)), ""]).encode()

        assert _emit_csv("t,value", column, other) == reference("t,value", column, other)
        assert _emit_csv("a", column) == reference("a", column)

    def test_format_number_shortest(self):
        assert format_number(1.0) == "1"
        assert format_number(-3.0) == "-3"
        assert format_number(0.1) == "0.1"
        assert float(format_number(0.30000000000000004)) == 0.30000000000000004

    def test_format_number_non_finite_is_repr(self):
        for value in (math.inf, -math.inf, math.nan):
            assert format_number(value) == repr(value)


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
