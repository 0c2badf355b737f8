import pytest
from hypothesis import given
from hypothesis import strategies as st

from disclab.cli import FUNCTION_SPECS
from disclab.ode import EXAMPLE_SPECS
from disclab.specs import parse_spec
from disclab.weights import WEIGHT_SPECS

SCHEMAS = {"function": FUNCTION_SPECS, "example": EXAMPLE_SPECS, "weight": WEIGHT_SPECS}
FAMILIES = {"a": {"x": (float, 1.0), "n": (int, 2)}, "b": {}, "raw": str}


class TestGrammar:
    def test_defaults_fill_missing_keys(self):
        assert parse_spec("a", FAMILIES) == ("a", {"x": 1.0, "n": 2})
        assert parse_spec("a:", FAMILIES) == ("a", {"x": 1.0, "n": 2})
        assert parse_spec("a:n=5", FAMILIES) == ("a", {"x": 1.0, "n": 5})

    def test_values_are_converted_and_stripped(self):
        assert parse_spec("a: n = 3 ,x=0.5", FAMILIES) == ("a", {"x": 0.5, "n": 3})

    def test_raw_payload_is_passed_through(self):
        assert parse_spec("raw:1,2=3,,", FAMILIES) == ("raw", {"payload": "1,2=3,,"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("c:x=1", "unknown spec 'c'"),
            ("a:y=1", "unknown key 'y'"),
            ("b:x=1", "unknown key 'x'"),
            ("a:x=1,x=2", "repeated key 'x'"),
            ("a:1", "expected key=value, got '1'"),
            ("a:x=1,", "expected key=value, got ''"),
            ("a:n=1.5", "for n in spec 'a:n=1.5'"),
        ],
    )
    def test_rejections(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_spec(spec, FAMILIES)


# Spec-shaped text: known and unknown names, keys and values, arbitrary
# separators.  Only parse_spec runs on it; no series is ever built from a
# drawn value (``lacunary:terms=40`` alone would ask for 2**40 coefficients).
names = st.sampled_from(sorted({n for s in SCHEMAS.values() for n in s})) | st.text(max_size=8)
keys = st.sampled_from(["gamma", "c", "q", "terms", "eps", "n", "alpha"]) | st.text(max_size=6)
values = st.text(max_size=10) | st.floats().map(repr) | st.integers(-5, 50).map(str)
tokens = st.tuples(keys, st.sampled_from(["=", "", "=="]), values).map("".join)
spec_text = st.text() | st.builds(
    lambda name, sep, toks: name + sep + ",".join(toks),
    names,
    st.sampled_from([":", "", "::"]),
    st.lists(tokens, max_size=4),
)


@given(spec_text, st.sampled_from(sorted(SCHEMAS)))
def test_parse_spec_returns_or_raises_value_error(spec, schema):
    families = SCHEMAS[schema]
    try:
        name, params = parse_spec(spec, families)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return
    assert name in families
    if isinstance(families[name], dict):
        assert params.keys() == families[name].keys()
