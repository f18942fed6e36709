import numpy as np
import pytest

from antifourier import (
    FunctionSpec,
    Named,
    OutOfDomain,
    ParseError,
    Polynomial,
    Sampled,
    ValidationError,
    antiperiodic_defect,
    evaluate,
    parse_function_spec,
    render_function_spec,
    shift_gamma,
)
from conftest import catalog_specs


class TestEvaluate:
    def test_polynomial(self):
        spec = FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))
        assert evaluate(spec, 1.0) == 4.0
        assert evaluate(spec, -1.0) == 0.0

    def test_identity(self):
        spec = FunctionSpec(np.pi, Named("identity"))
        assert evaluate(spec, -np.pi) == -np.pi

    def test_sampled_interpolates(self):
        spec = FunctionSpec(1.0, Sampled((-1.0, 1.0), (0.0, 2.0)))
        assert evaluate(spec, 0.0) == 1.0
        assert evaluate(spec, 0.5) == 1.5

    def test_vectorized(self):
        spec = FunctionSpec(1.0, Polynomial((0.0, 1.0)))
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_array_equal(evaluate(spec, xs), xs)

    def test_out_of_domain(self):
        spec = FunctionSpec(1.0, Named("identity"))
        with pytest.raises(OutOfDomain):
            evaluate(spec, 1.0000001)
        with pytest.raises(OutOfDomain):
            evaluate(spec, np.array([0.0, -2.0]))

    def test_callable_sugar(self):
        spec = FunctionSpec(2.0, Named("const", (3.0,)))
        assert spec(1.0) == 3.0

    def test_sign_zero_is_zero(self):
        spec = FunctionSpec(1.0, Named("signum"))
        assert evaluate(spec, 0.0) == 0.0
        assert evaluate(spec, 0.5) == 1.0
        assert evaluate(spec, -0.5) == -1.0


class TestValidation:
    def test_nonpositive_half_width(self):
        with pytest.raises(ValidationError):
            FunctionSpec(0.0, Named("identity"))
        with pytest.raises(ValidationError):
            FunctionSpec(-1.0, Named("identity"))

    def test_empty_polynomial(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Polynomial(()))

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Named("renormalized-zeta"))

    def test_wrong_arity(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Named("const"))
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Named("identity", (3.0,)))

    def test_sampled_duplicate_abscissae(self):
        with pytest.raises(ValidationError, match="duplicate"):
            FunctionSpec(1.0, Sampled((-1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)))

    def test_sampled_not_increasing(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Sampled((-1.0, 0.5, 0.2, 1.0), (0.0, 1.0, 1.0, 0.0)))

    def test_sampled_endpoint_mismatch(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Sampled((-0.5, 1.0), (0.0, 1.0)))
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Sampled((-1.0, 0.5), (0.0, 1.0)))

    def test_sampled_too_short(self):
        with pytest.raises(ValidationError):
            FunctionSpec(1.0, Sampled((1.0,), (0.0,)))


class TestParse:
    def test_poly(self):
        spec = parse_function_spec("poly:1,2,1", 1.0)
        assert spec.body == Polynomial((1.0, 2.0, 1.0))

    def test_named(self):
        spec = parse_function_spec("named:identity", np.pi)
        assert spec.body == Named("identity")
        assert spec.L == np.pi

    def test_named_with_params(self):
        spec = parse_function_spec("named:const:2.5", 1.0)
        assert spec.body == Named("const", (2.5,))

    def test_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n-1,0\n0,1\n1,0\n", encoding="utf-8")
        spec = parse_function_spec(f"csv:{path}", 1.0)
        assert isinstance(spec.body, Sampled)
        assert spec.body.xs == (-1.0, 0.0, 1.0)
        assert evaluate(spec, -0.5) == 0.5

    def test_csv_no_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("-1,0\n1,2\n", encoding="utf-8")
        spec = parse_function_spec(f"csv:{path}", 1.0)
        assert spec.body.ys == (0.0, 2.0)

    def test_bad_prefix_position(self):
        with pytest.raises(ParseError) as info:
            parse_function_spec("fourier:1,2", 1.0)
        assert info.value.position == 0

    def test_bad_coefficient_position(self):
        with pytest.raises(ParseError) as info:
            parse_function_spec("poly:1,,2", 1.0)
        assert info.value.position == 7

    def test_unknown_named(self):
        with pytest.raises(ParseError):
            parse_function_spec("named:nope", 1.0)

    def test_bad_param(self):
        with pytest.raises(ParseError):
            parse_function_spec("named:const:zero", 1.0)

    def test_csv_duplicates_are_validation_errors(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("-1,0\n0,1\n0,2\n1,0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_function_spec(f"csv:{path}", 1.0)

    def test_csv_wrong_columns(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("-1,0,9\n1,0,9\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            parse_function_spec(f"csv:{path}", 1.0)


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["poly:1.0,2.0,1.0", "poly:-0.5", "named:identity", "named:const:2.5"],
    )
    def test_round_trip(self, text):
        spec = parse_function_spec(text, 1.0)
        again = parse_function_spec(render_function_spec(spec), 1.0)
        assert again == spec

    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "rt.csv"
        path.write_text("-2,0\n0,1\n2,0\n", encoding="utf-8")
        spec = parse_function_spec(f"csv:{path}", 2.0)
        again = parse_function_spec(render_function_spec(spec), 2.0)
        assert again == spec

    def test_render_unsourced_samples_fails(self):
        spec = FunctionSpec(1.0, Sampled((-1.0, 1.0), (0.0, 0.0)))
        with pytest.raises(ValidationError):
            render_function_spec(spec)


class TestDefect:
    def test_identity_defect_zero(self):
        assert antiperiodic_defect(FunctionSpec(np.pi, Named("identity"))) == 0.0

    def test_quadratic_defect(self):
        assert antiperiodic_defect(FunctionSpec(1.0, Polynomial((1.0, 2.0, 1.0)))) == 4.0

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
    def test_const_defect(self, c):
        assert antiperiodic_defect(FunctionSpec(1.0, Named("const", (c,)))) == 2 * c

    def test_defect_is_twice_gamma(self):
        for spec in catalog_specs():
            assert antiperiodic_defect(spec) == 2.0 * shift_gamma(spec)
