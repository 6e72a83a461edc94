"""Config parsing, coercion, precedence, and object builders."""

import dataclasses

import numpy as np
import pytest

from rkhs_reach import (
    AffinePolicy,
    BetaDisturbance,
    BoxSet,
    ConstantPolicy,
    CWHSystem,
    GaussianDisturbance,
    InputError,
    IntegratorChain,
    ZeroDisturbance,
    ZeroPolicy,
)
from rkhs_reach.config import (
    _CHOICES,
    CWH_SAMPLE_BOX,
    RunConfig,
    apply_overrides,
    build_disturbance,
    build_policy,
    build_problem,
    build_sampler,
    build_system,
    coerce_value,
    evaluation_points,
    grid_points,
    parse_box,
    parse_config_file,
    parse_control_grid,
    parse_grid,
    parse_point,
    validate,
)


def test_defaults_are_the_documented_baseline():
    cfg = RunConfig()
    assert cfg.system == "integrator" and cfg.dim == 2
    assert cfg.sigma == 0.1 and cfg.lam == 1.0
    assert cfg.normalize_weights is True
    assert cfg.horizon == 3 and cfg.samples == 1024 and cfg.seed == 0
    assert cfg.grid == "101x101:-1.1,1.1,-1.1,1.1"
    assert cfg.dp_grid == "201x201" and cfg.dp_quad == 25
    assert validate(cfg) is cfg


def test_coercion_rules():
    assert coerce_value("samples", " 512 ") == ("samples", 512)
    assert coerce_value("sigma", "0.25") == ("sigma", 0.25)
    assert coerce_value("lambda", "2.5") == ("lam", 2.5)  # file alias
    assert coerce_value("sampling_time", "0.1") == ("sampling_time", 0.1)
    assert coerce_value("policy", "zero") == ("policy", "zero")
    for raw in ("true", "1", "Yes", "on"):
        assert coerce_value("normalize_weights", raw)[1] is True
    for raw in ("false", "0", "No", "off"):
        assert coerce_value("normalize_weights", raw)[1] is False
    with pytest.raises(InputError, match="unknown configuration key"):
        coerce_value("bogus", "1")
    with pytest.raises(InputError, match="true or false"):
        coerce_value("normalize_weights", "maybe")
    with pytest.raises(InputError, match="samples expects an integer"):
        coerce_value("samples", "many")
    with pytest.raises(InputError, match="horizon expects an integer, got '2.0'"):
        coerce_value("horizon", "2.0")
    with pytest.raises(InputError, match="sigma expects a number"):
        coerce_value("sigma", "fast")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "samples = 256   # trailing comment\n"
        "\n"
        "lambda = 0.5\n"
        "normalize_weights = off\n"
        "policy = constant:0.25\n"
    )
    values = parse_config_file(path)
    assert values == {
        "samples": 256,
        "lam": 0.5,
        "normalize_weights": False,
        "policy": "constant:0.25",
    }

    bad = tmp_path / "bad.cfg"
    bad.write_text("samples 256\n")
    with pytest.raises(InputError, match="bad.cfg:1"):
        parse_config_file(bad)
    bad.write_text("\nsigma = fast\n")
    with pytest.raises(InputError, match="bad.cfg:2"):
        parse_config_file(bad)
    with pytest.raises(InputError, match="not found"):
        parse_config_file(tmp_path / "missing.cfg")


def test_apply_overrides_skips_none_and_coerces():
    cfg = RunConfig()
    out = apply_overrides(
        cfg, {"samples": "2048", "sigma": 0.2, "horizon": None, "lambda": 3.0}
    )
    assert out.samples == 2048 and out.sigma == 0.2 and out.lam == 3.0
    assert out.horizon == cfg.horizon
    assert cfg.samples == 1024  # the input config is never mutated
    assert dataclasses.asdict(RunConfig()) == dataclasses.asdict(cfg)


FIELDS = dataclasses.fields(RunConfig)
FLOAT_FIELDS = [field.name for field in FIELDS if field.type in (float, float | None)]
# every int setting but seed is a count of at least 1, dp_quad of at least 2
COUNT_LEAST = {
    field.name: 2 if field.name == "dp_quad" else 1
    for field in FIELDS
    if field.type is int and field.name != "seed"
}
BAD_FIELDS = (
    [
        (name, value)
        for name in FLOAT_FIELDS
        for value in (0.0, -1.0, float("nan"), float("inf"), float("-inf"))
    ]
    + [(name, least - 1) for name, least in COUNT_LEAST.items()]
    + [(name, "pendulum") for name in _CHOICES]
    + [("disturbance", "cauchy"), ("mode", "best"), ("noise_sd", -0.1), ("seed", -1)]
)


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_validate_rejects_bad_fields(field, value):
    cfg = dataclasses.replace(RunConfig(), **{field: value})
    key = "lambda" if field == "lam" else field
    with pytest.raises(InputError, match=f"^{key} must be"):
        validate(cfg)


def test_validate_reports_the_first_bad_field_in_declaration_order():
    cases = [
        ({"sigma": 0.0, "system": "pendulum"}, "system must be one of"),
        ({"rollouts": 0, "seed": -1, "lam": 0.0}, "lambda must be positive"),
        ({"rollouts": 0, "seed": -1}, "seed must be non-negative"),
        ({"beta_beta": 0.0, "beta_alpha": float("nan")}, "beta_alpha must be finite"),
    ]
    for fields, message in cases:
        with pytest.raises(InputError, match=f"^{message}"):
            validate(dataclasses.replace(RunConfig(), **fields))
    with pytest.raises(InputError) as info:
        validate(RunConfig(system="x"))
    assert str(info.value) == "system must be one of integrator, cwh, got 'x'"


def test_validate_rejects_dim_override_for_cwh():
    cfg = dataclasses.replace(RunConfig(), system="cwh", dim=3)
    with pytest.raises(InputError, match="dim"):
        validate(cfg)
    validate(dataclasses.replace(RunConfig(), system="cwh", dim=4))


def test_validate_rejects_boxes_for_cwh():
    # the rendezvous system's sets and sampler are fixed, so a box other
    # than the default would be dropped without a word
    for name in ("safe_box", "target_box"):
        cfg = dataclasses.replace(RunConfig(), system="cwh", **{name: "-5,5"})
        with pytest.raises(InputError, match=f"{name} is set but the cwh"):
            validate(cfg)
        validate(dataclasses.replace(cfg, system="integrator"))
    validate(dataclasses.replace(RunConfig(), system="cwh", safe_box="-1,1"))


@pytest.mark.parametrize(
    "name, value, owner",
    [
        ("noise_sd", 0.3, "gaussian"),
        ("beta_alpha", 2.0, "beta"),
        ("beta_beta", 3.0, "beta"),
        ("beta_centered", True, "beta"),
    ],
)
@pytest.mark.parametrize("disturbance", ["gaussian", "beta", "none"])
def test_validate_rejects_settings_of_another_disturbance(
    name, value, owner, disturbance
):
    # build_disturbance reads each setting only for its own disturbance,
    # so under another one it would be dropped without a word
    cfg = RunConfig(disturbance=disturbance, **{name: value})
    if disturbance == owner:
        assert validate(cfg) == cfg
        return
    with pytest.raises(InputError) as info:
        validate(cfg)
    assert str(info.value) == (
        f"{name} is set but the disturbance is {disturbance}; it shapes only "
        f"the {owner} disturbance"
    )
    # the default value is not a setting
    default = getattr(RunConfig, name)
    validate(RunConfig(disturbance=disturbance, **{name: default}))


def test_build_system():
    system = build_system(RunConfig(dim=5))
    assert isinstance(system, IntegratorChain)
    assert system.n == 5 and system.sampling_time == 0.25
    system = build_system(RunConfig(sampling_time=0.1))
    assert system.sampling_time == 0.1
    system = build_system(RunConfig(system="cwh"))
    assert isinstance(system, CWHSystem)
    assert system.sampling_time == 20.0


def test_each_system_owns_its_default_disturbance():
    np.testing.assert_array_equal(
        IntegratorChain(3).default_disturbance().sd, [0.1, 0.1, 0.1]
    )
    for system in (IntegratorChain(3), CWHSystem()):
        np.testing.assert_array_equal(
            build_disturbance(RunConfig(), system).sd,
            system.default_disturbance().sd,
        )


def test_build_disturbance():
    integrator = build_system(RunConfig(dim=3))
    dist = build_disturbance(RunConfig(dim=3), integrator)
    assert isinstance(dist, GaussianDisturbance)
    np.testing.assert_array_equal(dist.sd, [0.1, 0.1, 0.1])
    dist = build_disturbance(RunConfig(dim=3, noise_sd=0.05), integrator)
    np.testing.assert_array_equal(dist.sd, [0.05, 0.05, 0.05])
    dist = build_disturbance(RunConfig(disturbance="none", dim=3), integrator)
    assert isinstance(dist, ZeroDisturbance) and dist.dim == 3
    dist = build_disturbance(
        RunConfig(disturbance="beta", beta_alpha=2.0, beta_beta=5.0, dim=3),
        integrator,
    )
    assert isinstance(dist, BetaDisturbance)
    assert dist.alpha == 2.0 and dist.beta == 5.0 and dist.dim == 3
    cwh = build_system(RunConfig(system="cwh"))
    dist = build_disturbance(RunConfig(system="cwh"), cwh)
    np.testing.assert_allclose(dist.sd, np.sqrt([1e-4, 1e-4, 5e-8, 5e-8]))


def test_build_policy():
    integrator = build_system(RunConfig())
    assert isinstance(build_policy(RunConfig(), integrator), ZeroPolicy)
    policy = build_policy(RunConfig(policy="constant:0.5"), integrator)
    assert isinstance(policy, ConstantPolicy)
    np.testing.assert_array_equal(policy.control, [0.5])
    with pytest.raises(InputError, match="entries"):
        build_policy(RunConfig(policy="constant:0.5,0.5"), integrator)
    with pytest.raises(InputError, match="lqr"):
        build_policy(RunConfig(policy="lqr"), integrator)
    with pytest.raises(InputError, match="unknown policy"):
        build_policy(RunConfig(policy="bang-bang"), integrator)
    cwh = build_system(RunConfig(system="cwh"))
    assert isinstance(build_policy(RunConfig(policy="lqr"), cwh), AffinePolicy)
    # explicit control dimension overrides the system's, for external samples
    policy = build_policy(RunConfig(policy="constant:1,2,3"), integrator, 3)
    np.testing.assert_array_equal(policy.control, [1.0, 2.0, 3.0])


def test_parse_box_broadcast_and_explicit():
    box = parse_box("-1,1", 3, "safe_box")
    np.testing.assert_array_equal(box.lower, [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(box.upper, [1.0, 1.0, 1.0])
    box = parse_box("0,1,-2,2", 2, "safe_box")
    np.testing.assert_array_equal(box.lower, [0.0, -2.0])
    np.testing.assert_array_equal(box.upper, [1.0, 2.0])
    with pytest.raises(InputError, match="expected 2 or 6"):
        parse_box("0,1,2,3", 3, "safe_box")
    with pytest.raises(InputError, match="comma-separated"):
        parse_box("a,b", 2, "safe_box")


def test_parse_point_and_control_grid():
    np.testing.assert_array_equal(parse_point("0.5,-0.5", 2), [[0.5, -0.5]])
    with pytest.raises(InputError, match="expected 3"):
        parse_point("0,0", 3)
    grid = parse_control_grid("0;0.5;-0.5", 1)
    np.testing.assert_array_equal(grid, [[0.0], [0.5], [-0.5]])
    grid = parse_control_grid("0,0;1,-1", 2)
    np.testing.assert_array_equal(grid, [[0.0, 0.0], [1.0, -1.0]])
    # an empty entry is rejected, not skipped, as in every list of numbers
    for text in ("0,0;1,-1;", "0,0;;1,-1", ";0,0"):
        with pytest.raises(InputError, match="control_grid: empty field"):
            parse_control_grid(text, 2)
    with pytest.raises(InputError, match="control dimension is 2"):
        parse_control_grid("0;1", 2)
    with pytest.raises(InputError, match="control_grid"):
        parse_control_grid("   ", 1)


def test_build_problem_by_system():
    cfg = RunConfig(safe_box="-2,2", target_box="-0.5,0.5", horizon=5)
    problem = build_problem(cfg, 2)
    safe, target = problem.safe, problem.target
    assert isinstance(safe, BoxSet) and isinstance(target, BoxSet)
    np.testing.assert_array_equal(safe.upper, [2.0, 2.0])
    np.testing.assert_array_equal(target.upper, [0.5, 0.5])
    assert problem.horizon == 5
    problem = build_problem(RunConfig(system="cwh"), 4)
    safe, target = problem.safe, problem.target
    assert problem.horizon == RunConfig().horizon
    probe = np.array([[0.0, -0.05, 0.0, 0.0]])
    assert safe.contains(probe)[0] and target.contains(probe)[0]
    assert not target.contains(np.array([[0.0, -0.5, 0.0, 0.0]]))[0]


def test_default_sample_box_rules():
    box = build_sampler(RunConfig(sample_box="0,2"), 2)
    np.testing.assert_array_equal(box.lower, [0.0, 0.0])
    box = build_sampler(RunConfig(safe_box="-1,1"), 2)
    np.testing.assert_allclose(box.lower, [-1.1, -1.1])
    np.testing.assert_allclose(box.upper, [1.1, 1.1])
    box = build_sampler(RunConfig(system="cwh"), 4)
    np.testing.assert_array_equal(box.lower, CWH_SAMPLE_BOX[0::2])
    np.testing.assert_array_equal(box.upper, CWH_SAMPLE_BOX[1::2])


def test_parse_grid_and_points():
    shape, box = parse_grid("3x2:0,1,0,10")
    assert shape == (3, 2)
    pts = grid_points(shape, box)
    assert pts.shape == (6, 2)
    np.testing.assert_array_equal(pts[0], [0.0, 0.0])
    np.testing.assert_array_equal(pts[-1], [1.0, 10.0])
    for bad in ("5:0,1,0,1", "3x2", "0x2:0,1,0,1", "axb:0,1,0,1"):
        with pytest.raises(InputError):
            parse_grid(bad)


def test_evaluation_points_precedence(tmp_path):
    # a points file beats an explicit point, which beats the grid string
    pfile = tmp_path / "pts.csv"
    pfile.write_text("x1,x2,value\n0.1,0.2,0.9\n0.3,0.4,0.8\n")
    cfg = RunConfig(points_file=str(pfile), point="9,9")
    np.testing.assert_array_equal(
        evaluation_points(cfg, 2), [[0.1, 0.2], [0.3, 0.4]]
    )
    cfg = RunConfig(point="9,9")
    np.testing.assert_array_equal(evaluation_points(cfg, 2), [[9.0, 9.0]])
    cfg = RunConfig(grid="2x2:0,1,0,1")
    assert evaluation_points(cfg, 2).shape == (4, 2)
    with pytest.raises(InputError, match="2-D only"):
        evaluation_points(RunConfig(), 3)
    with pytest.raises(InputError, match="expected 3-D"):
        evaluation_points(RunConfig(points_file=str(pfile)), 3)
