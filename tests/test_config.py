"""Config validation, overrides, and the objects a parsed config carries."""

from dataclasses import MISSING, fields

import numpy as np
import pytest

from tomoprop import config
from tomoprop.errors import ParseError, ValidationError
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.quad_dynamics import (
    ConstantSampler,
    CosineSampler,
    QuadraticHamiltonian,
    TableSampler,
)
from tomoprop.states import StateSpec


def parse(doc):
    return config.parse_config(doc)


def violations_of(doc):
    with pytest.raises(ValidationError) as info:
        parse(doc)
    return info.value.violations


# ---------------------------------------------------------------------------
# parsing and defaults


def test_minimal_doc_gets_defaults():
    cfg = parse({"task": "tomogram"})
    assert cfg.task == "tomogram"
    assert cfg.state.kind == "vacuum"
    assert cfg.tomogram_grid == TomogramGrid(x_max=8.0, n_x=1024, n_theta=180)
    assert cfg.coordinate_grid == CoordinateGrid(q_max=8.0, n_q=512)
    assert cfg.hamiltonian == QuadraticHamiltonian(ConstantSampler(1.0), ConstantSampler(0.0))
    assert cfg.backend == "map"
    assert cfg.times == ()
    assert cfg.output_dir == "tomoprop_out"
    assert cfg.input_path is None


def test_partial_blocks_merge_with_defaults():
    cfg = parse({
        "task": "tomogram",
        "state": {"kind": "coherent", "alpha_re": 1.0},
        "grid": {"n_x": 512},
    })
    assert cfg.state.alpha_im == 0.0
    assert cfg.state.sign == 1
    assert cfg.tomogram_grid.n_x == 512
    assert cfg.tomogram_grid.n_theta == 180


def test_defaults_are_those_of_the_built_classes():
    # Each section's defaults are its classes' own, not a copy in config.
    cfg = parse({"task": "tomogram"})
    assert cfg.state == StateSpec()
    assert cfg.coordinate_grid == CoordinateGrid()
    assert cfg.tomogram_grid == TomogramGrid()
    assert cfg.hamiltonian == QuadraticHamiltonian.harmonic()


def test_times_coerce_to_float_tuple():
    cfg = parse({"task": "evolve", "times": [1, 2]})
    assert cfg.times == (1.0, 2.0)
    assert all(isinstance(t, float) for t in cfg.times)


def test_non_object_document_rejected():
    with pytest.raises(ParseError, match="must be a JSON object, got list"):
        config.parse_config([1, 2, 3])


# ---------------------------------------------------------------------------
# validation collects everything at once


def test_all_violations_reported_together():
    bad = violations_of({
        "task": "warp",
        "state": {"kind": "squeezed"},
        "grid": {"n_x": 1024.5},
        "times": [2.0, 1.0],
        "tolerance": 1e-6,
    })
    assert len(bad) >= 5
    joined = "\n".join(bad)
    assert "task must be one of" in joined
    assert "state.kind must be one of" in joined
    assert "grid.n_x must be an integer" in joined
    assert "times not increasing" in joined
    assert "unknown config field 'tolerance'" in joined


def test_bool_is_not_an_integer():
    bad = violations_of({"task": "tomogram", "grid": {"n_q": True}})
    assert any("grid.n_q" in b for b in bad)


def test_grid_bounds_come_from_the_grid_classes():
    bad = violations_of({"task": "tomogram", "grid": {
        "x_max": -1.0, "n_x": 15, "n_theta": 7, "q_max": 0.0, "n_q": 7}})
    assert bad == [
        "grid.q_max must be a positive number, got 0.0",
        "grid.n_q must be at least 8, got 7",
        "grid.x_max must be a positive number, got -1.0",
        "grid.n_x must be at least 16, got 15",
        "grid.n_theta must be at least 8, got 7",
    ]
    # The smallest sizes the constructors accept pass the config check too.
    cfg = parse({"task": "tomogram", "grid": {"n_x": 16, "n_theta": 8, "n_q": 8}})
    assert cfg.tomogram_grid.n_x == 16
    assert cfg.coordinate_grid.n_q == 8


def test_negative_times_rejected():
    bad = violations_of({"task": "evolve", "times": [-0.5, 1.0]})
    assert any("nonnegative" in b for b in bad)


def test_unknown_nested_fields_rejected():
    bad = violations_of({
        "task": "tomogram",
        "state": {"vacuum": True},
        "grid": {"dx": 0.01},
        "hamiltonian": {"mass": 1.0},
    })
    joined = "\n".join(bad)
    assert "state has unknown field 'vacuum'" in joined
    assert "grid has unknown field 'dx'" in joined
    assert "hamiltonian has unknown field 'mass'" in joined


def test_bad_state_sign():
    bad = violations_of({"task": "tomogram", "state": {"kind": "cat", "sign": 2}})
    assert any("state.sign must be 1 or -1" in b for b in bad)


def test_boolean_state_sign_is_refused():
    # JSON true equals 1 in Python, so it has to be refused as a non-integer.
    for sign in (True, False, 1.0):
        bad = violations_of({"task": "tomogram", "state": {"kind": "cat", "sign": sign}})
        assert bad == [f"state.sign must be 1 or -1, got {sign!r}"]


def test_nonpositive_grid_extent():
    bad = violations_of({"task": "tomogram", "grid": {"q_max": -8.0}})
    assert any("grid.q_max must be a positive" in b for b in bad)


def test_bad_backend():
    bad = violations_of({"task": "evolve", "times": [1.0], "backend": "spectral"})
    assert any("backend must be one of" in b for b in bad)


def test_nonfinite_number_rejected():
    # JSON itself cannot carry inf, so exercise the check through overrides.
    doc = config.apply_overrides({"task": "tomogram"}, ["state.alpha_re=Infinity"])
    with pytest.raises(ValidationError) as info:
        parse(doc)
    assert any("state.alpha_re" in b for b in info.value.violations)


# ---------------------------------------------------------------------------
# sampler specs


def test_cosine_sampler_missing_field():
    bad = violations_of({
        "task": "tomogram",
        "hamiltonian": {"omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2}},
    })
    assert any("hamiltonian.omega_sq.freq must be a finite number" in b for b in bad)


def test_unknown_sampler_kind():
    bad = violations_of({
        "task": "tomogram",
        "hamiltonian": {"force": {"kind": "ramp"}},
    })
    assert any("hamiltonian.force.kind must be one of" in b for b in bad)


def test_table_sampler_shape_and_order():
    bad = violations_of({
        "task": "tomogram",
        "hamiltonian": {"omega_sq": {"kind": "table", "times": [0.0], "values": [1.0]}},
    })
    assert any("at least 2 rows" in b for b in bad)

    bad = violations_of({
        "task": "tomogram",
        "hamiltonian": {
            "omega_sq": {"kind": "table", "times": [0.0, 0.0], "values": [1.0, 2.0]},
        },
    })
    assert any("strictly increasing" in b for b in bad)


def test_table_sampler_must_cover_the_evolved_span():
    table = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 1.1]}
    doc = {"task": "evolve", "times": [0.5, 2.0],
           "hamiltonian": {"omega_sq": table, "force": dict(table)}}
    bad = violations_of(doc)
    assert "hamiltonian.omega_sq.times cover [0, 1], not the job's [0, 2]" in bad
    assert "hamiltonian.force.times cover [0, 1], not the job's [0, 2]" in bad
    # The same table serves a job that stays inside it, and tasks that
    # never evolve do not read it at all.
    assert parse({**doc, "times": [0.5, 1.0]}).times == (0.5, 1.0)
    assert parse({**doc, "task": "tomogram"}).task == "tomogram"


def test_validate_table_sampler_must_cover_its_horizon():
    # validate solves the job's Hamiltonian to max(times), or to
    # VALIDATE_HORIZON when the job gives no times.
    table = {"kind": "table", "times": [0.0, 2.0], "values": [1.0, 1.1]}
    doc = {"task": "validate", "hamiltonian": {"omega_sq": table}}
    assert violations_of(doc) == [
        "hamiltonian.omega_sq.times cover [0, 2], not the job's [0, 10]"
    ]
    assert parse({**doc, "times": [1.5]}).times == (1.5,)


def test_sampler_unknown_field():
    bad = violations_of({
        "task": "tomogram",
        "hamiltonian": {"force": {"kind": "constant", "value": 0.0, "ramp": 1.0}},
    })
    assert any("has unknown field 'ramp'" in b for b in bad)


def test_sampler_must_be_object():
    bad = violations_of({"task": "tomogram", "hamiltonian": {"force": 0.0}})
    assert any("hamiltonian.force must be a sampler object" in b for b in bad)


def test_sampler_fields_without_a_default_are_required():
    # The rules come from the sampler classes themselves.
    for kind, cls in config.SAMPLERS.items():
        bad = violations_of({"task": "tomogram", "hamiltonian": {"force": {"kind": kind}}})
        required = [f.name for f in fields(cls) if f.default is MISSING]
        assert required
        assert [b.split()[0] for b in bad] == [f"hamiltonian.force.{f}" for f in required]


# ---------------------------------------------------------------------------
# per-task requirements


def test_evolve_requires_times():
    bad = violations_of({"task": "evolve"})
    assert any("requires a nonempty times array" in b for b in bad)


def test_invert_requires_input_path():
    bad = violations_of({"task": "invert"})
    assert any("requires input_path" in b for b in bad)


def test_pipeline_check_accepts_free_and_oscillator():
    for value in (0.0, 1.0):
        cfg = parse({
            "task": "pipeline-check",
            "times": [0.5],
            "hamiltonian": {"omega_sq": {"kind": "constant", "value": value}},
        })
        assert cfg.hamiltonian.omega_sq == ConstantSampler(value)


def test_pipeline_check_follows_the_rules_of_evolve():
    # Any sampler is accepted, and a table must cover [0, max(times)].
    driven = {"omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
              "force": {"kind": "constant", "value": 0.3}}
    cfg = parse({"task": "pipeline-check", "times": [1.0], "hamiltonian": driven})
    assert cfg.hamiltonian == QuadraticHamiltonian(CosineSampler(1.0, 0.2, 2.0),
                                                   ConstantSampler(0.3))
    table = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 1.1]}
    bad = violations_of({"task": "pipeline-check", "times": [0.5, 2.0],
                         "hamiltonian": {"omega_sq": table}})
    assert bad == ["hamiltonian.omega_sq.times cover [0, 1], not the job's [0, 2]"]


# ---------------------------------------------------------------------------
# overrides


def test_overrides_parse_json_values():
    doc = {"task": "tomogram"}
    config.apply_overrides(doc, ["grid.n_x=512", "times=[0.5, 1.0]", "backend=pde"])
    assert doc["grid"]["n_x"] == 512
    assert doc["times"] == [0.5, 1.0]
    assert doc["backend"] == "pde"


def test_overrides_fall_back_to_bare_strings():
    doc = {}
    config.apply_overrides(doc, ["state.kind=coherent", "output_dir=out/run1"])
    assert doc["state"]["kind"] == "coherent"
    assert doc["output_dir"] == "out/run1"


def test_overrides_create_nested_objects():
    doc = {"task": "evolve"}
    config.apply_overrides(doc, ["hamiltonian.omega_sq.kind=cosine",
                                 "hamiltonian.omega_sq.a=1.0"])
    assert doc["hamiltonian"]["omega_sq"] == {"kind": "cosine", "a": 1.0}


def test_overrides_update_existing_values():
    doc = {"grid": {"n_x": 1024}}
    config.apply_overrides(doc, ["grid.n_x=256"])
    assert doc["grid"]["n_x"] == 256


def test_override_without_equals_sign():
    with pytest.raises(ParseError, match="not of the form key=value"):
        config.apply_overrides({}, ["grid.n_x"])


def test_override_through_scalar_field():
    with pytest.raises(ParseError, match="descends through non-object"):
        config.apply_overrides({"task": "evolve"}, ["task.sub=1"])


# ---------------------------------------------------------------------------
# built objects


def test_build_sampler_kinds():
    cfg = parse({
        "task": "evolve",
        "times": [1.0],
        "hamiltonian": {
            "omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
            "force": {"kind": "constant", "value": 0.3},
        },
    })
    assert cfg.hamiltonian.omega_sq == CosineSampler(a=1.0, b=0.2, freq=2.0)
    assert cfg.hamiltonian.omega_sq(0.0) == pytest.approx(1.2, abs=1e-15)
    assert cfg.hamiltonian.force == ConstantSampler(value=0.3)
    assert cfg.hamiltonian.force(7.7) == 0.3

    tab = parse({
        "task": "evolve",
        "times": [1.0],
        "hamiltonian": {
            "force": {"kind": "table", "times": [0.0, 1.0], "values": [2.0, 3.0]},
        },
    }).hamiltonian.force
    assert isinstance(tab, TableSampler)
    assert np.array_equal(tab.times, [0.0, 1.0])
    assert np.array_equal(tab.values, [2.0, 3.0])
    assert tab(0.5) == pytest.approx(2.5, abs=1e-15)


def test_build_hamiltonian_from_config():
    cfg = parse({
        "task": "evolve",
        "times": [1.0],
        "hamiltonian": {
            "omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
            "force": {"kind": "constant", "value": 0.3},
        },
    })
    ham = cfg.hamiltonian
    assert isinstance(ham, QuadraticHamiltonian)
    assert ham.omega_sq(0.0) == pytest.approx(1.2, abs=1e-15)
    assert ham.force(5.0) == 0.3


def test_grid_builders():
    cfg = parse({"task": "tomogram", "grid": {"q_max": 9.0, "n_q": 256,
                                              "x_max": 9.0, "n_x": 512,
                                              "n_theta": 90}})
    g = cfg.coordinate_grid
    assert g == CoordinateGrid(q_max=9.0, n_q=256)
    assert g.q_max == 9.0 and g.n_q == 256
    tg = cfg.tomogram_grid
    assert tg == TomogramGrid(x_max=9.0, n_x=512, n_theta=90)
    assert tg.x_max == 9.0 and tg.n_x == 512 and tg.n_theta == 90


def test_build_state_kinds():
    def build_state(cfg):
        return cfg.state.build(cfg.coordinate_grid)

    vac = build_state(parse({"task": "tomogram"}))
    # the axis has no exact zero node, so the peak is the central pair
    assert np.argmax(np.abs(vac.values)) in (vac.grid.n_q // 2 - 1,
                                             vac.grid.n_q // 2)

    coh = build_state(parse({
        "task": "tomogram",
        "state": {"kind": "coherent", "alpha_re": 1.0, "alpha_im": 0.5},
    }))
    qc = float(np.sum(coh.grid.points * np.abs(coh.values) ** 2)
               * coh.grid.spacing)
    assert qc == pytest.approx(np.sqrt(2.0), abs=1e-9)

    cat = build_state(parse({
        "task": "tomogram",
        "state": {"kind": "cat", "alpha_re": 2.0, "sign": -1},
        "grid": {"q_max": 9.0, "x_max": 9.0},
    }))
    vals = cat.values
    assert np.allclose(vals, -vals[::-1], atol=1e-12)
