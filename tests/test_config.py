"""Config documents: exact round-trips and field-level error reporting."""

import copy

import pytest
import yaml

from plmpc import config as config_mod
from plmpc.config import (
    SCHEMA,
    ConfigError,
    dump_config_file,
    from_document,
    load_config_file,
    to_document,
    with_overrides,
)
from plmpc.plant import preset, preset_names


@pytest.fixture()
def eg1_doc():
    return to_document(preset("eg1"))


@pytest.mark.parametrize("name", preset_names())
def test_document_round_trip_every_preset(name):
    cfg = preset(name)
    assert from_document(to_document(cfg)) == cfg


def test_yaml_file_round_trip(tmp_path):
    cfg = preset("eg4-CB4")
    path = tmp_path / "cfg.yaml"
    dump_config_file(cfg, path)
    assert load_config_file(path) == cfg
    doc = yaml.safe_load(path.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["model"]["g"][0]["family"] == "spline"


def test_document_embeds_schema_and_sections(eg1_doc):
    assert eg1_doc["schema"] == SCHEMA
    for section in ("plant", "model", "rls", "mpc", "command", "sim", "output"):
        assert section in eg1_doc, section
    assert eg1_doc["model"]["h"] == {"family": "zero"}
    assert eg1_doc["mpc"]["u_min"] is None


def test_missing_field_error_names_the_path(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    del doc["rls"]["r0"]
    with pytest.raises(ConfigError, match=r"rls\.r0"):
        from_document(doc)


def test_wrong_type_error_names_the_path(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    doc["mpc"]["horizon"] = "ten"
    with pytest.raises(ConfigError, match=r"mpc\.horizon"):
        from_document(doc)
    doc = copy.deepcopy(eg1_doc)
    doc["sim"]["seed"] = 1.5
    with pytest.raises(ConfigError, match=r"sim\.seed"):
        from_document(doc)
    # non-finite numbers, and RLS settings the estimator cannot start from
    nan, inf = float("nan"), float("inf")
    for section, key, value, path in [
            ("sim", "y0", nan, r"sim\.y0"),
            ("sim", "warmup_std", nan, r"sim\.warmup_std"),
            ("command", "amplitude", inf, r"command\.amplitude"),
            ("mpc", "q", nan, r"mpc\.q"),
            ("rls", "r0", nan, r"rls\.r0"),
            ("rls", "forgetting", nan, r"rls\.forgetting"),
            ("rls", "r0", -1.0, r"rls: r0"),
            ("rls", "forgetting", 1.5, r"rls: forgetting"),
            ("rls", "forgetting", 0.0, r"rls: forgetting"),
            ("rls", "filter_threshold", 0.0, r"rls: filter_threshold"),
            # float() takes these, but YAML booleans and quoted numbers are
            # type errors in a config document
            ("mpc", "q", True, r"mpc\.q"),
            ("sim", "y0", "0.1", r"sim\.y0")]:
        doc = copy.deepcopy(eg1_doc)
        doc[section][key] = value
        with pytest.raises(ConfigError, match=path):
            from_document(doc)


def test_unknown_schema_rejected(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    doc["schema"] = "plmpc-config-99"
    with pytest.raises(ConfigError, match="schema"):
        from_document(doc)


def test_unknown_basis_family_lists_choices(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    doc["model"]["g"][0] = {"family": "wavelet"}
    with pytest.raises(ConfigError) as err:
        from_document(doc)
    msg = str(err.value)
    assert "wavelet" in msg and "spline" in msg and "fourier" in msg


def test_unknown_coefficient_kind_rejected(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    doc["plant"]["f"][0] = {"kind": "cubic", "value": 1.0}
    with pytest.raises(ConfigError, match="kind"):
        from_document(doc)


def test_theta0_length_mismatch_reports_counts(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    doc["rls"]["theta0"] = [1.0, 0.01]
    with pytest.raises(ConfigError) as err:
        from_document(doc)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_bad_windows_shape_rejected(eg1_doc):
    doc = copy.deepcopy(eg1_doc)
    for windows in ([[1, 100, 200]], [[0, 10]], [[10, 5]]):
        doc["output"]["windows"] = windows
        with pytest.raises(ConfigError, match="windows"):
            from_document(doc)


def test_non_mapping_document_rejected():
    with pytest.raises(ConfigError):
        from_document(["not", "a", "mapping"])
    with pytest.raises(ConfigError):
        from_document({"schema": SCHEMA})  # sections missing


def test_unparseable_yaml_file(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("plant: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config_file(path)
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.yaml")


def test_overrides_replace_only_named_fields():
    cfg = preset("eg3")
    out = with_overrides(cfg, seed=9, steps=77, snapshot_step=50)
    assert (out.seed, out.steps, out.output.snapshot_step) == (9, 77, 50)
    assert out.plant == cfg.plant and out.rls == cfg.rls and out.mpc == cfg.mpc
    assert with_overrides(cfg) == cfg


def test_round_trip_preserves_optional_mpc_bounds():
    cfg = preset("eg1")
    doc = to_document(cfg)
    doc["mpc"]["u_min"] = -2.5
    doc["mpc"]["u_max"] = 2.5
    back = from_document(doc)
    assert back.mpc.u_min == -2.5 and back.mpc.u_max == 2.5
    assert to_document(back)["mpc"]["u_min"] == -2.5
