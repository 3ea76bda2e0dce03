"""Config documents: exact round-trips and field-level error reporting."""

import copy
import hashlib
import json
import math
import re
import sys

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
    assert list(eg1_doc) == ["schema", "name", "notes", "plant", "model", "rls",
                             "mpc", "command", "sim", "output"]
    assert eg1_doc["schema"] == SCHEMA
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
    # name and notes are strings, and the name is the stem of every output
    # file: no separators, no leading dot, not empty
    for key, value in [("name", 7), ("notes", None), ("name", "../escaped"),
                       ("name", "sub/dir"), ("name", ""), ("name", ".hidden")]:
        doc = copy.deepcopy(eg1_doc)
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            from_document(doc)


def test_rls_range_limits(eg1_doc):
    # r0 up to sqrt(float max): the first forgetting step forms r0**2 terms;
    # forgetting down to the smallest normal float, or lambda * phi' R phi underflows
    r0_max, lam_min = math.sqrt(sys.float_info.max), sys.float_info.min
    for key, ok, bad in [("r0", r0_max, math.nextafter(r0_max, math.inf)),
                         ("forgetting", lam_min, math.nextafter(lam_min, 0.0))]:
        doc = copy.deepcopy(eg1_doc)
        doc["rls"][key] = ok
        assert getattr(from_document(doc).rls, key) == ok
        doc["rls"][key] = bad
        with pytest.raises(ConfigError, match=f"rls: {key}"):
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


@pytest.mark.parametrize("path, preset_name, parent", [pytest.param(*case, id=case[0]) for case in [
    ("mpc.horizn", "eg1", ("mpc",)),
    ("mpc.u_mx", "eg1", ("mpc",)),
    ("output.grid.pts", "eg1", ("output", "grid")),
    ("model.g[0].degree", "eg4-BL", ("model", "g", 0)),  # an atan_pair takes no fields
    ("simm", "eg1", ()),
]])
def test_unknown_field_rejected_with_its_path(path, preset_name, parent):
    doc = to_document(preset(preset_name))
    node = doc
    for part in parent:
        node = node[part]
    node[path.rsplit(".", 1)[-1]] = 1
    with pytest.raises(ConfigError, match=re.escape(f"unknown field {path};")):
        from_document(doc)


_DELETE = object()
MUTATIONS = [_DELETE, None, True, "x", 1.5, -1, 0, float("nan"), float("inf"),
             [], {}, 1e300, 1e-320]


def _leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("preset_name", ["eg1", "eg4-CB4"])
def test_every_leaf_mutation_round_trips_or_names_its_field(preset_name):
    """Each leaf of a preset document, deleted or replaced by a value of the
    wrong type or range, either parses to a config that round-trips or raises
    a ConfigError naming the leaf's path, its section or its own key. SimConfig
    checks fields of several sections at once, so errors in the sim section and
    in rls.theta0 must give the whole path."""
    base = to_document(preset(preset_name))
    cases = 0
    for path in _leaf_paths(base):
        dotted = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        names = (dotted, str(path[0]), re.sub(r"\[\d+\]", "", dotted).split(".")[-1])
        whole = re.sub(r"\[\d+\]$", "", dotted)  # a theta0 entry: the list's path
        if path[0] == "sim" or whole == "rls.theta0":
            names = (whole,)
        for value in MUTATIONS:
            doc = copy.deepcopy(base)
            parent = doc
            for part in path[:-1]:
                parent = parent[part]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            cases += 1
            try:
                cfg = from_document(doc)
            except ConfigError as exc:
                assert any(n in str(exc) for n in names), (dotted, value, str(exc))
                continue
            assert from_document(to_document(cfg)) == cfg, (dotted, value)
    assert cases > 400


# SHA-256 of each preset's canonical to_document JSON: the config_hash of its
# run summary. A change to the document layout shows up here first.
GOLDEN_CONFIG_HASH = {
    "eg1": "4f37c9e0acda4561c57bad1939c5dd8cd9464d5592c84518519d3c1a751e5312",
    "eg3": "8c8431160e8a1abae702590906fdf340d963f06d62abf298a552e09174cecb3c",
    "eg4-BL": "90d702b798104e0c72ae6e489bea7ef012017458a9f2daff012e79272ced0ad7",
    "eg4-PB2": "8d13f52bc6db63df0561b49e5c7f0963490c09de4687e29dafd1f4e9d7bfd3be",
    "eg4-FB3": "3cf61c2f5e11f8c7eeacbed94473b563cc293cf20c65253ed7feb5421fb430ad",
    "eg4-CB4": "6dd8308b6ef830b8d10dbca90e80d9ddd977852c20a3b48b1a09d2baa44bc6c4",
    "eg5-BL": "3ba0cd11ed622d78736a71921205faae1def3931bfd0bfdd61830ebaab564631",
    "eg5-PB2": "8413ddde6aafddfbc8c4c2ea5d2e9b0c575f15ec6379fbef30950725077c82b7",
    "eg5-FB3": "8832969818c59e7c9073dc1e7d1b2888a8461881fd4a8c579da0b151e3103d3b",
    "eg5-CB4": "c692a3ee95cd68168eb5e2c394f7096218c9c2afe295b757ac891bf434057292",
    "eg6-BL": "9c17294b46629ffa9fa3224a2a3345391062385cce0fe7cd2e91a97e6accdec6",
    "eg6-PB2": "b74a9236c095a9fc9ed1d872cb84647abd8ad9c2e877a84d66e86bffbd19af90",
    "eg6-CB4": "a47b64ed25c4df82b32f95e5e2a0c63c7dc9a9d114a51f4fcf525422197b1da6",
    "eg6-FB5": "76fcbdfadfc488f9b77c557f1d7a646dfde094e3b1426ee20b263fdeb65b5624",
}


@pytest.mark.parametrize("name", preset_names())
def test_config_hash_of_every_preset_is_pinned(name):
    doc = to_document(preset(name))
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == GOLDEN_CONFIG_HASH[name]
