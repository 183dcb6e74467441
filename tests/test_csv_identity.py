"""The output comparison of ``scripts/csv_identity.py``, on two directories written here."""

import json

from test_scripts import load_script

CSV = "# version: {version}\n# config: {{}}\nt,l2_norm\n0,{value}\n"


def write_outputs(out, version, value, svg):
    out.mkdir()
    (out / "decay.csv").write_text(CSV.format(version=version, value=value))
    (out / "decay.svg").write_text(svg)


def test_identical_outputs_differ_only_in_the_version_line(tmp_path):
    script = load_script("csv_identity")
    write_outputs(tmp_path / "a", "abc", "1.5", "<svg/>\n")
    write_outputs(tmp_path / "b", "def", "1.5", "<svg/>\n")
    problems, sizes, names = script.compare_outputs(tmp_path / "a", tmp_path / "b")
    assert problems == [] and sizes == []
    assert names == ["decay.csv", "decay.svg"]


def test_each_differing_or_missing_svg_is_named(tmp_path):
    script = load_script("csv_identity")
    write_outputs(tmp_path / "a", "abc", "1.5", '<svg><polyline points="58.00,1.00"/></svg>\n')
    write_outputs(tmp_path / "b", "abc", "1.5", '<svg><polyline points="58.00,1.01"/></svg>\n')
    (tmp_path / "a" / "extra.svg").write_text("<svg/>\n")
    problems, sizes, names = script.compare_outputs(tmp_path / "a", tmp_path / "b")
    assert problems == ["decay.svg differs", "extra.svg missing on one side"]
    assert sizes == []
    assert names == ["decay.csv", "decay.svg", "extra.svg"]


def test_a_differing_csv_is_named_with_its_column_sizes(tmp_path):
    script = load_script("csv_identity")
    write_outputs(tmp_path / "a", "abc", "1.5", "<svg/>\n")
    write_outputs(tmp_path / "b", "abc", "2", "<svg/>\n")
    problems, sizes, _ = script.compare_outputs(tmp_path / "a", tmp_path / "b")
    assert problems == ["decay.csv differs from numeric line 1"]
    assert sizes == ["  decay.csv l2_norm: max abs 0.5, max rel 0.25"]


def test_differing_metadata_is_named_by_key_and_config_path(tmp_path):
    script = load_script("csv_identity")
    old = {"experiment": {"kind": "decay", "implicit_control": True},
           "projection": "l2", "newton": {"tol": 1e-12, "max_iter": 25}}
    new = {"experiment": {"kind": "decay"}, "newton": {"tol": 1e-14, "max_iter": 25},
           "mesh": {"n_elements": 8}}
    for side, config, extra in (("a", old, "# variant: \"x\"\n"), ("b", new, "# failure: \"y\"\n")):
        out = tmp_path / side
        out.mkdir()
        (out / "decay.csv").write_text(f"# version: {side}\n# config: {json.dumps(config)}\n"
                                       f"{extra}t,l2_norm\n0,1.5\n")
    problems, sizes, _ = script.compare_outputs(tmp_path / "a", tmp_path / "b")
    assert problems == ["decay.csv metadata differs: config.experiment.implicit_control "
                        "removed, config.projection removed, config.newton.tol changed, "
                        "config.mesh added, variant removed, failure added"]
    assert sizes == []
    # the same fields in another layout name no field
    (tmp_path / "b" / "decay.csv").write_text(
        f"# version: b\n# config: {json.dumps(old, indent=1).replace(chr(10), '')}\n"
        "# variant: \"x\"\nt,l2_norm\n0,1.5\n")
    problems, _, _ = script.compare_outputs(tmp_path / "a", tmp_path / "b")
    assert problems == ["decay.csv metadata differs: in layout only"]
