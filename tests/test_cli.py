"""Command line interface: report shapes, exit codes, file input."""

import json
import subprocess
import sys

import pytest

from posetprod.cli import main
from posetprod.fixtures import fix_b


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_check_fixture_and_expectations(capsys):
    code, rep = run(capsys, "check", "fix-b", "--expect", "polyhedral")
    assert code == 0
    assert rep["command"] == "check"
    assert rep["input"] == {"source": "fix-b", "sha256": None}
    assert rep["results"]["simplicial"] and rep["results"]["regular"]

    code, rep = run(capsys, "check", "fix-a", "--expect", "polyhedral")
    assert code == 1
    assert not rep["results"]["polyhedral"]
    assert rep["results"]["witnesses"]


def test_check_reads_json_files(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(fix_b().to_dict()))
    code, rep = run(capsys, "check", str(path))
    assert code == 0
    assert rep["input"]["source"] == str(path)
    assert len(rep["input"]["sha256"]) == 64
    assert rep["results"]["norm"] == 1


def test_reduce_and_fvector(capsys):
    code, rep = run(capsys, "reduce", "fix-a")
    assert code == 0
    assert rep["results"]["objects_after"] < rep["results"]["objects_before"]
    assert set(rep["results"]["projection"]) == set("*123456")

    code, rep = run(capsys, "fvector", "cube-2")
    assert code == 0
    assert rep["results"]["f_vector"] == [4, 4, 0, 1]


def test_stransform_reports_prediction(capsys):
    code, rep = run(capsys, "stransform", "fix-c")
    assert code == 0
    assert rep["results"]["f_vector"] == [4, 6, 4, 1]
    assert rep["results"]["f_vector_predicted"] == [4, 6, 4, 1]
    assert rep["results"]["objects_after"] == 16
    embed = rep["results"]["embedding"]
    assert len(set(embed.values())) == len(embed)


def test_hilbert_methods(capsys):
    code, rep = run(capsys, "hilbert", "fix-b", "--max-degree", "4")
    assert code == 0
    assert rep["results"]["dims"] == [1, 2, 4, 6, 8]
    assert rep["results"]["agree"]

    code, rep = run(capsys, "hilbert", "fix-b", "--max-degree", "4", "--method", "fvector")
    assert code == 0
    assert rep["results"]["dims"] == [1, 2, 4, 6, 8]

    code, rep = run(capsys, "hilbert", "fix-b", "--max-degree", "4", "--field", "101", "--grading", "2")
    assert code == 0
    assert rep["results"]["dims"] == [1, 0, 2, 0, 4]


def test_hilbert_flags_presentation_gaps(tmp_path, capsys):
    poset = {
        "objects": ["*", "v1", "v2", "v3", "e", "t"],
        "base": "*",
        "covers": [["*", "v1"], ["*", "v2"], ["*", "v3"],
                   ["v1", "e"], ["v2", "e"],
                   ["v1", "t"], ["v2", "t"], ["v3", "t"]],
    }
    path = tmp_path / "two_branch.json"
    path.write_text(json.dumps(poset))
    code, rep = run(capsys, "hilbert", str(path), "--max-degree", "4")
    assert code == 1
    assert not rep["results"]["agree"]
    assert rep["results"]["quotient_dims"] == [1, 3, 7, 12, 19]
    assert rep["results"]["limit_dims"] == [1, 3, 7, 12, 18]


def test_limits_constant_and_indicator(capsys):
    code, rep = run(capsys, "limits", "fix-b")
    assert code == 0
    assert rep["results"]["diagram"] == "constant"
    assert rep["results"]["higher_limits"] == [[1]]

    code, rep = run(capsys, "limits", "fix-a", "--upset", "3", "--upset", "4")
    assert code == 0
    assert rep["results"]["higher_limits"] == [[1], [1]]


def test_tensor_with_reduction_check(capsys):
    code, rep = run(capsys, "tensor", "fix-b", "--collection", "circle",
                    "--max-degree", "2", "--check-reduction")
    assert code == 0
    assert rep["results"]["higher_limits"] == [[1, 2, 2]]
    assert rep["results"]["reduction_invariant"]

    code, rep = run(capsys, "tensor", "fix-b", "--collection", "aug:1", "--max-degree", "3")
    assert code == 0
    assert rep["results"]["higher_limits"] == [[1, 2, 4, 6]]


def test_tensor_names_non_acyclic_supports_and_checks_the_route(capsys, monkeypatch):
    code, rep = run(capsys, "tensor", "fix-a", "--max-degree", "3", "--check-route")
    assert code == 0
    res = rep["results"]
    assert res["higher_limits"] == res["direct_limits"] == [[1, 2, 3, 4], [0, 0, 1, 2]]
    assert res["routes_agree"] is True
    assert rep["non_acyclic_supports"] == [{"support": ["1", "2"], "dims": [0, 0, 1, 2], "betti": [1, 1]}]

    code, rep = run(capsys, "tensor", "cube-2", "--collection", "circle", "--max-degree", "2")
    assert code == 0
    assert rep["non_acyclic_supports"] == []
    assert "routes_agree" not in rep["results"]

    # a disagreement between the routes is a failed verification
    monkeypatch.setattr("posetprod.cli.higher_limits", lambda *a, **k: [(1, 0, 0, 0)])
    code, rep = run(capsys, "tensor", "fix-a", "--max-degree", "3", "--check-route")
    assert code == 1
    assert rep["results"]["routes_agree"] is False


def test_homology_subcommand(capsys):
    code, rep = run(capsys, "homology", "fix-e", "--max-dim", "2")
    assert code == 0
    assert rep["results"]["homology"] == [1, 2, 0]
    assert rep["results"]["agree"]

    code, rep = run(capsys, "homology", "fix-e", "--pair", "disk2-circle",
                    "--max-dim", "3", "--via", "hocolim")
    assert code == 0
    assert rep["results"]["homology"] == [1, 0, 0, 1]


@pytest.mark.parametrize("via", ["colim", "hocolim"])
def test_homology_below_the_top_core_of_a_model_space(capsys, via):
    code, rep = run(capsys, "homology", "fix-e", "--pair", "disk2-circle",
                    "--max-dim", "0", "--via", via)
    assert code == 0
    assert rep["results"]["homology"] == [1]
    assert rep["results"]["agree"]


def test_suite_runs_cross_checks(capsys):
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "3")
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"]
    assert res["hilbert"]["agree"]
    assert res["transform_f_vector"]["agree"]
    assert res["homology_circle_point"]["agree"]


def test_error_exit_codes(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", str(bad)])
    assert code == 2
    for collection in ("nonsense", "augment", "aug1", "aug:", "aug:x", "circle:1"):
        code = main(["tensor", "fix-b", "--collection", collection])
        assert code == 2


@pytest.mark.parametrize("collection", ["aug:", "aug:x"])
def test_collection_without_an_integer_degree_is_a_typed_refusal(capsys, collection):
    code = main(["tensor", "fix-b", "--collection", collection])
    err = capsys.readouterr().err
    assert code == 2
    assert "--collection" in err and "aug[:d]" in err and "circle" in err
    assert "invalid literal" not in err


def test_aug_with_and_without_a_degree(capsys):
    code, plain = run(capsys, "tensor", "fix-b", "--collection", "aug", "--max-degree", "3")
    assert code == 0
    code, one = run(capsys, "tensor", "fix-b", "--collection", "aug:1", "--max-degree", "3")
    assert code == 0
    assert plain["results"] == one["results"]
    code, two = run(capsys, "tensor", "fix-b", "--collection", "aug:2", "--max-degree", "3")
    assert code == 0
    assert two["results"]["higher_limits"] == [[1, 0, 2, 0]]


@pytest.mark.parametrize("argv", [
    ["homology", "fix-a", "--max-dim", "-1", "--no-compare"],
    ["homology", "fix-a", "--max-dim", "-1"],
    ["tensor", "fix-a", "--max-degree", "-1"],
    ["hilbert", "fix-b", "--max-degree", "-1"],
    ["suite", "fix-b", "--max-degree", "-1"],
])
def test_negative_degree_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {argv[2]}: must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("method", ["fvector", "presentation"])
@pytest.mark.parametrize("grading", ["0", "-1"])
def test_grading_below_one_is_refused(capsys, method, grading):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "fix-a", "--grading", grading, "--method", method])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --grading: must be >= 1, got {grading}" in captured.err
    assert "Traceback" not in captured.err


def test_limits_unknown_upset_generator_is_a_typed_refusal(capsys):
    # exit 1 means "a verification came out false"; a bad input is exit 2
    code = main(["limits", "fix-a", "--upset", "zz"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'zz' is not an object" in captured.err
    assert "Traceback" not in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "posetprod.cli", "fvector", "fix-b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["f_vector"] == [2, 2]
