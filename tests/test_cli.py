"""Command line interface: report shapes, exit codes, file input."""

import json
import subprocess
import sys
import time

import pytest

from posetprod import cli, polytensor
from posetprod.cli import main
from posetprod.fixtures import cube, fix_b
from posetprod.limits import PosetDiagram
from posetprod.linalg import GradedVectorSpace


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


def test_hilbert_fvector_counts_the_faces_of_the_transform(tmp_path, capsys):
    # fix-c is not simplicial: f(P) = (4, 4, 0, 1) would give [1, 4, 8, 12, 17]
    code, rep = run(capsys, "hilbert", "fix-c", "--max-degree", "4", "--method", "fvector")
    assert code == 0
    assert rep["results"]["dims"] == [1, 4, 10, 20, 35]

    path = tmp_path / "cube4.json"
    path.write_text(json.dumps(cube(4).to_dict()))
    code, rep = run(capsys, "hilbert", str(path), "--max-degree", "4", "--method", "fvector")
    assert code == 0
    assert rep["results"]["dims"] == [1, 16, 136, 816, 3876]


def test_reduction_checks_reuse_the_split_over_p(capsys, monkeypatch):
    calls = []
    split = polytensor._split_terms

    def counted(P, collection):
        calls.append(P)
        return split(P, collection)

    monkeypatch.setattr(polytensor, "_split_terms", counted)
    # fix-c is reduced, so the reduction check walks nothing new; suite walks
    # the circle, the augmentation (hilbert) and the homology comparison
    for argv, expected in [
        (["suite", "fix-c"], 3),
        (["tensor", "fix-c", "--collection", "circle", "--check-reduction"], 1),
        (["tensor", "fix-a", "--collection", "circle", "--check-reduction"], 2),
    ]:
        calls.clear()
        run(capsys, *argv)
        assert len(calls) == expected, argv


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


def _break_the_direct_tensor_route(monkeypatch):
    """Make ``build_T`` return the constant diagram of the unit, whose
    limits differ from those of any tensor diagram the tests use."""
    monkeypatch.setattr(
        "posetprod.polytensor.build_T",
        lambda P, coll, **k: PosetDiagram.constant(P, GradedVectorSpace.unit(coll.field, coll.truncation)),
    )


def test_tensor_names_non_acyclic_supports_and_checks_the_route(capsys, monkeypatch):
    code, rep = run(capsys, "tensor", "fix-a", "--max-degree", "3", "--check-route")
    assert code == 0
    res = rep["results"]
    assert res["higher_limits"] == res["direct_limits"] == [[1, 2, 3, 4], [0, 0, 1, 2]]
    assert res["routes_agree"] is True
    assert rep["non_acyclic_supports"] == [
        {"support": ["1", "2"], "cokernel": [], "dims": [0, 0, 1, 2], "betti": [1, 1]}
    ]

    code, rep = run(capsys, "tensor", "cube-2", "--collection", "circle", "--max-degree", "2")
    assert code == 0
    assert rep["non_acyclic_supports"] == []
    assert "routes_agree" not in rep["results"]

    # a disagreement between the routes is a failed verification; only the
    # direct route builds T, so a wrong T changes the direct route alone
    _break_the_direct_tensor_route(monkeypatch)
    code, rep = run(capsys, "tensor", "fix-a", "--max-degree", "3", "--check-route")
    assert code == 1
    assert rep["results"]["routes_agree"] is False
    assert rep["results"]["higher_limits"] == [[1, 2, 3, 4], [0, 0, 1, 2]]


def test_homology_subcommand(capsys):
    code, rep = run(capsys, "homology", "fix-e", "--max-dim", "2")
    assert code == 0
    assert rep["results"]["homology"] == [1, 2, 0]
    assert rep["results"]["agree"]

    code, rep = run(capsys, "homology", "fix-e", "--pair", "disk2-circle",
                    "--max-dim", "3", "--via", "hocolim")
    assert code == 0
    assert rep["results"]["homology"] == [1, 0, 0, 1]


def test_homology_results_keep_their_keys_and_name_the_route(capsys):
    code, rep = run(capsys, "homology", "fix-e", "--max-dim", "2")
    assert code == 0
    assert set(rep["results"]) == {"homology", "predicted_from_limits", "higher_limits", "agree"}
    # the wedge of two circles: one vertex and two edges
    assert rep["route"] == {"name": "cellular", "cells": [1, 2, 0, 0]}
    code, rep = run(capsys, "homology", "fix-e", "--max-dim", "1", "--no-compare", "--via", "hocolim")
    assert code == 0
    assert set(rep["results"]) == {"homology"}
    # the critical cells of the hocolim: one per tuple of cores, as the colimit has
    assert rep["route"] == {"name": "cellular", "cells": [1, 2, 0]}


def test_homology_check_route(capsys, monkeypatch):
    code, rep = run(capsys, "homology", "fix-b", "--max-dim", "2", "--check-route")
    assert code == 0
    res = rep["results"]
    assert res["homology"] == res["simplicial_homology"] == [1, 2, 2]
    assert res["routes_agree"] is True and res["agree"] is True

    # the hocolim is checked against its simplicial set
    code, rep = run(capsys, "homology", "fix-b", "--max-dim", "2", "--via", "hocolim", "--check-route")
    assert code == 0
    res = rep["results"]
    assert res["homology"] == res["simplicial_homology"] == [1, 2, 2]
    assert res["routes_agree"] is True and res["agree"] is True
    assert rep["route"]["name"] == "cellular"

    # a disagreement between the routes is a failed verification
    monkeypatch.setattr("posetprod.spaces.homology", lambda *a, **k: (1, 0, 0))
    for via in ("colim", "hocolim"):
        code, rep = run(capsys, "homology", "fix-b", "--max-dim", "2", "--via", via, "--check-route")
        assert code == 1
        assert rep["results"]["routes_agree"] is False
        assert rep["results"]["agree"] is True


@pytest.mark.parametrize("via", ["colim", "hocolim"])
def test_homology_below_the_top_core_of_a_model_space(capsys, via):
    for pair in ("disk2-circle", "circle-point"):
        code, rep = run(capsys, "homology", "fix-e", "--pair", pair,
                        "--max-dim", "0", "--via", via)
        assert code == 0
        assert rep["results"]["homology"] == [1]
        assert rep["results"]["agree"]


def test_suite_at_degree_zero(capsys):
    # the circle collection truncates at degree 0 to the unit
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "0")
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"]
    assert res["tensor_circle"]["higher_limits"] == [[1]]
    assert res["homology_circle_point"] == {
        "homology": [1], "predicted_from_limits": [1], "higher_limits": [[1]], "agree": True,
        "simplicial_homology": [1], "routes_agree": True,
    }


def test_suite_runs_cross_checks(capsys):
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "3")
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"]
    assert res["hilbert"]["agree"]
    assert res["transform_f_vector"]["agree"]
    assert res["homology_circle_point"]["agree"]
    assert res["homology_circle_point"]["routes_agree"] is True


def test_suite_checks_the_tensor_routes(capsys, monkeypatch):
    for poset in ("fix-b", "fix-c"):
        code, rep = run(capsys, "suite", poset, "--max-degree", "3")
        assert code == 0
        assert rep["results"]["tensor_circle"]["routes_agree"] is True

    _break_the_direct_tensor_route(monkeypatch)
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "3")
    assert code == 1
    res = rep["results"]
    assert res["tensor_circle"]["routes_agree"] is False
    assert res["tensor_circle"]["reduction_invariant"] is True
    assert res["all_checks_pass"] is False


def test_suite_counts_the_faces_of_the_transform_without_building_it(capsys, monkeypatch):
    monkeypatch.setattr(cli, "simplicial_transform", lambda P: pytest.fail("suite built s(P)"))
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "2")
    assert code == 0
    assert rep["results"]["transform_f_vector"] == {"actual": [4, 6, 4, 1], "predicted": [4, 6, 4, 1], "agree": True}


def test_stransform_refuses_faces_that_would_share_a_name(tmp_path, capsys):
    # {a, b}@0 and {"a,b"}@0 would both be named a,b@0
    verts = ["a", "b", "a,b"]
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({
        "objects": ["*", *verts, "0"], "base": "*",
        "covers": [["*", v] for v in verts] + [[v, "0"] for v in verts],
    }))
    assert main(["stransform", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "would both be named 'a,b@0'" in err


def test_suite_reports_homology_beyond_the_space_limit(capsys):
    # simplex-3 has 16 objects, more than suite builds the colimit for
    code, rep = run(capsys, "suite", "simplex-3", "--max-degree", "3")
    assert code == 0
    hom = rep["results"]["homology_circle_point"]
    assert hom == {
        "homology": [1, 4, 6, 4], "predicted_from_limits": [1, 4, 6, 4], "higher_limits": [[1, 4, 6, 4]], "agree": True,
    }


def test_suite_leaves_out_the_homology_comparison_off_its_hypothesis(capsys):
    # fix-a is not lower saturated, so its colimit need not have the
    # homology its limits predict (lim^1 != 0 there): suite does not compare
    # them, and the classification names the witness
    code, rep = run(capsys, "suite", "fix-a", "--max-degree", "4")
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"] is True
    assert "homology_circle_point" not in res
    assert res["classification"]["lower_saturated"] is False
    assert res["classification"]["witnesses"]["lower_saturated"]


def test_suite_names_every_check_it_skipped(capsys):
    # fix-a is neither polyhedral, regular nor lower saturated: suite runs
    # no check, and says so, though it still exits 0
    code, rep = run(capsys, "suite", "fix-a", "--max-degree", "4")
    assert code == 0
    res = rep["results"]
    assert res["all_checks_pass"] is True and res["checks_run"] == 0
    witnesses = res["classification"]["witnesses"]
    assert res["skipped_checks"] == {
        key: {"hypothesis": hypothesis, "witness": witnesses[hypothesis]}
        for key, hypothesis in [("hilbert", "polyhedral"), ("tensor_circle", "polyhedral"),
                                ("transform_f_vector", "regular"), ("homology_circle_point", "lower_saturated")]
    }
    assert not {"hilbert", "tensor_circle", "transform_f_vector", "homology_circle_point"} & set(res)
    # fix-c satisfies every hypothesis, so all four sections run
    code, rep = run(capsys, "suite", "fix-c", "--max-degree", "2")
    assert code == 0
    res = rep["results"]
    assert res["skipped_checks"] == {} and res["checks_run"] == 4
    assert {"hilbert", "tensor_circle", "transform_f_vector", "homology_circle_point"} <= set(res)


def test_parameters_echo_every_parsed_argument(capsys):
    code, rep = run(capsys, "tensor", "fix-a", "--check-route")
    assert code == 0
    assert rep["parameters"] == {
        "collection": "aug:1", "max_degree": 4, "check_reduction": False, "check_route": True, "field": "q",
    }
    code, rep = run(capsys, "homology", "fix-b", "--no-compare", "--check-route", "--via", "hocolim")
    assert code == 0
    assert rep["parameters"] == {
        "pair": "circle-point", "max_dim": 2, "via": "hocolim", "compare": False, "check_route": True, "field": "q",
    }
    code, rep = run(capsys, "suite", "fix-c")
    assert code == 0
    assert rep["parameters"] == {"max_degree": 4, "field": "q"}


def test_repeated_calls_do_not_share_state(capsys):
    # the parser is built once per process; each call starts from its defaults
    code, rep = run(capsys, "check", "fix-c", "--expect", "polyhedral")
    assert code == 0 and rep["parameters"]["expect"] == ["polyhedral"]
    code, rep = run(capsys, "check", "fix-c")
    assert code == 0 and rep["parameters"]["expect"] is None

    code, rep = run(capsys, "limits", "fix-a", "--upset", "3", "--upset", "4")
    assert rep["parameters"]["upset"] == ["3", "4"]
    code, rep = run(capsys, "limits", "fix-a", "--upset", "3")
    assert code == 0 and rep["parameters"]["upset"] == ["3"]
    code, rep = run(capsys, "limits", "fix-a")
    assert code == 0 and rep["parameters"]["upset"] is None

    code, rep = run(capsys, "--pretty", "fvector", "fix-b")
    assert code == 0
    code = main(["fvector", "fix-b"])
    assert "\n  " not in capsys.readouterr().out


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
    code = main(["tensor", "fix-b", "--field", "foo"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--field" in err and "q or a prime" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("collection", ["aug:", "aug:x", "aug:0"])
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


def test_hilbert_refusal_names_the_failed_property(capsys):
    # fix-a is not polyhedral: 3 and 4 have upper bounds but no meet
    code = main(["hilbert", "fix-a"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: not polyhedral: ('3', '4')\n"


def test_out_of_memory_is_exit_2(monkeypatch, capsys):
    # exit 1 means "a verification came out false"; running out of memory
    # is a refusal, not a disagreement
    def exhausted(P):
        raise MemoryError

    monkeypatch.setattr(cli, "simplicial_transform", exhausted)
    code = main(["stransform", "fix-b"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "posetprod.cli", "fvector", "fix-b"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["f_vector"] == [2, 2]


_SQUARE = {"objects": [0, 1, 2, 3], "base": 0, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize("argv", [["tensor"], ["suite"], ["stransform"], ["limits", "--upset", "3"]])
def test_number_names_read_as_strings(tmp_path, capsys, argv):
    numbers, strings = tmp_path / "numbers.json", tmp_path / "strings.json"
    numbers.write_text(json.dumps(_SQUARE))
    strings.write_text(json.dumps({
        "objects": [str(o) for o in _SQUARE["objects"]],
        "base": str(_SQUARE["base"]),
        "covers": [[str(a), str(b)] for a, b in _SQUARE["covers"]],
    }))
    code, by_number = run(capsys, argv[0], str(numbers), *argv[1:])
    assert code == 0
    code, by_string = run(capsys, argv[0], str(strings), *argv[1:])
    assert code == 0
    assert by_number["results"] == by_string["results"]


@pytest.mark.parametrize("data", [
    {"objects": 5, "base": 0, "covers": []},
    {"objects": [0, 1], "base": 0, "covers": 5},
    {"objects": [0, [1]], "base": 0, "covers": []},
    {"objects": [0, 1], "base": 0, "covers": [[0, 1, 1]]},
    {"objects": [0, 1], "base": None, "covers": [[0, 1]]},
    [0, 1],
    {"objects": ["*"], "base": "*"},
])
def test_malformed_poset_files_are_typed_refusals(tmp_path, capsys, data):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(data))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_a_degree_that_is_not_an_integer_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "fix-c", "--max-degree", "x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "--max-degree: invalid int value: 'x'" in captured.err


def test_suite_on_the_one_point_poset(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"objects": ["*"], "base": "*", "covers": []}))
    code, rep = run(capsys, "suite", str(path))
    assert code == 0
    assert rep["results"]["all_checks_pass"] is True
    assert rep["results"]["homology_circle_point"]["homology"] == [1, 0, 0, 0]


def test_a_large_prime_field_answers_at_once(capsys):
    started = time.perf_counter()
    code, rep = run(capsys, "homology", "fix-b", "--field", str(2**61 - 1))
    assert time.perf_counter() - started < 1.0
    assert code == 0 and rep["results"]["agree"] is True


def test_a_prime_past_the_deterministic_range_is_a_typed_refusal(capsys):
    code = main(["homology", "fix-b", "--field", str(10**30 + 57)])
    captured = capsys.readouterr()
    assert code == 2
    assert "supported for p below" in captured.err and "Traceback" not in captured.err
