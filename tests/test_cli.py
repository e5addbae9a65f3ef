"""CLI: exit codes, report schema, determinism, every subcommand."""

import json

import pytest

from fusionkit.cli import run
from fusionkit.errors import InputError
from fusionkit.examples import run_example
from fusionkit.reports import REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse(out):
    report = json.loads(out)
    assert report["schema"] == REPORT_SCHEMA
    return report


def test_build_succeeds(capsys):
    code, out = run_cli(capsys, "build", "--group", "s4", "--prime", "2")
    assert code == 0
    report = parse(out)
    assert all(r["holds"] for r in report["results"])


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "examples", "v4-a4")
    _, second = run_cli(capsys, "examples", "v4-a4")
    assert first == second


def test_pretty_output_parses_to_the_same_report(capsys):
    _, compact = run_cli(capsys, "saturated", "--group", "a4", "--prime", "2")
    _, pretty = run_cli(capsys, "saturated", "--group", "a4", "--prime", "2",
                        "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_timing_flag_fills_the_field(capsys):
    _, out = run_cli(capsys, "build", "--group", "c4", "--prime", "2",
                     "--timing")
    assert parse(out)["timing_ms"] is not None
    _, out = run_cli(capsys, "build", "--group", "c4", "--prime", "2")
    assert parse(out)["timing_ms"] is None


def test_assert_flag_turns_failed_predicates_into_exit_one(capsys):
    code, out = run_cli(capsys, "opprime", "--group", "a4", "--prime", "2")
    assert code == 0
    report = parse(out)
    assert not all(r["holds"] for r in report["results"])
    code, _ = run_cli(capsys, "opprime", "--group", "a4", "--prime", "2",
                      "--assert")
    assert code == 1


def test_unknown_group_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "build", "--group", "nosuchgroup", "--prime", "2")
    assert code == 2


def test_missing_prime_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "build", "--group", "d8")
    assert code == 2


def test_prime_not_dividing_order_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "build", "--group", "d8", "--prime", "3")
    assert code == 2


def test_bad_kernel_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "quotient", "--group", "s4", "--prime", "2",
                      "--kernel", "(1,2)")
    assert code == 2


def test_bad_permutation_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "normality", "--group", "a4", "--prime", "2",
                      "--sub", "(9,9)")
    assert code == 2


def test_map_check_needs_a_source(capsys):
    code, _ = run_cli(capsys, "map-check", "--group", "a4", "--prime", "2")
    assert code == 2


def test_map_check_missing_map_file_is_an_input_error(tmp_path, capsys):
    code, _ = run_cli(capsys, "map-check", "--group", "a4", "--prime", "2",
                      "--map", str(tmp_path / "absent.json"))
    assert code == 2


def test_map_check_non_json_map_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text("not json {")
    code, _ = run_cli(capsys, "map-check", "--group", "a4", "--prime", "2",
                      "--map", str(path))
    assert code == 2


def test_map_check_map_file_missing_a_key_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"schema": "fusionkit-autmap/1", "T": [0]}))
    code, _ = run_cli(capsys, "map-check", "--group", "a4", "--prime", "2",
                      "--map", str(path))
    assert code == 2


def test_strongly_closed_lists_orders(capsys):
    code, out = run_cli(capsys, "strongly-closed", "--group", "s4",
                        "--prime", "2")
    assert code == 0
    witness = parse(out)["results"][0]["witness"]
    assert [w["order"] for w in witness] == [1, 4, 8]


def test_normality_subcommand(capsys):
    code, out = run_cli(capsys, "normality", "--group", "s3xs3",
                        "--sub", "(1,2,3);(1,2)", "--assert")
    assert code == 0
    assert all(r["holds"] for r in parse(out)["results"])


def test_quotient_subcommand(capsys):
    code, out = run_cli(capsys, "quotient", "--group", "d8", "--prime", "2",
                        "--kernel", "(1,3)(2,4)", "--assert")
    assert code == 0


def test_wedge_subcommand(capsys):
    code, out = run_cli(capsys, "wedge", "--group", "d8xc2", "--prime", "2",
                        "--sub", "(1,2,3,4);(1,3)",
                        "--sub2", "(1,2,3,4)(5,6);(1,3)", "--assert")
    assert code == 0
    report = parse(out)
    built = next(r for r in report["results"] if r["predicate"] == "wedge built")
    assert built["witness"]["carrier_order"] == 4
    assert built["witness"]["iso_count"] == 5


def test_based_subcommand(capsys):
    code, out = run_cli(capsys, "based", "--group", "a4", "--prime", "2",
                        "--target", "(1,2)(3,4);(1,3)(2,4)", "--assert")
    assert code == 0
    report = parse(out)
    by_pred = {r["predicate"]: r["witness"] for r in report["results"]}
    assert by_pred["minimal weakly normal subsystem"]["iso_count"] == 5
    assert by_pred["maximal weakly normal subsystem"]["iso_count"] == 13


def test_hypercentre_subcommand(capsys):
    code, out = run_cli(capsys, "hypercentre", "--group", "sl23",
                        "--prime", "2", "--assert")
    assert code == 0
    report = parse(out)
    by_pred = {r["predicate"]: r["witness"] for r in report["results"]}
    assert by_pred["hypercentre"]["order"] == 2


def test_perfect_subcommand(capsys):
    code, out = run_cli(capsys, "perfect", "--group", "sl23", "--prime", "2",
                        "--assert")
    assert code == 0


def test_perfect_on_a_system_that_is_not_perfect_prints_one_row(capsys):
    code, out = run_cli(capsys, "perfect", "--group", "c2", "--prime", "2")
    assert code == 0
    assert parse(out)["results"] == [{"holds": False, "predicate": "perfect", "witness": None}]


def test_empty_chunks_of_a_sub_text_are_skipped(capsys):
    reports = []
    for text in ("(1,2);;(3,4)", "(1,2);(3,4)"):
        code, out = run_cli(capsys, "normality", "--group", "v4", "--prime", "2", "--sub", text)
        assert code == 0
        report = parse(out)
        assert report["inputs"].pop("sub") == text
        reports.append(report)
    assert reports[0] == reports[1]


def test_theorem_a_subcommand(capsys):
    code, out = run_cli(capsys, "theorem-a", "--group", "s3xs3",
                        "--sub", "(1,2,3);(1,2)", "--assert")
    assert code == 0


ASL23_GENERATORS = "(1,4,7)(2,5,8)(3,6,9);(2,5,8)(3,9,6);(2,7,3,4)(5,8,9,6)"


def test_theorem_a_holds_on_asl23(capsys):
    code, _ = run_cli(capsys, "theorem-a", "--group", "asl23", "--prime", "3",
                      "--sub", ASL23_GENERATORS, "--assert")
    assert code == 0


def test_opprime_of_asl23_is_the_whole_system(capsys):
    code, out = run_cli(capsys, "opprime", "--group", "asl23", "--prime", "3")
    holds = {r["predicate"]: r["holds"] for r in parse(out)["results"]}
    assert code == 0 and holds["equal to F"] is True


def test_map_check_subcommand_with_subsystem_source(capsys):
    code, out = run_cli(capsys, "map-check", "--group", "s3xs3",
                        "--sub", "(1,2,3);(1,2)", "--assert")
    assert code == 0


def test_map_check_subcommand_with_file_source(tmp_path, capsys):
    from fusionkit import aut_map_of, aut_map_to_data, fusion_of_group, load_group_spec

    G, _ = load_group_spec("s3xs3")
    F = fusion_of_group(G, 3)
    r1, s1, _, _ = G.generator_indices
    K = G.generated_subgroup([r1, s1])
    EK = fusion_of_group(K, 3, G.generated_subgroup([r1]))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(aut_map_to_data(aut_map_of(EK))))
    code, out = run_cli(capsys, "map-check", "--group", "s3xs3",
                        "--map", str(path), "--assert")
    assert code == 0


@pytest.mark.parametrize("name", ["v4-a4", "a4xa4", "d8xc2", "s3xs3", "ea9-s3"])
def test_examples_all_pass(capsys, name):
    code, out = run_cli(capsys, "examples", name, "--assert")
    assert code == 0
    assert all(r["holds"] for r in parse(out)["results"])


def test_unknown_example_is_an_input_error():
    with pytest.raises(InputError, match="known: a4xa4, d8xc2, ea9-s3, s3xs3, v4-a4"):
        run_example("nosuch")


def test_sweep_small_and_deterministic(capsys):
    code, first = run_cli(capsys, "sweep", "--max-order", "8", "--assert")
    assert code == 0
    report = parse(first)
    assert all(r["holds"] for r in report["results"])
    _, second = run_cli(capsys, "sweep", "--max-order", "8", "--assert")
    assert first == second


def test_map_check_malformed_map_field_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"schema": "fusionkit-autmap/1", "T": [0], "assignment": [[1]]}
    ))
    code = run(["map-check", "--group", "s3", "--prime", "3", "--map", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_non_utf8_group_spec_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["build", "--group", str(path), "--prime", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["build"]])
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fusionkit")


def test_runs_in_one_process_do_not_share_flags(capsys):
    _, out = run_cli(capsys, "sweep", "--max-order", "4", "--timing")
    assert parse(out)["timing_ms"] is not None
    _, out = run_cli(capsys, "sweep", "--max-order", "4")
    report = parse(out)
    assert report["timing_ms"] is None
    assert report["inputs"] == {"max_order": 4}


@pytest.mark.parametrize("argv", [
    ["examples", "v4-a4", "--prime", "7"],
    ["sweep", "--max-order", "4", "--prime", "2"],
])
def test_prime_is_only_accepted_by_group_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fusionkit")


@pytest.mark.parametrize("prime", ["0", "-3"])
def test_non_positive_prime_is_an_input_error(capsys, prime):
    assert run(["build", "--group", "a4", "--prime", prime]) == 2
    assert json.loads(capsys.readouterr().err)["error"] in {"InputError", "PreconditionFailed"}


def test_map_check_source_does_not_leak_between_runs(tmp_path, capsys):
    from fusionkit import aut_map_of, aut_map_to_data, fusion_of_group, load_group_spec

    G, _ = load_group_spec("s3xs3")
    r1, s1, _, _ = G.generator_indices
    EK = fusion_of_group(G.generated_subgroup([r1, s1]), 3, G.generated_subgroup([r1]))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(aut_map_to_data(aut_map_of(EK))))
    _, out = run_cli(capsys, "map-check", "--group", "s3xs3", "--map", str(path))
    assert parse(out)["inputs"]["map"] == str(path)
    code, out = run_cli(capsys, "map-check", "--group", "s3xs3",
                        "--sub", "(1,2,3);(1,2)", "--assert")
    assert code == 0
    assert parse(out)["inputs"]["map"] == "(1,2,3);(1,2)"


def test_based_target_outside_p_is_an_input_error(capsys):
    """<(1,2,3)> is a Sylow 3-subgroup of S4, but not the one chosen as P."""
    assert run(["based", "--group", "s4", "--prime", "3", "--target", "(1,2,3)"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NotASubgroupOfP"


def test_quotient_kernel_outside_p_is_an_input_error(capsys):
    assert run(["quotient", "--group", "s4", "--prime", "2", "--kernel", "(1,2,3)"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NotASubgroupOfP"


def test_sub_permutation_outside_the_group_is_an_input_error(capsys):
    """(1,2) is a permutation of the right degree, but not an element of A4."""
    assert run(["normality", "--group", "a4", "--prime", "2", "--sub", "(1,2)"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "not an element of the group" in err["message"]


def test_missing_group_spec_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "spec.json"
    assert run(["build", "--group", str(path), "--prime", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError" and "no such group spec file" in err["message"]
