"""CLI: generation round-trips, report shapes, check gates, and exit codes."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math

import pytest

from ocrlab import cli
from ocrlab.cli import CHECK_FAILURE, RESOURCE_ERROR, USAGE_ERROR, main
from ocrlab.constructions import UFamilyReport, build_multiunit_instance
from ocrlab.core import Instance, ValueDistribution, instance_to_json_dict
from ocrlab.feasibility import ExplicitFamilyOracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def multiunit_file(tmp_path, capsys):
    path = tmp_path / "mu.json"
    code, _, _ = run(capsys, "gen", "--construction", "multiunit", "--k", "4",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def pairs_file(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    assert run(capsys, "gen", "--construction", "pairs", "--k", "3",
               "--out", str(path))[0] == 0
    return str(path)


class TestGen:
    def test_multiunit_summary(self, tmp_path, capsys):
        path = tmp_path / "mu100.json"
        code, out, _ = run(capsys, "gen", "--construction", "multiunit",
                           "--k", "100", "--out", str(path))
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 400 and summary["orders"] == 2

    def test_tree_k4_size(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, out, _ = run(capsys, "gen", "--construction", "tree", "--k", "4",
                           "--out", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 340

    def test_partition_summary(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--construction", "partition-scaled",
                           "--out", str(tmp_path / "part.json"))
        assert code == 0
        summary = json.loads(out)
        assert summary["name"] == "partition-4x4"
        assert summary["n"] == 16 and summary["orders"] == 0
        assert summary["metadata"]["blocks"] == "4" and summary["metadata"]["p"] == "0.25"
        # four blocks of four: 4 * 2**4 subsets, the empty set counted once
        assert summary["family_size"] == 61

    def test_small_instance_reports_family_size(self, pairs_file, capsys):
        code, out, _ = run(capsys, "gen", "--construction", "pairs", "--k", "2",
                           "--out", pairs_file)
        assert code == 0
        assert json.loads(out)["family_size"] == 2

    def test_round_trip_verifies_byte_identical(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "verify", "--what", "instance",
                           "--instance", multiunit_file, "--check")
        assert code == 0
        assert json.loads(out)["round_trip_identical"] is True

    def test_file_from_the_streaming_encoder_passes_check(self, tmp_path, capsys):
        # files written by json.dump before the row templates keep verifying
        instance, orders = build_multiunit_instance(4)
        path = tmp_path / "old.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance_to_json_dict(instance, orders), fh, indent=2, sort_keys=True)
            fh.write("\n")
        code, out, _ = run(capsys, "verify", "--what", "instance",
                           "--instance", str(path), "--check")
        assert code == 0 and json.loads(out)["round_trip_identical"] is True

    def test_tampered_file_fails_check(self, multiunit_file, capsys, tmp_path):
        with open(multiunit_file) as fh:
            doc = json.load(fh)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))  # same content, different bytes
        code, out, _ = run(capsys, "verify", "--what", "instance",
                           "--instance", str(tampered), "--check")
        assert code == CHECK_FAILURE


class TestSimulateAndRatio:
    def test_simulate_json_report(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "simulate", "--instance", multiunit_file,
                           "--policy", "multiunit_threshold:d=0.913,variant=unaware",
                           "--order", "0", "--trials", "500", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "simulate"
        assert doc["config"]["seed"] == 3 and doc["config"]["trials"] == 500
        assert "wall" not in out and "workers" not in out
        assert doc["report"]["trials"] == 500

    def test_simulate_is_worker_invariant(self, multiunit_file, capsys):
        outs = []
        for workers in ("1", "4"):
            code, out, _ = run(capsys, "simulate", "--instance", multiunit_file,
                               "--policy", "greedy", "--order", "sampled",
                               "--trials", "3000", "--seed", "5",
                               "--workers", workers)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_sampled_orders_need_orders(self, tmp_path, capsys):
        path = tmp_path / "part.json"
        assert run(capsys, "gen", "--construction", "partition-scaled",
                   "--out", str(path))[0] == 0
        for argv in (("simulate", "--policy", "greedy", "--order", "sampled"),
                     ("ratio", "--policy", "greedy")):
            code, out, err = run(capsys, *argv, "--trials", "10", "--seed", "0",
                                 "--instance", str(path))
            assert code == USAGE_ERROR and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "order" in err

    def test_simulate_csv(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "simulate", "--instance", multiunit_file,
                           "--policy", "greedy", "--trials", "200", "--seed", "1",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][:2] == ["version", "instance"] and len(rows) == 2

    def test_ratio_exact_reference(self, pairs_file, capsys):
        code, out, _ = run(capsys, "ratio", "--instance", pairs_file,
                           "--policy", "greedy", "--trials", "2000", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        report = doc["report"]
        assert not report["denominator_is_lower_bound"]
        assert report["rows"][0]["denominator"] == pytest.approx(1.0 / 6.0)
        assert report["min_ratio"] is not None

    def test_ratio_policy_reference_csv(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "ratio", "--instance", multiunit_file,
                           "--policy", "multiunit_threshold:d=0.913,variant=unaware",
                           "--reference", "multiunit_threshold:d=0.913,variant=pi1",
                           "--trials", "1000", "--seed", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 3  # header + one row per order
        header = rows[0]
        assert rows[1][header.index("denominator_is_lower_bound")] == "True"


class TestExact:
    def test_pairs_aware_value(self, pairs_file, capsys):
        argv = ("exact", "--instance", pairs_file, "--mode", "aware", "--order", "0")
        code, out, err = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(1.0 / 6.0)
        assert doc["states_expanded"] > 0
        # wall time goes to stderr, so the report is byte-identical on rerun
        assert "wall_time_ms" not in doc and "wall_time_ms" in err
        assert run(capsys, *argv)[1] == out

    def test_pairs_prophet(self, pairs_file, capsys):
        code, out, _ = run(capsys, "exact", "--instance", pairs_file,
                           "--mode", "prophet")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(91.0 / 216.0)

    def test_multiunit_unaware_value(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "exact", "--instance", multiunit_file,
                           "--mode", "unaware")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"instance": "multiunit-k4", "mode": "unaware", "order": None}
        assert doc["value"] == 7.474609375 and doc["states_expanded"] == 125

    def test_aware_is_bounded_by_the_state_budget_only(self, tmp_path, capsys):
        # 400 elements: no element cap applies, the solve meets 35,350 states
        path = str(tmp_path / "mu100.json")
        assert run(capsys, "gen", "--construction", "multiunit", "--k", "100",
                   "--out", path)[0] == 0
        code, out, _ = run(capsys, "exact", "--instance", path, "--mode", "aware")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 197.09357338198546 and doc["states_expanded"] == 35350
        code, out, err = run(capsys, "exact", "--instance", path, "--mode", "aware",
                             "--max-states", "35349")
        assert code == RESOURCE_ERROR and out == "" and "35349" in err

    @pytest.mark.parametrize("order", ["-1", "2", "5"])
    def test_aware_rejects_an_order_index_outside_the_file(self, multiunit_file,
                                                           capsys, order):
        # -1 once solved the last order and reported "order": -1; 5 raised
        # an IndexError traceback
        code, out, err = run(capsys, "exact", "--instance", multiunit_file,
                             "--mode", "aware", "--order", order)
        assert code == USAGE_ERROR and out == ""
        assert f"order index {order} not present" in err

    def test_aware_solves_the_last_order(self, multiunit_file, capsys):
        code, out, _ = run(capsys, "exact", "--instance", multiunit_file,
                           "--mode", "aware", "--order", "1")
        assert code == 0 and json.loads(out)["config"]["order"] == 1

    @pytest.mark.parametrize("mode", ["aware", "unaware"])
    def test_a_file_without_orders_has_no_aware_or_unaware_optimum(self, tmp_path,
                                                                   capsys, mode):
        path = tmp_path / "tree.json"
        assert run(capsys, "gen", "--construction", "tree", "--out", str(path))[0] == 0
        code, out, err = run(capsys, "exact", "--instance", str(path), "--mode", mode)
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: {mode} mode needs an instance file with orders\n"

    def test_unaware_needs_orders(self, tmp_path, capsys):
        path = tmp_path / "part.json"
        run(capsys, "gen", "--construction", "partition-scaled", "--blocks", "2",
            "--block-size", "2", "--p", "0.5", "--out", str(path))
        code, _, err = run(capsys, "exact", "--instance", str(path),
                           "--mode", "unaware")
        assert code == USAGE_ERROR and "orders" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "greedy", "--trials", "50", "--seed", "1", "--format", "csv"),
    ("exact", "--mode", "aware"),
    ("constants", "--format", "csv")], ids=["simulate", "exact", "constants"])
def test_out_writes_the_printed_report(multiunit_file, tmp_path, capsys, argv):
    if argv[0] != "constants":
        argv = (*argv, "--instance", multiunit_file)
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed
    path = tmp_path / "report.txt"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == printed.encode("utf-8")


# stdout of each report at a fixed working directory, so the relative file
# names in the configs are fixed
MU_THRESHOLD = "multiunit_threshold:d=0.913,variant="
REPORT_SHA256 = {
    "simulate-json": (
        ("simulate", "--instance", "mu.json", "--policy",
         "multiunit_threshold:d=1.152,variant=pi1", "--trials", "300", "--seed", "1"),
        "1910ecb0c5f54f1608ee1be590833aaf3ed7853506ffee7f565dea8b9c1e2fc6"),
    "simulate-csv": (
        ("simulate", "--instance", "tree.json", "--policy", "tree_aware", "--order", "tree",
         "--trials", "200", "--seed", "2", "--format", "csv"),
        "0fc915c3dc3a65d87693686f700bd3cb6b9b5423c09f4fa826ca4bfd6c259ae1"),
    "ratio-json": (
        ("ratio", "--instance", "mu.json", "--policy", MU_THRESHOLD + "unaware",
         "--trials", "200", "--seed", "3"),
        "001fb4411de1176812154fbc95183eb6f382683508655fe1139e898bae1be602"),
    "ratio-csv-policy-reference": (
        ("ratio", "--instance", "mu.json", "--policy", "greedy",
         "--reference", MU_THRESHOLD + "pi1", "--trials", "200", "--seed", "3",
         "--format", "csv"),
        "57f36fc50a7e373bb7476c0c9c37ca8e9550d81cf38a6d874df4f45f33c378cc"),
    "exact-aware": (
        ("exact", "--instance", "mu.json", "--mode", "aware", "--order", "1"),
        "9a36e41a76afe149e6b5c250daabe80dac1f891ca5916ff64addb4d54badd156"),
    "exact-unaware": (
        ("exact", "--instance", "mu.json", "--mode", "unaware"),
        "bc6da1cc774e7f3afe7a4513e31fa21626773f3112d9f5200945b9f7bac08467"),
    "exact-prophet": (
        ("exact", "--instance", "tree.json", "--mode", "prophet"),
        "f22720641419671cc7f4f5e6294bf17a5e2f13a69ed15095bbab52ffd18cc8f6"),
    "constants-json": (
        ("constants",),
        "3126f1802daa8171fe756fd40953d5ae2fe17897eeaedde7558a5ce8ab709927"),
    "constants-csv": (
        ("constants", "--format", "csv"),
        "9f86add7308cde627502eefc02c78c8b675cae0f06cfcff420f6f2a56b839beb"),
    "verify-ufamily": (
        ("verify", "--what", "ufamily", "--n", "65536", "--alpha", "10", "--k1", "4",
         "--k3", "64", "--seed", "1"),
        "2c5ccb71d865fb2e7fb84f2eb148e243ec6de2131b25a6dd58c36b6eaa3678c0"),
    "verify-instance": (
        ("verify", "--what", "instance", "--instance", "mu.json"),
        "a1bea13c7c918c99bc7affaa19f5b7e1e36c7135b7f811da6511c1ac257a898d"),
}


@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, name):
    # the shape tests above read the reports; this holds every byte of them
    monkeypatch.chdir(tmp_path)
    for argv in (("multiunit", "--k", "4", "--out", "mu.json"),
                 ("tree", "--k", "2", "--out", "tree.json")):
        assert run(capsys, "gen", "--construction", *argv)[0] == 0
    argv, sha256 = REPORT_SHA256[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


class TestConstantsAndVerify:
    def test_constants_check_passes(self, capsys):
        code, out, _ = run(capsys, "constants", "--check")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 16

    def test_constants_check_fails_on_one_bad_row(self, monkeypatch, capsys):
        rows = cli.derived_constants()
        bad = [dataclasses.replace(r, value=r.value + 0.01) if r.name == "inv_c_prime" else r
               for r in rows]
        monkeypatch.setattr(cli, "derived_constants", lambda: bad)
        code, out, err = run(capsys, "constants", "--check")
        assert code == CHECK_FAILURE and err == "constants check failed\n"
        assert len(json.loads(out)["rows"]) == 16

    def test_constants_csv(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["name", "value", "reference_value", "abs_err", "method"]
        assert len(rows) == 17

    def test_verify_ufamily(self, capsys):
        code, out, _ = run(capsys, "verify", "--what", "ufamily", "--check",
                           "--n", str(2 ** 16), "--alpha", "10", "--k1", "4",
                           "--k3", "64", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["size_ok"] and doc["membership_ok"] and doc["intersection_ok"]

    def test_verify_ufamily_check_fails_on_a_failing_report(self, monkeypatch, capsys):
        # build_u_family returns only families that pass, so the report is patched
        bad = UFamilyReport(True, True, False, {"intersection": (0, 1, 11)})
        monkeypatch.setattr(cli, "verify_u_family", lambda family, k3: bad)
        args = ("verify", "--what", "ufamily", "--n", str(2 ** 16), "--alpha", "10",
                "--k1", "4", "--k3", "64", "--seed", "1")
        code, out, err = run(capsys, *args, "--check")
        assert code == CHECK_FAILURE and err == ""
        doc = json.loads(out)
        assert doc["size_ok"] and not doc["intersection_ok"]
        assert doc["witnesses"] == {"intersection": [0, 1, 11]}
        # without --check the same report is printed and the run succeeds
        assert run(capsys, *args) == (0, out, "")


class TestExitCodes:
    def test_usage_error_on_unknown_policy(self, multiunit_file, capsys):
        code, _, err = run(capsys, "simulate", "--instance", multiunit_file,
                           "--policy", "mystery", "--trials", "100", "--seed", "0")
        assert code == USAGE_ERROR and "unknown policy" in err

    def test_usage_error_on_bad_order_index(self, multiunit_file, capsys):
        code, _, _ = run(capsys, "simulate", "--instance", multiunit_file,
                         "--policy", "greedy", "--order", "9",
                         "--trials", "100", "--seed", "0")
        assert code == USAGE_ERROR

    def test_resource_error_on_impossible_family(self, capsys):
        # 2**16 sets of size 8 over 16 elements: only C(16, 8) = 12,870 exist
        code, out, err = run(capsys, "verify", "--what", "ufamily", "--n", "256",
                             "--alpha", "10", "--k1", "16", "--k3", "16", "--seed", "0")
        assert code == RESOURCE_ERROR and out == "" and "distinct" in err

    def test_resource_error_on_a_long_exact_reference(self, tmp_path, capsys):
        path = str(tmp_path / "mu1000.json")
        assert run(capsys, "gen", "--construction", "multiunit", "--k", "1000",
                   "--out", path)[0] == 0
        code, out, err = run(capsys, "ratio", "--instance", path, "--policy", "greedy",
                             "--trials", "100", "--seed", "0")
        assert code == RESOURCE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "2000000" in err

    def test_usage_error_on_a_truncated_instance_file(self, tmp_path, capsys):
        src = tmp_path / "t.json"
        assert run(capsys, "gen", "--construction", "tree", "--k", "2",
                   "--out", str(src))[0] == 0
        doc = json.loads(src.read_text())
        doc["elements"] = doc["elements"][:4]
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--instance", str(cut), "--policy", "greedy",
                             "--order", "0", "--trials", "10", "--seed", "0")
        assert code == USAGE_ERROR and out == "" and "4 elements" in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("malform", [
        lambda doc: [doc],
        lambda doc: {**doc, "elements": [{**doc["elements"][0], "dist": 5},
                                         *doc["elements"][1:]]},
        lambda doc: {**doc, "metadata": [["k", "4"]]},
    ], ids=["top-level-list", "numeric-dist", "list-metadata"])
    def test_usage_error_on_a_malformed_instance_file(self, multiunit_file, tmp_path,
                                                      capsys, malform):
        # each gave a TypeError or AttributeError traceback and exit 1
        with open(multiunit_file) as fh:
            doc = json.load(fh)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malform(doc)))
        code, out, err = run(capsys, "simulate", "--instance", str(bad), "--policy", "greedy",
                             "--order", "0", "--trials", "10", "--seed", "0")
        assert code == USAGE_ERROR and out == ""
        assert err.startswith("error: malformed instance file: ") and err.count("\n") == 1

    def test_usage_error_on_verify_instance_without_a_file(self, capsys):
        # it opened None: a TypeError traceback and exit 1
        code, out, err = run(capsys, "verify", "--what", "instance")
        assert code == USAGE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--instance" in err

    @pytest.mark.parametrize("argv,named", [
        (("nested-scaled", "--k1", "-1"), "k1 must be at least 0, got -1"),
        (("nested-scaled", "--k3", "-1"), "k3 must be at least 0, got -1"),
        (("nested-scaled", "--k2", "0"), "k2 must be at least 1, got 0"),
        (("pairs", "--k", "0"), "k must be at least 1"),
        (("pairs", "--k", "-2"), "k must be at least 1"),
        (("nested-scaled", "--q", "1.5"), "got 1.5"),
        (("nested-scaled", "--q", "-0.5"), "got -0.5"),
        (("partition-scaled", "--p", "1.5"), "got 1.5"),
        (("partition-scaled", "--p", "-1"), "got -1.0")],
        ids=["k1-negative", "k3-negative", "k2-zero", "pairs-k-zero", "pairs-k-negative",
             "q-above-1", "q-negative", "p-above-1", "p-negative"])
    def test_usage_error_on_a_size_or_probability_that_builds_nothing(
            self, tmp_path, capsys, argv, named):
        # these gave a TypeError, ZeroDivisionError or shift-count traceback,
        # a resource error, a file no set of which is feasible (--k2 0), or a
        # constant value in place of the probability
        path = tmp_path / "inst.json"
        code, out, err = run(capsys, "gen", "--construction", *argv, "--out", str(path))
        assert code == USAGE_ERROR and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("usize,expected,message", [
        ("0", RESOURCE_ERROR, "U sets must be pairwise distinct to make orders decodable"),
        ("-1", USAGE_ERROR, "u_size must be at least 0, got -1")],
        ids=["0", "-1"])
    def test_resource_error_on_equal_u_sets(self, tmp_path, capsys, usize, expected,
                                            message):
        # two or more U sets that are empty slices of C cannot be told apart;
        # a negative size reached this check too (exit 3), and is now refused
        # with the other sizes, before any U set is built
        path = tmp_path / "n.json"
        code, out, err = run(capsys, "gen", "--construction", "nested-scaled",
                             "--usize", usize, "--out", str(path))
        assert code == expected and out == "" and not path.exists()
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,named", [
        (("--k1", "-1"), "k1 must be at least 0, got -1"),
        (("--k1", "0", "--k3", "0"), "k3 must be at least 1, got 0"),
        (("--n", "0"), "n must be at least 2, got 0"),
        (("--n", "1"), "n must be at least 2, got 1"),
        (("--alpha", "-1"), "alpha must be at least 0, got -1")],
        ids=["k1-negative", "k3-zero", "n-zero", "n-one", "alpha-negative"])
    def test_usage_error_on_a_ufamily_size_that_builds_nothing(self, capsys, argv, named):
        # these gave a TypeError or ZeroDivisionError traceback, "math domain
        # error", or a resource error (at alpha < 0 after 100 draws, as the
        # size window's upper end (2*alpha + 1)*log2(n) falls below log2(n))
        code, out, err = run(capsys, "verify", "--what", "ufamily", *argv)
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize("command", ["simulate", "ratio"])
    @pytest.mark.parametrize("d", ["inf", "nan", "-inf"])
    def test_usage_error_on_a_threshold_that_is_not_finite(self, multiunit_file, capsys,
                                                           command, d):
        # d=inf died in the run with an OverflowError traceback; d=nan
        # failed only once a trial started
        code, out, err = run(capsys, command, "--instance", multiunit_file,
                             "--policy", f"multiunit_threshold:d={d},variant=pi1",
                             "--trials", "10", "--seed", "0")
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: threshold must be finite and nonnegative, got {float(d)}\n"

    @pytest.mark.parametrize("trials", ["3", "-5"])
    def test_usage_error_on_fewer_than_two_trials_per_order(self, multiunit_file, capsys,
                                                            trials):
        # the two-order file ran 2 trials per order (4 in all) at --trials 3
        # and at --trials -5, while the report's config gave the number asked
        code, out, err = run(capsys, "ratio", "--instance", multiunit_file,
                             "--policy", "greedy", "--trials", trials, "--seed", "0")
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: need at least 2 trials per order (4 for 2 orders), got {trials}\n"

    def test_resource_error_on_scaled_capacity(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--construction", "nested-scaled",
                         "--k1", "2", "--k2", "8", "--k3", "8", "--usize", "3",
                         "--out", str(tmp_path / "n.json"))
        assert code == RESOURCE_ERROR

    def test_gen_nested_scaled_k3_12_works(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--construction", "nested-scaled",
                           "--k1", "2", "--k2", "8", "--k3", "12", "--usize", "3",
                           "--out", str(tmp_path / "n.json"))
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 22 and summary["orders"] == 4

    @pytest.mark.parametrize("parts,sha256", [
        ("2 8 12 3 0.1", "f71f24adc4cc6ee20e629136021eb1288c6bbeed0b05a207ca755c357c39d610"),
        ("3 16 32 4 0.1", "106ca13407da8f2aa73c18144de9cc016a7c5105397a552b080fca4bf8f77fd2"),
        ("0 1 2 0 0.1", "7bbdf4438369bcdfaa3b94c60a42c498ae061b74eb782b4d0f2697ba3d68ecb9"),
        ("2 4 8 2 0.25", "19f8958898c8bf99388b5ef5d64fe8f79d8744dd72a27aebb5a24362b3d518c8"),
        ("0 1 2 -1 0.1", None)],
        ids=["2-8-12-3", "3-16-32-4", "0-1-2-0", "2-4-8-2", "0-1-2-minus1"])
    def test_gen_nested_scaled_bytes(self, tmp_path, capsys, parts, sha256):
        # pinned file bytes; with --k1 0 the one U set may be empty, as
        # --usize 0 makes it. --usize -1 wrote a file whose metadata said
        # "u_size": "-1"; it now writes none (sha256 None)
        path = tmp_path / "n.json"
        argv = [f"--{key}={v}" for key, v in zip(("k1", "k2", "k3", "usize", "q"),
                                                   parts.split())]
        code, out, err = run(capsys, "gen", "--construction", "nested-scaled", *argv,
                             "--out", str(path))
        if sha256 is None:
            assert code == USAGE_ERROR and out == "" and not path.exists()
            assert err == "error: u_size must be at least 0, got -1\n"
        else:
            assert code == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_resource_error_on_a_tree_over_the_element_cap(self, tmp_path, capsys):
        # k = 8 has 19,173,960 elements; the cap is checked before any is built
        path = tmp_path / "t8.json"
        code, out, err = run(capsys, "gen", "--construction", "tree", "--k", "8",
                             "--out", str(path))
        assert code == RESOURCE_ERROR and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "19173960" in err

    def test_resource_error_on_loading_a_tree_over_the_element_cap(self, tmp_path, capsys):
        src = tmp_path / "t.json"
        assert run(capsys, "gen", "--construction", "tree", "--k", "2",
                   "--out", str(src))[0] == 0
        doc = json.loads(src.read_text())
        doc["feasibility"]["params"]["k"] = 8
        big = tmp_path / "t8.json"
        big.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--what", "instance", "--instance", str(big))
        assert code == RESOURCE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "19173960" in err

    @pytest.mark.parametrize("edit", ["nan-probabilities", "infinite-value", "nan-weight"])
    def test_usage_error_on_non_finite_numbers(self, tmp_path, capsys, edit):
        # json reads NaN and Infinity; NaN probabilities printed "value": NaN,
        # which is not JSON, and exited 0
        src = tmp_path / "mu.json"
        assert run(capsys, "gen", "--construction", "multiunit", "--k", "2",
                   "--out", str(src))[0] == 0
        doc = json.loads(src.read_text())
        if edit == "nan-probabilities":
            doc["elements"][5]["dist"] = [[0.0, math.nan], [2.0, math.nan]]
        elif edit == "infinite-value":
            doc["elements"][5]["dist"] = [[math.inf, 1.0]]
        else:
            doc["orders"][0]["weight"] = math.nan
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "exact", "--instance", str(bad), "--mode", "aware",
                             "--order", "0")
        assert code == USAGE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("construction,k,key,value", [
        ("multiunit", 2, "k", 1.9), ("multiunit", 2, "k", True), ("multiunit", 2, "n", 8.0),
        ("pairs", 3, "k", 2.7), ("tree", 2, "k", 2.9), ("explicit", None, "sets", [[0.5]]),
        ("nested-scaled", None, "a", [0, 1.0])])
    def test_usage_error_on_oracle_params_that_are_not_ints(self, tmp_path, capsys,
                                                             construction, k, key, value):
        # int() loaded "k": 1.9 and true as capacity 1, pair_match's 2.7 and
        # tree_path's 2.9 as 2, and an explicit set [0.5] as a member no
        # decision reaches
        src = tmp_path / "inst.json"
        if construction == "explicit":
            oracle = ExplicitFamilyOracle(n=2, sets=(frozenset(), frozenset({0, 1})))
            inst = Instance(name="explicit", dists=(ValueDistribution.deterministic(1.0),) * 2,
                            feasibility=oracle)
            src.write_text(json.dumps(instance_to_json_dict(inst)))
        else:
            argv = ("--k", str(k)) if k else ()
            assert run(capsys, "gen", "--construction", construction, *argv,
                       "--out", str(src))[0] == 0
        argv = ("exact", "--mode", "prophet", "--instance")
        assert run(capsys, *argv, str(src))[0] == 0
        doc = json.loads(src.read_text())
        params = doc["feasibility"]["params"]
        params[key] = params[key] + value if construction == "explicit" else value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(bad))
        assert code == USAGE_ERROR and out == ""
        assert err == "error: counts and ids must be integers\n"

    def test_usage_error_on_a_string_weight(self, pairs_file, tmp_path, capsys):
        # float("1") loaded it, so simulate ran and the file did not round-trip
        with open(pairs_file) as fh:
            doc = json.load(fh)
        doc["orders"][0]["weight"] = "1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--instance", str(bad), "--policy", "greedy",
                             "--trials", "10", "--seed", "0")
        assert code == USAGE_ERROR and out == ""
        assert err == "error: values, probabilities and weights must be numbers\n"

    @pytest.mark.parametrize("key", ["id", "name"])
    def test_usage_error_on_a_missing_key(self, pairs_file, tmp_path, capsys, key):
        with open(pairs_file) as fh:
            doc = json.load(fh)
        if key == "id":
            del doc["elements"][0]["id"]
        else:
            del doc["name"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--instance", str(bad), "--policy", "greedy",
                             "--order", "0", "--trials", "10", "--seed", "0")
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: malformed instance file: missing key '{key}'\n"

    @pytest.mark.parametrize("argv", [
        ("--construction", "nested"), ("--construction", "tree", "--x", "2"),
        ("--construction", "tree", "--seed", "7"),
        ("--construction", "nested-scaled", "--seed", "0")],
        ids=["nested", "x", "tree-seed", "nested-scaled-seed"])
    def test_gen_has_no_nested_x_or_seed(self, tmp_path, capsys, argv):
        # no construction reads a seed, and the nested ones are desk-scale only
        path = tmp_path / "n.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv, "--out", str(path)])
        assert exc.value.code == USAGE_ERROR and not path.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("gen", "--construction", "partition"),
        ("gen", "--construction", "partition-scaled", "--kappa", "2"),
        ("verify", "--what", "ufamily", "--max-attempts", "5")],
        ids=["partition", "kappa", "max-attempts"])
    def test_no_partition_preset_or_attempt_option(self, tmp_path, capsys, argv):
        # partition-scaled builds the partition example; the U family always
        # gets U_FAMILY_ATTEMPTS draws
        path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(path)])
        assert exc.value.code == USAGE_ERROR and not path.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("construction,policy,order", [
        ("multiunit", "tree_gamble", "0"), ("multiunit", "nested_guess", "0"),
        ("tree", "nested_aware", "tree"), ("nested-scaled", "tree_gamble", "0"),
        ("multiunit", "greedy", "tree")])
    def test_usage_error_on_a_foreign_policy_or_order(self, tmp_path, capsys, construction,
                                                      policy, order):
        # the first four policies read an oracle the file lacks, which gave an
        # AttributeError traceback and exit 1; tree orders need the tree oracle
        path = tmp_path / "inst.json"
        assert run(capsys, "gen", "--construction", construction, "--out", str(path))[0] == 0
        code, out, err = run(capsys, "simulate", "--instance", str(path), "--policy", policy,
                             "--order", order, "--trials", "4", "--seed", "1")
        assert code == USAGE_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMetadataIsALabel:
    @pytest.mark.parametrize("edit", ["wrong-k", "no-metadata"])
    def test_tree_report_does_not_read_the_metadata(self, tmp_path, capsys, edit):
        # a k = 4 file relabelled k = 2 walked a 6-element order (greedy's
        # mean 0.93, not 2.43); one without metadata could not run --order tree
        path = tmp_path / "tree.json"
        assert run(capsys, "gen", "--construction", "tree", "--k", "4",
                   "--out", str(path))[0] == 0
        doc = json.loads(path.read_text())
        doc["metadata"] = {**doc["metadata"], "k": "2"} if edit == "wrong-k" else {}
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        for policy in ("greedy", "tree_aware"):
            argv = ("simulate", "--policy", policy, "--order", "tree", "--trials", "300",
                    "--seed", "1", "--instance")
            original = run(capsys, *argv, str(path))
            assert original[0] == 0
            assert run(capsys, *argv, str(edited)) == original
