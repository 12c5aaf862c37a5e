import json
import math
import re

import pytest

from workcap.channels import load_model, save_model
from workcap.cli import build_parser, main
from workcap.verify import REPORT_FLOOR, bundled_model_path

FIG5 = str(bundled_model_path("fig5"))
IDENTITY = str(bundled_model_path("identity"))
GOLDEN = str(bundled_model_path("golden_mean"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_fig5_predicates(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", FIG5)
        assert code == 0
        assert "memoryless invariant: yes" in out
        assert "unifilar: yes" in out
        assert "product: no" in out

    def test_golden_mean_predicates(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", GOLDEN)
        assert code == 0
        assert "product: yes\n" in out
        assert "unifilar: yes" in out

    @pytest.mark.parametrize("path,product", [(GOLDEN, True), (FIG5, False)])
    def test_json_product_verdict(self, capsys, path, product):
        code, out, _ = run_cli(capsys, "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["product"] is product
        assert "product_certificate_horizon" not in report

    def test_with_agent_reports_global_chain(self, capsys, tmp_path):
        agent_file = tmp_path / "agent.json"
        assert main(["build-agent", "uniform", FIG5, "--out", str(agent_file)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "analyze", FIG5, "--agent", str(agent_file))
        assert code == 0
        assert "global chain: 4 states" in out

    def test_cesaro_state_keys_are_plain_integers(self, capsys, tmp_path):
        agent_file = tmp_path / "pred.json"
        assert main(["build-agent", "predictive", GOLDEN, "--out", str(agent_file)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "analyze", GOLDEN, "--agent", str(agent_file),
                               "--json")
        assert code == 0
        keys = json.loads(out)["global_chain"]["cesaro_top_states"]
        assert keys
        assert all(re.fullmatch(r"\(\d+, \d+, \d+, \d+\)", k) for k in keys)

    def test_agent_builds_one_global_chain(self, capsys, tmp_path, call_counts):
        # the chain summary comes from one pre-percept chain and one call of
        # the Cesàro engine
        agent_file = tmp_path / "pred.json"
        assert main(["build-agent", "predictive", GOLDEN, "--out", str(agent_file)]) == 0
        calls = call_counts("loop._pre_percept_chain", "markov._limit_laws",
                            "loop.build_global_chain")
        code, _, _ = run_cli(capsys, "analyze", GOLDEN, "--agent", str(agent_file))
        assert code == 0
        assert calls == {"_pre_percept_chain": 1, "_limit_laws": 1, "build_global_chain": 0}

    def test_malformed_model_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["0", "1"], "hidden_states": ["z"],
            "initial": {"z": "1"},
            "transitions": {"0,z": {"0,z": "0.9"},
                            "1,z": {"0,z": "0.5", "1,z": "0.5"}},
        }))
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "0,z" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent.json")
        assert code == 2

    def test_directory_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert err == f"error: {tmp_path}: cannot read: Is a directory\n"

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"alphabet": ["\xe9"]}')
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert err == f"error: {bad}: not UTF-8 text\n"

    @pytest.mark.parametrize("argv", [("capacity", FIG5), ("build-agent", "uniform", FIG5)])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, argv):
        out = tmp_path / "no" / "such" / "dir" / "agent.json"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {out}: cannot write: No such file or directory\n"

    @pytest.mark.parametrize("out, reason", [
        ("no/such/dir/w.json", "No such file or directory"),
        (".", "Is a directory"),
        ("file/w.json", "Not a directory"),
    ])
    def test_capacity_rejects_out_before_the_search(self, capsys, tmp_path, monkeypatch,
                                                    out, reason):
        from workcap import capacity

        def search(*args, **kwargs):
            raise AssertionError("compute_capacity ran before --out was checked")

        monkeypatch.setattr(capacity, "compute_capacity", search)
        (tmp_path / "file").write_text("kept")
        out = tmp_path / out
        code, stdout, err = run_cli(capsys, "capacity", FIG5, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {out}: cannot write: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]  # nothing created
        assert (tmp_path / "file").read_text() == "kept"


class TestWorkRate:
    def test_fig5_uniform(self, capsys, tmp_path):
        agent_file = tmp_path / "uniform.json"
        main(["build-agent", "uniform", FIG5, "--out", str(agent_file)])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "work-rate", FIG5, str(agent_file), "--json")
        assert code == 0
        doc = json.loads(out)
        expected = 1.0 - math.log(256 / 27) / math.log(16)
        assert doc["rate"] == pytest.approx(expected, abs=1e-9)
        assert len(doc["per_round"]) == 4

    def test_alphabet_mismatch_exits_two(self, capsys, tmp_path):
        agent_file = tmp_path / "agent.json"
        agent_file.write_text(json.dumps({
            "alphabet": ["x", "y"], "memory_states": ["m"],
            "initial": {"x,m": "1"},
            "transitions": {"x,m": {"x,m": "1"}, "y,m": {"x,m": "1"}},
        }))
        code, _, err = run_cli(capsys, "work-rate", FIG5, str(agent_file))
        assert code == 2


class TestCapacity:
    def test_fig5_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", FIG5, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "closed_form_memoryless"
        expected_bits = 0.5 * math.log(0.75 + 2 ** -0.5) / math.log(2)
        assert doc["value"] == pytest.approx(expected_bits, abs=1e-6)
        assert doc["witness_action_distribution"][0] == pytest.approx(
            2 ** -0.5, abs=1e-4)
        assert 0.0 <= doc["upper"] - doc["value"] <= 1e-12

    def test_identity_zero(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", IDENTITY)
        assert code == 0
        assert "0.000000 bits (closed_form_noiseless)" in out

    def test_golden_mean(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", GOLDEN)
        assert code == 0
        assert "0.333333 bits (closed_form_unifilar_product)" in out

    def test_nats_units(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", FIG5, "--units", "nats", "--json")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.5 * math.log(0.75 + 2 ** -0.5),
                                             abs=1e-6)

    def test_witness_file_written(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        code, out, _ = run_cli(capsys, "capacity", FIG5, "--out", str(witness))
        assert code == 0
        model = load_model(witness)
        assert model.memory_states == ("m",)

    def test_deterministic_json_output(self, capsys):
        _, out1, _ = run_cli(capsys, "capacity", FIG5, "--json", "--seed", "7")
        _, out2, _ = run_cli(capsys, "capacity", FIG5, "--json", "--seed", "7")
        assert out1 == out2


class TestBuildAgent:
    def test_predictive_on_golden_mean_two_states(self, capsys, tmp_path):
        out_file = tmp_path / "pred.json"
        code, out, _ = run_cli(capsys, "build-agent", "predictive", GOLDEN,
                               "--out", str(out_file))
        assert code == 0
        assert load_model(out_file).n_memory == 2  # product-form circuit

    def test_identity_single_state(self, capsys, tmp_path):
        out_file = tmp_path / "id.json"
        run_cli(capsys, "build-agent", "identity", FIG5, "--out", str(out_file))
        assert load_model(out_file).n_memory == 1

    def test_last_action_memory_equals_alphabet(self, capsys, tmp_path):
        out_file = tmp_path / "la.json"
        run_cli(capsys, "build-agent", "last-action", FIG5, "--out", str(out_file))
        assert load_model(out_file).n_memory == 2

    def test_round_trip_bit_exact(self, capsys, tmp_path):
        out_file = tmp_path / "memoryless.json"
        run_cli(capsys, "build-agent", "memoryless", FIG5, "--out", str(out_file),
                "--prob", "0.70710678118654752,0.29289321881345248")
        text = out_file.read_text()
        save_model(load_model(out_file), out_file)
        assert out_file.read_text() == text

    def test_predictive_needs_unifilar(self, capsys, tmp_path):
        nonuni = tmp_path / "nonuni.json"
        nonuni.write_text(json.dumps({
            "alphabet": ["0", "1"], "hidden_states": ["u", "v"],
            "initial": {"u": "0.5", "v": "0.5"},
            "transitions": {
                "0,u": {"0,u": "0.25", "0,v": "0.25", "1,u": "0.25", "1,v": "0.25"},
                "0,v": {"0,u": "0.25", "0,v": "0.25", "1,u": "0.25", "1,v": "0.25"},
                "1,u": {"0,u": "0.25", "0,v": "0.25", "1,u": "0.25", "1,v": "0.25"},
                "1,v": {"0,u": "0.25", "0,v": "0.25", "1,u": "0.25", "1,v": "0.25"},
            },
        }))
        code, _, err = run_cli(capsys, "build-agent", "predictive", str(nonuni),
                               "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "unifilar" in err


    @pytest.mark.parametrize("kind,prob", [("memoryless", "abc,1"), ("memoryless", "0.5,"),
                                           ("last-action", "nan,nan"),
                                           ("memoryless", "nan,nan"),
                                           ("memoryless", "inf,-inf")])
    def test_bad_prob_exits_two_without_file(self, capsys, tmp_path, kind, prob):
        out_file = tmp_path / "agent.json"
        code, _, err = run_cli(capsys, "build-agent", kind, FIG5, "--out", str(out_file),
                               "--prob", prob)
        assert code == 2
        assert err.startswith("error: ")
        assert not out_file.exists()

class TestDsep:
    def test_memoryless_separation(self, capsys):
        code, out, _ = run_cli(capsys, "dsep", "--variant", "memoryless_env",
                               "--horizon", "2", "--a", "M0", "--b", "S0",
                               "--c", "A0")
        assert code == 0
        assert out.strip() == "d-separated"

    def test_direct_dependence(self, capsys):
        code, out, _ = run_cli(capsys, "dsep", "--a", "A0", "--b", "S0")
        assert code == 0
        assert out.strip() == "not d-separated"

    def test_unknown_node_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "dsep", "--a", "Q9", "--b", "S0")
        assert code == 2


class TestVerify:
    def test_default_run_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        assert len(doc["checks"]) == 9
        # rounding-level errors print as "< 1e-12", not as their digits
        printed = [float(x) for check in doc["checks"]
                   for x in re.findall(r"-?\d\.\d+e[-+]\d+", check["detail"])]
        assert printed and all(abs(x) >= REPORT_FLOOR for x in printed)

    def test_any_failure_maps_to_exit_one(self, capsys, monkeypatch):
        from workcap import verify as v
        import workcap.cli as cli_mod
        fake = [v.CheckResult("stub", False, "boom", 0.0)]
        monkeypatch.setattr(cli_mod.verify, "run_all", lambda seed: fake)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_verify_json_byte_identical(self, capsys, monkeypatch):
        from workcap import verify as v
        fake = (("stub", lambda seed=0: f"seeded run {seed}"),)
        monkeypatch.setattr(v, "ALL_CHECKS", fake)
        code1, out1, _ = run_cli(capsys, "verify", "--json", "--seed", "3")
        code2, out2, _ = run_cli(capsys, "verify", "--json", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2


class TestFlags:
    # each subcommand accepts exactly the valued flags it reads
    VALUED = {
        "analyze": set(),
        "work-rate": {"--units", "--horizon"},
        "capacity": {"--units", "--seed", "--memory-size", "--restarts"},
        "build-agent": set(),
        "dsep": {"--horizon"},
        "verify": {"--seed"},
    }
    OWN = {
        "analyze": {"--agent"},
        "work-rate": set(),
        "capacity": {"--out"},
        "build-agent": {"--out", "--prob"},
        "dsep": {"--variant", "--a", "--b", "--c"},
        "verify": set(),
    }

    @pytest.mark.parametrize("command", sorted(VALUED))
    def test_help_lists_only_read_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == self.VALUED[command] | self.OWN[command] | {"--help", "--json"}

    @pytest.mark.parametrize("argv", [
        ("analyze", FIG5, "--tol", "1e-3"),
        ("capacity", FIG5, "--tol", "0"),
        ("analyze", FIG5, "--horizon", "0"),
        ("capacity", FIG5, "--restarts", "-3"),
        ("capacity", FIG5, "--restarts", "0"),
        ("capacity", FIG5, "--memory-size", "0"),
        ("verify", "--units", "nats"),
        ("verify", "--seed", "-1"),
        ("capacity", FIG5, "--seed", "-1"),
    ])
    def test_unread_or_invalid_flag_exits_two(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the flag or its value
            code = exc.code
        assert code == 2


class TestParserReuse:
    # the parser is built once per process; calls on the shared parser must
    # behave as the same calls each on a freshly built one
    SEQUENCE = [
        ("dsep", "--variant", "memoryless_env", "--horizon", "2", "--a", "M0", "--b", "S0",
         "--c", "A0", "--json"),
        ("dsep", "--a", "A0", "--b", "S0", "--json"),
        ("dsep", "--horizon", "0", "--a", "A0", "--b", "S0"),
        ("analyze", FIG5, "--json"),
        ("verify", "--bogus"),
        ("dsep", "--a", "M0", "--b", "S1", "--c", "A0,S0", "--json"),
        ("analyze", GOLDEN),
        ("dsep", "--a", "A0", "--b", "S0", "--json"),
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the flag or its value
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_calls_match_fresh_ones(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        repeated = [self.call(capsys, argv) for argv in self.SEQUENCE]
        assert build_parser() is build_parser()
        assert repeated == fresh
        assert [code for code, _, _ in repeated] == [0, 0, 2, 0, 2, 0, 0, 0]
        # no flag value of an earlier command leaks into a later one
        for out in (repeated[1][1], repeated[-1][1]):
            doc = json.loads(out)
            assert (doc["variant"], doc["horizon"], doc["c"]) == ("general", 4, [])

    def test_command_patched_after_the_parser_is_built_is_the_one_run(self, monkeypatch):
        # a tracer wraps module attributes such as cli.cmd_verify; the shared
        # parser must not hold on to the function it saw when it was built
        import workcap.cli as cli
        build_parser()
        calls = []

        def wrapped(args):
            calls.append((args.command, args.seed))
            return 0
        monkeypatch.setattr(cli, "cmd_verify", wrapped)
        assert main(["verify", "--seed", "3"]) == 0
        assert calls == [("verify", 3)]
        monkeypatch.setattr(cli, "cmd_build_agent", lambda args: calls.append(args.kind) or 0)
        assert main(["build-agent", "uniform", FIG5, "--out", "unused.json"]) == 0
        assert calls[-1] == "uniform"
