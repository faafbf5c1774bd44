import hashlib
import json
import shlex
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from contactres import __version__, cli
from contactres.cli import _build_parser, main


@pytest.fixture(scope="module")
def validator():
    schema = json.loads(resources.files("contactres")
                        .joinpath("data/report.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, validator, *argv):
    code, out = run(capsys, *argv)
    env = json.loads(out)
    validator.validate(env)
    return code, env


class TestClassify:
    def test_text(self, capsys):
        code, out = run(capsys, "classify", "A3:2,2")
        assert code == 0
        assert "verdict: ContactResolutionsExist" in out
        assert "polarizations: 1" in out

    def test_json(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify", "A3:2,1,1",
                             "--json")
        assert code == 0
        assert env["command"] == "classify"
        assert env["artifact_version"] == __version__
        assert env["table_version"] == "1"
        result = env["result"]
        assert result["verdict"] == "SmoothAlready"
        assert len(result["polarizations"]) == 2
        assert result["chamber_complex"]["chamber_count"] == 2

    def test_unknown_is_exit_zero(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify", "G2:dim10",
                             "--json")
        assert code == 0
        assert env["result"]["verdict"] == "Unknown"

    def test_g2dim8(self, capsys):
        code, out = run(capsys, "classify", "G2:dim8")
        assert code == 0
        assert "verdict: SmoothAlready (reason: G2dim8)" in out

    def test_domain_error_exit_one(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify", "C2:3,1",
                             "--json")
        assert code == 1
        assert env["error"]["type"] == "InvalidPartition"

    def test_zero_orbit_error(self, capsys):
        code, out = run(capsys, "classify", "A3:1,1,1,1")
        assert code == 1
        assert "ZeroOrbit" in out

    def test_no_oracles_flag(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify", "A3:2,2",
                             "--json", "--no-oracles")
        assert code == 0
        assert env["result"]["oracle_checks"] == []


class TestOtherCommands:
    def test_dim(self, capsys, validator):
        code, env = run_json(capsys, validator, "dim", "A3:2,2", "--json")
        assert code == 0
        assert env["result"]["orbit"]["dimension"] == 8
        code, out = run(capsys, "dim", "A3:2,2")
        assert "dimension: 8" in out

    def test_dim_works_on_zero_orbit(self, capsys, validator):
        code, env = run_json(capsys, validator, "dim", "A3:1,1,1,1", "--json")
        assert code == 0
        assert env["result"]["orbit"]["dimension"] == 0

    def test_polarizations(self, capsys, validator):
        code, env = run_json(capsys, validator, "polarizations", "A5:3,2,1",
                             "--json")
        assert code == 0
        assert len(env["result"]["polarizations"]) == 6

    def test_polarizations_unknown_is_domain_error(self, capsys, validator):
        code, env = run_json(capsys, validator, "polarizations", "G2:dim10",
                             "--json")
        assert code == 1
        assert env["error"]["type"] == "UnknownClassification"

    def test_chambers(self, capsys, validator):
        code, env = run_json(capsys, validator, "chambers", "A3:2,1,1",
                             "--json")
        assert code == 0
        cc = env["result"]["chamber_complex"]
        assert cc["chamber_count"] == 2
        assert len(cc["walls"]) == 1
        assert cc["connected"] is True

    def test_chambers_without_polarization(self, capsys, validator):
        code, env = run_json(capsys, validator, "chambers", "B3:2,2,1,1,1",
                             "--json")
        assert code == 1
        assert env["error"]["type"] == "NoPolarization"

    def test_twistor(self, capsys, validator):
        code, env = run_json(capsys, validator, "twistor", "A3:{1}", "--json")
        assert code == 0
        assert env["result"]["is_twistor_space"] is True
        assert env["result"]["poincare_polynomial"] == [1, 1, 1, 1]
        code, out = run(capsys, "twistor", "A3:{2}")
        assert code == 0 and "twistor space: no" in out

    def test_twistor_bad_marking_is_domain_error(self, capsys, validator):
        code, env = run_json(capsys, validator, "twistor", "A3:{x}", "--json")
        assert code == 1
        assert env["error"]["type"] == "DimensionMismatch"


class TestVerifyCommand:
    def test_all_pass_exit_zero(self, capsys, validator):
        code, env = run_json(capsys, validator, "verify", "--suite",
                             "ad-rank", "--max-n", "5", "--seed", "7",
                             "--json")
        assert code == 0
        assert env["result"]["all_pass"] is True
        assert env["result"]["failures"] == 0
        assert env["result"]["total"] > 0

    def test_text_summary(self, capsys):
        code, out = run(capsys, "verify", "--suite", "fibers")
        assert code == 0
        assert "all pass" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2


class TestParserReuse:
    SEQUENCE = [
        ("classify", "A4:2,2,1", "--no-oracles", "--json"),
        ("classify", "A4:2,2,1", "--json"),
        ("classify",),
        ("verify", "--suite", "ad-rank", "--max-n", "4", "--json"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_calls_match_fresh_parser(self, capsys, monkeypatch):
        shared = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]
        monkeypatch.setattr(cli, "_build_parser", _build_parser.__wrapped__)
        for argv, got in zip(self.SEQUENCE, shared):
            assert self.outcome(capsys, argv) == got
        assert '"oracle_checks": []' in shared[0][1]
        assert '"oracle_checks": []' not in shared[1][1]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("classify", "A4:2,2,1", "--json", "--seed", "3"),
        ("classify", "A3:2,1,1", "--json"),
        ("verify", "--suite", "richardson", "--max-n", "4", "--seed", "9",
         "--json"),
        ("verify", "--suite", "cones", "--count", "25", "--seed", "1",
         "--json"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_only_seeded_fields(self, capsys):
        _, a = run(capsys, "classify", "A3:2,2", "--json", "--seed", "1")
        _, b = run(capsys, "classify", "A3:2,2", "--json", "--seed", "2")
        ja, jb = json.loads(a), json.loads(b)
        assert ja["result"]["verdict"] == jb["result"]["verdict"]
        assert ja["result"]["polarizations"] == jb["result"]["polarizations"]

    def test_byte_identical_across_processes(self):
        # fresh interpreters: guards against hash-seed dependent ordering
        import subprocess
        import sys
        argv = [sys.executable, "-m", "contactres.cli", "classify",
                "A4:2,2,1", "--json", "--seed", "6"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout


# sha256 of the JSON output of each README tour command. A change to these
# bytes must be deliberate (a schema bump) and update this table.
TOUR_DIGESTS = {
    "classify A3:2,2 --json":
        "6084a3f096879cbbfb4f629605ff0920fe2c2472daea2ad849a5ef3d667ccffb",
    "classify A3:2,1,1 --json":
        "f21c5e3c62d9dc5a174db360125eafe59fe87dac6cf4a4859b6e0490bd8b8a4f",
    "classify G2:dim8 --json":
        "bd369d0378939ebe87d8433b0cca06780eb580419b1a8d8a57c6df3b92a933e4",
    "classify G2:dim10 --json":
        "45f338da883ad11e759bca1757e6ac51ccbb3476f594b729ab2834eb20e6e8fd",
    "dim C3:2,2,1,1 --json":
        "90b994d4edc8a9530029e4418ea343525a32f74699ab149eae72c2df9a419a1d",
    "polarizations A5:3,2,1 --json":
        "e2648964530228104470830c0bf9efb1d4987bb103f746893e42fc3b1fcd82aa",
    "chambers A3:2,1,1 --json":
        "baad02ca86af3e8056846536beb08e15b235112d606a9c9759c8486fe3182d7f",
    "twistor 'A3:{1}' --json":
        "35e5b6c8cf7bd49de070c42a995593625e7e9e316e5d12462d735a3434135573",
    "verify --suite ad-rank --max-n 5 --seed 7 --json":
        "144cb3803ad68e1f0d2034b22893867e31e946a73e6fc84e0ecc17c43a394ba7",
    "verify --suite cones --count 100 --json":
        "f4d5135012bbf6767f20cdd7ab993899fd8c32441357500928dfe9e75830df04",
}


def readme_tour():
    """The README's CLI tour, each command with ``--json``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI tour", 1)[1].split("```sh", 1)[1]
    tour = []
    for line in block.split("```", 1)[0].strip().splitlines():
        argv = shlex.split(line.split("#", 1)[0])[1:]
        if "--json" not in argv:
            argv.append("--json")
        tour.append(argv)
    return tour


class TestReadmeTour:
    def test_tour_is_pinned(self):
        assert [shlex.join(a) for a in readme_tour()] == list(TOUR_DIGESTS)

    @pytest.mark.parametrize("argv", readme_tour(), ids=shlex.join)
    def test_json_bytes_pinned(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == TOUR_DIGESTS[shlex.join(argv)]


class TestTextJsonConsistency:
    @pytest.mark.parametrize("orbit", ["A3:2,1,1", "A3:2,2", "G2:dim8",
                                       "A5:3,2,1"])
    def test_same_verdict_and_counts(self, capsys, orbit):
        _, text = run(capsys, "classify", orbit)
        _, raw = run(capsys, "classify", orbit, "--json")
        result = json.loads(raw)["result"]
        assert f"verdict: {result['verdict']}" in text
        assert f"polarizations: {len(result['polarizations'])}" in text
        cc = result["chamber_complex"]
        if cc is None:
            assert "chambers: 0" in text
        else:
            assert f"chambers: {cc['chamber_count']}" in text
            assert f"walls: {len(cc['walls'])}" in text
