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

    def test_over_cap_orbit_is_domain_error(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify",
                             "A35:8,7,6,5,4,3,2,1", "--no-oracles", "--json")
        assert code == 1
        assert env["error"]["type"] == "SizeCapExceeded"

    def test_over_rank_cap_is_domain_error(self, capsys, validator):
        # the rank cap binds where a root system is built, not on the type
        for argv in [("twistor", "A200:{1}"),
                     ("classify", "A41:42", "--no-oracles")]:
            code, env = run_json(capsys, validator, *argv, "--json")
            assert code == 1
            assert env["error"]["type"] == "SizeCapExceeded"
        code, env = run_json(capsys, validator, "dim", "A300:301", "--json")
        assert code == 0
        assert env["result"]["orbit"]["dimension"] == 301 * 300

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

    def test_twistor_empty_marking_versus_empty_mark(self, capsys, validator):
        # "{}" is the empty marking, a domain answer; "{,}" is malformed
        for text, kind in [("A3:{}", "EmptyMarking"),
                           ("A3:{,}", "DimensionMismatch")]:
            code, env = run_json(capsys, validator, "twistor", text, "--json")
            assert code == 1 and env["error"]["type"] == kind


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

    @pytest.mark.parametrize("argv", [
        ("--suite", "ad-rank", "--max-n", "-3"),
        ("--suite", "cones", "--count", "-1"),
    ])
    def test_negative_cap_is_usage_error(self, capsys, argv):
        # a negative cap used to run zero cases and report "all pass"
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--suite", "chambers", "--max-n", "0"),
        ("--suite", "ad-rank", "--max-n", "1"),
        ("--suite", "richardson", "--max-n", "0"),
    ])
    def test_cap_that_admits_no_case_fails(self, capsys, validator, argv):
        # a verification that checked nothing must not claim success
        code, env = run_json(capsys, validator, "verify", *argv, "--json")
        assert env["result"]["total"] == 0
        assert env["result"]["all_pass"] is False
        assert code == 1
        code, out = run(capsys, "verify", *argv)
        assert code == 1
        assert out.endswith("0 cases, 0 failures, FAILED\n")

    def test_cones_without_random_cones_still_runs_its_rows(self, capsys,
                                                            validator):
        code, env = run_json(capsys, validator, "verify", "--suite", "cones",
                             "--count", "0", "--json")
        assert env["result"]["total"] == 11
        assert env["result"]["all_pass"] is True
        assert code == 0


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


# sha256 of the text output of each README tour command, run without
# ``--json``. Text bytes are not part of the schema, but a renderer change
# that alters them must still be deliberate and update this table.
TOUR_TEXT_DIGESTS = {
    "classify A3:2,2":
        "2332df8f809f5ca9519990e68aa6f91ec4d4c17492d20bb9cdd4f0b2a9b61f3a",
    "classify A3:2,1,1":
        "060ec7acc1f91951d31b436b2878f1d1ac8c6203706aab94021c110045afe34b",
    "classify G2:dim8":
        "16d97335c1e3c9fc6dbe234fe5fddf837e649e975ce52f52e8c502323bef3693",
    "classify G2:dim10":
        "ad0e3ec5c8e3d46ed99ae2e214b3fdf046bee9013da3ff4535f42f77b9ea5367",
    "dim C3:2,2,1,1":
        "5cde380844f4444edfa1a60e4a4456af27e0d5fb01d96ee687766eb95547be68",
    "polarizations A5:3,2,1":
        "1490cab7e66ac5d1956754b0da978f7c3ef04776e778e152d24a2ea06c38a95a",
    "chambers A3:2,1,1":
        "1357cd52a884ff6b6f287c1ae697ffd4fd064ed30081ae29148c1dd0c343d6fe",
    "twistor 'A3:{1}'":
        "8b2cf782270cc150ef8bc97150600ffad7a44ff631faa4dd21ce45774f653c6b",
    "verify --suite ad-rank --max-n 5 --seed 7":
        "fcb07eb945f9140ae68a50ac4727ce318c884aaf16ee5ce1d62dc336b9d76a63",
    "verify --suite cones --count 100":
        "ffeaa9e2278fd88b203eb8f00e0787b481cd8a1346866745c51d89beff87b0ef",
}


def readme_tour(as_json=True):
    """The README's CLI tour, each command with ``--json`` (or, with
    ``as_json=False``, each without it)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI tour", 1)[1].split("```sh", 1)[1]
    tour = []
    for line in block.split("```", 1)[0].strip().splitlines():
        argv = [a for a in shlex.split(line.split("#", 1)[0])[1:]
                if a != "--json"]
        tour.append(argv + ["--json"] if as_json else argv)
    return tour


class TestReadmeTour:
    def test_tour_is_pinned(self):
        assert [shlex.join(a) for a in readme_tour()] == list(TOUR_DIGESTS)
        assert ([shlex.join(a) for a in readme_tour(as_json=False)]
                == list(TOUR_TEXT_DIGESTS))

    @pytest.mark.parametrize("argv", readme_tour(), ids=shlex.join)
    def test_json_bytes_pinned(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == TOUR_DIGESTS[shlex.join(argv)]

    @pytest.mark.parametrize("argv", readme_tour(as_json=False),
                             ids=shlex.join)
    def test_text_bytes_pinned(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == TOUR_TEXT_DIGESTS[shlex.join(argv)]


# sha256 of ``verify --suite S --json`` at the default caps and seed for the
# oracle suites the tour does not run. A kernel or oracle rewrite must leave
# every row, seed and count as it was.
SUITE_DIGESTS = {
    "contact":
        "b6e1116e5112c0b18552e3cbcf6277bcd3c4d00d172722115b0281db88d27e2f",
    "kks":
        "5304c834133639eb4ab79d56b3cae1f6aabdcd15baeaaf6eb3440bafc3232dba",
    "richardson":
        "59bdee1291cf18877e5b05b4150d1ae48cece499b07d990998245f3347c81ca9",
    "fibers":
        "a6016c078ab8af101a08338b8955b936b51412cc9b4bc3e757b2d90d83f93761",
}


class TestOracleSuiteBytes:
    @pytest.mark.parametrize("suite", SUITE_DIGESTS)
    def test_json_bytes_pinned(self, capsys, suite):
        code, out = run(capsys, "verify", "--suite", suite, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            SUITE_DIGESTS[suite]


# sha256 of two chamber-complex documents (30 and 120 chambers), whose
# chambers share one ample orthant; the bytes must not notice the sharing.
CHAMBER_DIGESTS = {
    "classify A8:6,2,1 --no-oracles --json":
        "be10e3637613be21d888bbf3255b1d59bc2e4e7101c2529c991f0f5198eedb4d",
    "chambers A14:5,4,3,2,1 --json":
        "ee8a27ccba4bc3d9680d097cc2f3a516129f0cc0f1e99c6fc3ab089724f1a402",
}


class TestChamberComplexBytes:
    @pytest.mark.parametrize("command", CHAMBER_DIGESTS)
    def test_json_bytes_pinned(self, capsys, command):
        code, out = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            CHAMBER_DIGESTS[command]


class TestEncoderOnRealDocuments:
    """The envelope each command hands to ``to_json``, encoded by the
    stdlib, gives the bytes the CLI printed; ``TOUR_DIGESTS`` pins those
    bytes only for the tour, and only until its next deliberate update."""

    @pytest.mark.parametrize("argv", readme_tour() + [
        ["chambers", "A14:5,4,3,2,1", "--json"],
        ["verify", "--suite", "contact", "--json"],
    ], ids=shlex.join)
    def test_stdlib_bytes(self, capsys, monkeypatch, argv):
        envelopes, encode = [], cli.to_json

        def spy(obj):
            envelopes.append(obj)
            return encode(obj)

        monkeypatch.setattr(cli, "to_json", spy)
        _, out = run(capsys, *argv)
        [env] = envelopes
        assert out == json.dumps(env, indent=2, sort_keys=True) + "\n"


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
