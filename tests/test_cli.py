import ast
import hashlib
import json
import random
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from contactres import __version__, cli, lie_core, orbits, resolutions
from contactres.cli import _build_parser, main

ROOT = Path(__file__).resolve().parent.parent


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
        # a closed form meets no cap while str() writes its answer: a
        # 2,000-digit rank's regular orbit has a 4,001-digit dimension
        for rank in (300, 10**2000):
            code, env = run_json(capsys, validator, "dim",
                                 f"A{rank}:{rank + 1}", "--json")
            assert code == 0
            assert env["result"]["orbit"]["dimension"] == (rank + 1) * rank

    @pytest.mark.parametrize("orbit, module, name", [
        ("A299999:300000", resolutions, "parabolic"),
        ("B299999:599999", lie_core, "_nilradical")],
        ids=["type-A", "regular-B"])
    def test_over_rank_cap_refused_before_any_marking(
            self, capsys, validator, monkeypatch, orbit, module, name):
        # counting the orderings, or OR-ing the 299,999 marked nodes'
        # root bitsets of the Borel, takes seconds, so the root system
        # refuses the rank before the per-type table is built
        def refuse(*args):
            raise AssertionError(f"{name} called before the rank cap")
        monkeypatch.setattr(module, name, refuse)
        code, env = run_json(capsys, validator, "classify", orbit,
                             "--no-oracles", "--json")
        assert code == 1
        assert env["error"] == {
            "type": "SizeCapExceeded",
            "message": f"{orbit[:7]} has rank 299999, over the root-system "
                       "cap of 40"}

    @pytest.mark.parametrize("command", ["polarizations", "chambers",
                                         "classify"])
    def test_regular_orbit_of_a_101_digit_rank_is_refused(
            self, capsys, validator, command):
        # the Borel's marking would be as long as the rank
        rank = 10**100
        code, env = run_json(capsys, validator, command,
                             f"C{rank}:{2 * rank}", "--json")
        assert code == 1
        assert env["error"] == {
            "type": "SizeCapExceeded",
            "message": f"C{rank} has rank {rank}, over the root-system cap "
                       "of 40"}

    @pytest.mark.parametrize("command, expected", [
        (("dim",), 10**24 - 10**12),
        (("classify", "--no-oracles"), "SizeCapExceeded")],
        ids=["dim", "classify"])
    def test_huge_parts_read_in_closed_form(self, capsys, validator,
                                            monkeypatch, command, expected):
        # the dual partition of 10^12 has 10^12 parts, so the dimension
        # is read off the parts themselves
        def refuse(part):
            raise AssertionError("dual partition built")
        monkeypatch.setattr(orbits, "dual_partition", refuse)
        code, env = run_json(capsys, validator, command[0],
                             "A999999999999:1000000000000", *command[1:],
                             "--json")
        if command == ("dim",):
            assert code == 0
            assert env["result"]["orbit"]["dimension"] == expected
        else:
            assert code == 1
            assert env["error"]["type"] == expected

    def test_no_oracles_flag(self, capsys, validator):
        code, env = run_json(capsys, validator, "classify", "A3:2,2",
                             "--json", "--no-oracles")
        assert code == 0
        assert env["result"]["oracle_checks"] == []

    def test_over_rank_cap_non_regular_builds_no_root_system(
            self, capsys, validator, monkeypatch):
        # the regular orbit is found by its dimension, so a B/C/D orbit
        # over the rank cap that is not regular is Unknown at once
        def refuse(t):
            raise AssertionError(f"root system of {t} built")
        build = lie_core.build_root_system
        for mod in list(sys.modules.values()):
            if getattr(mod, "build_root_system", None) is build:
                monkeypatch.setattr(mod, "build_root_system", refuse)
        code, env = run_json(capsys, validator, "classify", "B41:81,1,1",
                             "--no-oracles", "--json")
        assert code == 0
        assert env["result"]["verdict"] == "Unknown"


class TestVeryEvenLabels:
    # an untagged very-even label names two orbits whose Richardson
    # preimages differ, so a decision needs the tag; their dimension does not
    @pytest.mark.parametrize("command", ["classify", "polarizations",
                                         "chambers"])
    @pytest.mark.parametrize("orbit", ["D4:4,4", "D4:2,2,2,2", "D6:4,4,2,2"])
    def test_untagged_label_refused(self, capsys, validator, command, orbit):
        code, env = run_json(capsys, validator, command, orbit, "--json")
        assert code == 1
        assert env["error"] == {
            "type": "InvalidPartition",
            "message": f"{orbit} is very even and names two orbits, "
                       f"{orbit}/I and {orbit}/II; give the tag"}

    def test_dim_accepts_untagged_label(self, capsys, validator):
        dims = []
        for label in ("D4:4,4", "D4:4,4/I", "D4:4,4/II"):
            code, env = run_json(capsys, validator, "dim", label, "--json")
            assert code == 0
            dims.append(env["result"]["orbit"]["dimension"])
        assert dims == [20, 20, 20]


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

    @pytest.mark.parametrize("argv, kind, message", [
        (("dim", "A3:" + "9" * 5000), "InvalidPartition",
         "a part of the A3 partition has too many digits to read"),
        (("dim", "A" + "9" * 5000 + ":2"), "InvalidRank",
         "the rank of type A has too many digits to read"),
        (("twistor", "A3:{" + "9" * 5000 + "}"), "DimensionMismatch",
         "a marked root has too many digits to read"),
        (("dim", f"A{10**2200 - 1}:{10**2200}"), "SizeCapExceeded",
         "the orbit dimension has more than 4300 digits, too many to write"),
        (("classify", f"B{10**2200}:{2 * 10**2200 - 1},1,1"),
         "SizeCapExceeded",
         "the orbit dimension has more than 4300 digits, too many to write")],
        ids=["part", "rank", "mark", "dimension", "classify-dimension"])
    def test_integer_over_the_digit_limit_is_domain_error(
            self, capsys, validator, argv, kind, message):
        # int() refuses a string of more than 4,300 digits with a
        # ValueError, and str() an int of more
        code, env = run_json(capsys, validator, *argv, "--json")
        assert code == 1
        assert env["error"] == {"type": kind, "message": message}
        assert run(capsys, *argv) == (1, f"error [{kind}]: {message}\n")

    def test_twistor_empty_marking_versus_empty_mark(self, capsys, validator):
        # "{}" is the empty marking, a domain answer; "{,}" is malformed
        for text, kind in [("A3:{}", "EmptyMarking"),
                           ("A3:{,}", "DimensionMismatch")]:
            code, env = run_json(capsys, validator, "twistor", text, "--json")
            assert code == 1 and env["error"]["type"] == kind


@pytest.mark.parametrize("orbit", ["A5:3,2,1", "B2:5", "G2:dim12"])
@pytest.mark.parametrize("argv", [
    ["dim"], ["polarizations"], ["chambers"], ["classify"],
    ["classify", "--no-oracles"]], ids=" ".join)
def test_one_orbit_dimension_per_request(capsys, monkeypatch, argv, orbit):
    # a request builds one orbit record and hands it to the decision, the
    # report and the oracle rows
    calls = []
    dimension = orbits.orbit_dimension
    for mod in list(sys.modules.values()):
        if getattr(mod, "orbit_dimension", None) is dimension:
            monkeypatch.setattr(mod, "orbit_dimension", lambda o: (
                calls.append(o) or dimension(o)))
    code, _ = run(capsys, argv[0], orbit, *argv[1:], "--json")
    assert code == 0
    assert calls == [orbits.parse_orbit(orbit)]


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

    @pytest.mark.parametrize("suite, kind", [
        ("ad-rank", "partition"), ("kks", "partition"),
        ("contact", "partition"), ("richardson", "composition"),
        ("fibers", "composition")])
    def test_over_cap_suite_refused_before_its_first_row(
            self, capsys, monkeypatch, suite, kind):
        # an over-cap suite used to build every row under the cap first
        # (232 contact rows, ~11 s) and then raise at n = 9; it now runs
        # no oracle and keeps the error bytes, which name n = 9
        from contactres import oracle_lab
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("an oracle ran before the cap")
        for name in ("jordan_nilpotent", "generic_jordan_type",
                     "generic_fiber_count"):
            monkeypatch.setattr(oracle_lab, name, refuse)
        message = f"{kind} of 9 exceeds cap 8"
        for max_n in ("9", "40"):
            code, out = run(capsys, "verify", "--suite", suite, "--max-n",
                            max_n, "--json")
            assert (code, out) == (1, "\n".join([
                '{',
                '  "artifact_version": "0.1.0",',
                '  "command": "verify",',
                '  "error": {',
                f'    "message": "{message}",',
                '    "type": "SizeCapExceeded"',
                '  },',
                '  "request": {',
                f'    "max_n": {max_n},',
                '    "output_format": "json",',
                '    "seed": 0,',
                f'    "suite": "{suite}"',
                '  },',
                '  "schema": "contactres-report/1",',
                '  "table_version": "1"',
                '}\n']))
            code, out = run(capsys, "verify", "--suite", suite, "--max-n",
                            max_n)
            assert (code, out) == (
                1, f"error [SizeCapExceeded]: {message}\n")
        assert calls == []

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


# the hostile part of the alphabet of ``random_argv``: help, version,
# abbreviations, an option with "=", negative numbers, "--", empty and
# unknown tokens, and a second positional
HOSTILE_TOKENS = ["-h", "--help", "--version", "--ver", "--no-o", "--js",
                  "--se", "--max", "--su", "--seed=5", "-3", "--", "-", "",
                  "frobnicate", "A3:2,2", "x", "0", "12", "999"]
LABELS = ["A4:2,2,1", "G2:dim8", "A3:{1}"]


def random_argv(rng):
    """A seeded argv: a declared command, its arguments in a random order
    (each kept with probability 4/5, a value option with a valid value),
    then up to three edits, each deleting a token or inserting one drawn
    from every declared command, option string and choice, ``LABELS``
    and ``HOSTILE_TOKENS``."""
    declared = [(flags, spec) for _, arguments, _, _ in cli._COMMANDS.values()
                for flags, spec in arguments]
    alphabet = [*cli._COMMANDS, *LABELS, *HOSTILE_TOKENS] + [
        token for flags, spec in declared if flags[0][0] == "-"
        for token in (*flags, *spec.get("choices", ()))]
    command = rng.choice(list(cli._COMMANDS))
    arguments = list(cli._COMMANDS[command][1])
    rng.shuffle(arguments)
    argv = [command]
    for flags, spec in arguments:
        if rng.random() < 0.2:
            continue
        if flags[0][0] != "-":
            argv.append(rng.choice(LABELS))
            continue
        argv.append(rng.choice(flags))
        if spec.get("action") != "store_true":
            argv.append(rng.choice(spec.get("choices", ["0", "7"])))
    for _ in range(rng.randint(0, 3)):
        if argv and rng.random() < 0.5:
            del argv[rng.randrange(len(argv))]
        else:
            argv.insert(rng.randint(0, len(argv)), rng.choice(alphabet))
    return argv


class TestDeclaredParse:
    def test_matches_argparse_on_random_argv(self, capsys):
        # either the fallback, or exactly argparse's namespace, in order;
        # wherever argparse exits (help, version, usage error), the fallback
        rng = random.Random("declared-parse")
        declared = exits = 0
        for _ in range(4000):
            argv = random_argv(rng)
            got = cli._parse_declared(argv)
            try:
                want = _build_parser().parse_args(argv)
            except SystemExit:
                exits += 1
                assert got is None, argv
                continue
            if got is not None:
                declared += 1
                assert list(vars(got).items()) == list(vars(want).items()), \
                    argv
        # neither path is vacuous
        assert declared > 400 and exits > 400, (declared, exits)

    # one argv of each command in the form the benchmark's request-mix
    # sends, besides the README tour
    REQUEST_MIX = [
        ["classify", "A4:2,2,1", "--no-oracles", "--seed", "512", "--json"],
        ["classify", "B3:3,3,1", "--seed", "512", "--json"],
        ["dim", "B3:3,3,1", "--json"],
        ["polarizations", "C3:2,2,1,1", "--json"],
        ["chambers", "A4:3,2", "--json"],
        ["twistor", "E6:{2}", "--json"],
        ["dim", "H4:1", "--json"],
    ]

    @pytest.mark.parametrize(
        "argv", readme_tour() + readme_tour(as_json=False) + REQUEST_MIX,
        ids=shlex.join)
    def test_well_formed_request_builds_no_parser(self, capsys, monkeypatch,
                                                  argv):
        def refuse():
            raise AssertionError("argparse parser built")
        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, out = run(capsys, *argv)
        pinned = {**TOUR_DIGESTS, **TOUR_TEXT_DIGESTS}.get(shlex.join(argv))
        if pinned is not None:
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == pinned
            return
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_parse_declared", lambda argv: None)
        assert run(capsys, *argv) == (code, out)


class TestConverterRefusal:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "kks", "--max-n", "x"],
        ["verify", "--suite", "kks", "--count", "1" * 5000],
        ["classify", "A3:2,2", "--seed", "x"],
    ], ids=shlex.join)
    def test_goes_to_argparse_with_its_message(self, capsys, argv):
        # a value its converter refuses is argparse's to word
        assert cli._parse_declared(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err


# modules a CLI process loads only when its command runs them (``json``
# never: the report quotes strings with the C quoter of ``_json``; ``re``
# never: labels are read with string operations; the cone engine only for
# ``verify --suite cones``; ``fractions`` by none of the commands below, as
# the oracles take integer models)
DEFERRED = ("argparse", "fractions", "importlib.resources", "json", "re",
            "contactres.verify", "contactres.oracle_lab", "contactres.cones")

# sha256 of ``classify A3:2,2 --no-oracles --json``, the bytes from before
# the start-up imports were deferred
NO_ORACLES_DIGEST = \
    "3933df39f56bd94ea92145b1f65a7b85c509c817ba69aae612a5aa92ee98a5aa"

START_UP_CODE = f"""
import io, sys
sys.path.insert(0, sys.argv[1])
DEFERRED = {DEFERRED!r}

def loaded():
    return [name for name in DEFERRED if name in sys.modules]

def run(*argv):
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, out = stdout, sys.stdout.getvalue()
    return code, out, loaded()

import contactres.cli as cli
cli.table_version()
print(repr((loaded(),
            run("classify", "A3:2,2", "--no-oracles", "--json"),
            run("classify", "A3:2,2", "--json"),
            run("verify", "--suite", "cones", "--count", "1", "--json"))))
"""


class TestStartUp:
    def test_a_command_loads_only_what_it_runs(self):
        # a clean interpreter (no site hooks) sees every module the
        # package itself imports
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", START_UP_CODE,
             str(ROOT / "src")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-3000:]
        at_import, no_oracles, oracles, cones = ast.literal_eval(proc.stdout)
        assert at_import == []
        code, out, after = no_oracles
        assert (code, after) == (0, [])
        assert hashlib.sha256(out.encode()).hexdigest() == NO_ORACLES_DIGEST
        code, out, after = oracles
        assert code == 0
        assert "contactres.verify" in after and "contactres.oracle_lab" in after
        assert "contactres.cones" not in after and "fractions" not in after
        assert "re" not in after
        assert hashlib.sha256(out.encode()).hexdigest() == \
            TOUR_DIGESTS["classify A3:2,2 --json"]
        code, out, after = cones
        assert code == 0 and "contactres.cones" in after
        assert "fractions" not in after and "re" not in after

    def test_suite_names_literal_is_verifys(self):
        from contactres.verify import suite_names
        assert cli.SUITE_NAMES == suite_names()


def stated_value(comment):
    """The value a README comment states: its longest leading literal."""
    for end in range(len(comment), 0, -1):
        try:
            return ast.literal_eval(comment[:end].strip())
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"comment {comment!r} states no value")


class TestReadmeLibrarySketch:
    def test_each_stated_value_holds(self):
        # run the python block under "Library sketch" a statement at a
        # time; each bare expression must equal the value its comment states
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        block = readme.split("## Library sketch", 1)[1] \
            .split("```python", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        namespace = {}
        checked = {}
        for node in ast.parse(block).body:
            code = compile(ast.Module([node], []), "README.md", "exec")
            if not isinstance(node, ast.Expr):
                exec(code, namespace)
                continue
            source = ast.get_source_segment(block, node)
            comment = lines[node.lineno - 1].split("#", 1)[1]
            checked[source] = eval(compile(ast.Expression(node.value),
                                           "README.md", "eval"), namespace)
            assert checked[source] == stated_value(comment), source
        assert checked == {
            "report.verdict": "ContactResolutionsExist",
            "[p.composition for p in report.polarizations]": [(2, 2)],
            "all(row.agrees for row in rows)": True,
            "cc.chamber_count, len(cc.walls)": (6, 6),
            "addim(m)": 4,
            "contact_check(m).is_contact": True,
        }


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
