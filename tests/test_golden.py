"""Golden CLI output: exit code, SHA-256 of stdout and the exact stderr.

The table pins every output format of ``count``, ``ratio``, ``bounds`` and
``enumerate``, the ``claims`` and ``oracle`` suites of ``verify`` run alone,
and their error paths, so a refactor behind the CLI shows up here the
moment one byte moves.  After a deliberate change to an output
format, print the new table with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff before pasting it in.

Below the table, the order in which the enumeration oracle's walks come
out is pinned past the sizes the table reaches, and the README's command
line and library examples are run as written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from plates_olives.cli import main
from plates_olives.games import enumerate_games, young_closed_walks
from plates_olives.references import dyck_paths


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout digest, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def _commands() -> list[tuple[str, ...]]:
    argvs: list[tuple[str, ...]] = []
    for variant in ("first-return", "closed", "young"):
        for fmt in ("table", "csv", "json"):
            argvs.append(("count", "--max-n", "8", "--variant", variant, "--format", fmt))
    for command in ("ratio", "bounds"):
        for fmt in ("table", "csv", "json"):
            argvs.append((command, "--max-n", "12", "--format", fmt))
    for emit in ("games", "skeletons", "histogram"):
        for n in range(5):
            argvs.append(("enumerate", "--n", str(n), "--emit", emit))
    # the two suites that read verify's pass over the games, each alone
    for suite in ("claims", "oracle"):
        argvs.append(("verify", "--suite", suite, "--oracle-ceiling", "4"))
    for variant in ("first-return", "closed", "young"):
        argvs.append(("count", "--max-n", "-1", "--variant", variant))
    argvs.append(("ratio", "--max-n", "0"))
    argvs.append(("enumerate", "--n", "9"))
    argvs.append(("count", "--max-n", "3", "--max-states", "0"))
    argvs.append(("count", "--max-n", "10", "--max-states", "20"))
    argvs.append(("enumerate", "--n", "-1"))
    argvs.append(("verify", "--oracle-ceiling", "-1"))
    argvs.append(("verify", "--suite", "paper-values", "--max-states", "0"))
    argvs.append(("enumerate", "--n", "0", "--oracle-ceiling", "-1"))
    argvs.append(("verify", "--suite", "claims", "--max-states", "0"))
    argvs.append(("bounds", "--max-n", "0"))
    return argvs


HELP_COMMANDS = [
    ("--help",),
    ("count", "--help"),
    ("enumerate", "--help"),
    ("verify", "--help"),
    ("ratio", "--help"),
    ("bounds", "--help"),
]

GOLDEN = {
    ('count', '--max-n', '8', '--variant', 'first-return', '--format', 'table'): (0, '0d3441945b17d4ac02ba1094f1037c7e172cff3c70767bad25c6fa5e50ab43ab', ''),
    ('count', '--max-n', '8', '--variant', 'first-return', '--format', 'csv'): (0, 'ea46b753ce0110467741f429d2b9610acec40bc4b08d61933707dce851e68773', ''),
    ('count', '--max-n', '8', '--variant', 'first-return', '--format', 'json'): (0, '79a569ea01162e2519c6132e0608cd9b91248f769ff503371d59c0c1e0eb6c9e', ''),
    ('count', '--max-n', '8', '--variant', 'closed', '--format', 'table'): (0, '0322f90b2cf64bb7c7abbce06d69cc15922722e238840f11bb60d0470056d2b3', ''),
    ('count', '--max-n', '8', '--variant', 'closed', '--format', 'csv'): (0, '69020c0796fce9fa1b3a440db8e89cb62c4ef093e6d9190a1443a0cee46d2dfb', ''),
    ('count', '--max-n', '8', '--variant', 'closed', '--format', 'json'): (0, '47fbb17ccdd8c8bede2b153e2afb09a0244c55b9d0396fd41ae44de91884d4c4', ''),
    ('count', '--max-n', '8', '--variant', 'young', '--format', 'table'): (0, '66d97067201d2102626fe1760e515dad2635932823fc779dd52d33322931da0e', ''),
    ('count', '--max-n', '8', '--variant', 'young', '--format', 'csv'): (0, 'afdd3515d3be4f7fe65cc0c1595adfca1f73d46eb14cb3b6bd76669c24e9950b', ''),
    ('count', '--max-n', '8', '--variant', 'young', '--format', 'json'): (0, '6a4be10fd089f38305f13005d0507caa2227831fa59b8fc8964b488a6f8b0b6b', ''),
    ('ratio', '--max-n', '12', '--format', 'table'): (0, 'e99a015658611530a748fb2a6994e441fd6619034d2ee8b14ea8851a263bdc0b', ''),
    ('ratio', '--max-n', '12', '--format', 'csv'): (0, 'f33ef3044f09ec0a89877ff4fa2e67682e286fa4a59296dc309b832502aa8afb', ''),
    ('ratio', '--max-n', '12', '--format', 'json'): (0, '0865b652dee3ba31085322ef674b6f84336823c1a29a95544d4b5d29dd1700a7', ''),
    ('bounds', '--max-n', '12', '--format', 'table'): (0, 'c985cc16c423a10648a3d03f404def212328f4e69892f6823bc9fb15a8ef8371', ''),
    ('bounds', '--max-n', '12', '--format', 'csv'): (0, '2c9af9c290ea26d432f92726bb7ac0bed91def5015c5176766b883aa04c18aa8', ''),
    ('bounds', '--max-n', '12', '--format', 'json'): (0, '81fbe6f80abd04bc357b7482353b32479ffabc554ca62d1416d3a472aaff4acb', ''),
    ('enumerate', '--n', '0', '--emit', 'games'): (0, '788265d027f82de666dcc1a7b857eccb369ea6fd556b1e50078227face4e8ee2', ''),
    ('enumerate', '--n', '1', '--emit', 'games'): (0, 'b4698db0a3c69a48d9eaf803cf9d171c1d9a9be042a1a4042a880609e6024778', ''),
    ('enumerate', '--n', '2', '--emit', 'games'): (0, '872c5c0dc30eb4014f55ed3236cbfc60e4625c7106ef655a70f3b8e699368711', ''),
    ('enumerate', '--n', '3', '--emit', 'games'): (0, '8b9b21a00c9781328f38f251d7141ba886daee48faa405ab2794c4d6f19d1a54', ''),
    ('enumerate', '--n', '4', '--emit', 'games'): (0, '162b6b5b35d517c60f66785f6f6f08d645c06b4c69dc7c55617d4c0f3b5a3c38', ''),
    ('enumerate', '--n', '0', '--emit', 'skeletons'): (0, '788265d027f82de666dcc1a7b857eccb369ea6fd556b1e50078227face4e8ee2', ''),
    ('enumerate', '--n', '1', '--emit', 'skeletons'): (0, '03f6ab83aaf3175482f9d14e026a5200ebc801eae3dc91e85f29858f167eb679', ''),
    ('enumerate', '--n', '2', '--emit', 'skeletons'): (0, '8c246da145441502bdce8699c1875a4354c1b11b40205e52a695d26a23f9227d', ''),
    ('enumerate', '--n', '3', '--emit', 'skeletons'): (0, '4fac252cfe32d2e77e1471f6a18187d51a5d4217885403a3c032a99a9945499a', ''),
    ('enumerate', '--n', '4', '--emit', 'skeletons'): (0, '612b5caef7f6f7872b2593471b5b86ba0591531e3c1a0f0cb54a3cd02a88c99b', ''),
    ('enumerate', '--n', '0', '--emit', 'histogram'): (0, '4f4ca79112e88ec981c446f48e3520a4e3697152cc97fd9493ed973b8b20bbf5', ''),
    ('enumerate', '--n', '1', '--emit', 'histogram'): (0, 'e85bf2e64c5360aa4c0afb91d9a9e27a35e019d5cd121d7ee651f53d6e7ccae2', ''),
    ('enumerate', '--n', '2', '--emit', 'histogram'): (0, '15ce2cf39c674cc475b6a9822c1bb37b8643f0c5435b2e3ccca322941cf97e9e', ''),
    ('enumerate', '--n', '3', '--emit', 'histogram'): (0, 'd43807525e23fd9b0f65412ae0122ccd9cca6f9553180113c1d33a9f9514cebd', ''),
    ('enumerate', '--n', '4', '--emit', 'histogram'): (0, '186ea6fa09b143b33d7f1fbf331cb53c1a1973b16e43200bbf970a5c44d6a7a1', ''),
    ('verify', '--suite', 'claims', '--oracle-ceiling', '4'): (0, 'be44497ea0bd19f2400c0a79c7163f22695eb16a71ed273c4bfcb7064d9ea6f0', ''),
    ('verify', '--suite', 'oracle', '--oracle-ceiling', '4'): (0, '062bfa7ccfdcca00606fd24015d915dfc9903ff70bc181f851a59d86b77a25d0', ''),
    ('count', '--max-n', '-1', '--variant', 'first-return'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_n must be nonnegative\n'),
    ('count', '--max-n', '-1', '--variant', 'closed'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_n must be nonnegative\n'),
    ('count', '--max-n', '-1', '--variant', 'young'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_semilength must be nonnegative\n'),
    ('ratio', '--max-n', '0'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_n must be at least 1\n'),
    ('enumerate', '--n', '9'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: exhaustive enumeration at n=9 exceeds the ceiling 6\n'),
    ('count', '--max-n', '3', '--max-states', '0'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_states must be positive\n'),
    ('count', '--max-n', '10', '--max-states', '20'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: more than 20 distinct states; raise max_states to continue\n'),
    ('enumerate', '--n', '-1'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: game length must be nonnegative\n'),
    ('verify', '--oracle-ceiling', '-1'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: oracle ceiling must be nonnegative\n'),
    ('verify', '--suite', 'paper-values', '--max-states', '0'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_states must be positive\n'),
    ('enumerate', '--n', '0', '--oracle-ceiling', '-1'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: oracle ceiling must be nonnegative\n'),
    ('verify', '--suite', 'claims', '--max-states', '0'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_states must be positive\n'),
    ('bounds', '--max-n', '0'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_n must be at least 1\n'),
}

# argparse lays out --help differently from one Python release to the next
HELP_PYTHON = (3, 11)
HELP_GOLDEN = {
    ('--help',): (0, '394665ff8af0e4a97a29f9b94fb5e8aaaff8acf6a473988bb4ca7fb4890ac099', ''),
    ('count', '--help'): (0, '5967f0f1716acb3a48f9aefe337da0715091c08a6a4e7ae4ce5058e74c423142', ''),
    ('enumerate', '--help'): (0, '6f42db295bd6080acccb2d0e0b7b381456540de2c0f348adfea5c0e229f43455', ''),
    ('verify', '--help'): (0, 'aaa7a56a81b5df38b7a3b2dbabeb65d9f59fb5d338b3a354ed94ec090b65dfd6', ''),
    ('ratio', '--help'): (0, 'a482cb3ccef84dd513de168d52028d805480e9769f35633ede216e94810b4247', ''),
    ('bounds', '--help'): (0, 'a9fe6e11507c18d267c7626e97efcde72d3c13f3ae3f1507321f36a7f4eeaaa7', ''),
}


# The oracle's walks in order: the SHA-256 of the games of length 5, one
# token line each (the stdout of ``enumerate --n 5 --emit games``), and per
# even length L, the number of Young walks and the SHA-256 of their lines
# of states.
GAMES_5_DIGEST = "f25a20abc40a35503a0e0f515426006e646b51571922474a873c8c664dae2cc9"
YOUNG_WALK_DIGESTS = {
    0: (1, "c297dc29728d50fd786c7303124d325f850a12d98776cf36683a90039ebca3b6"),
    2: (1, "318ff35898c52e2aebadce0c2b611108908c9784a0901933148ba544d8c3ae70"),
    4: (3, "f31fe156cf402410d2f70834a76f934f248091fb4a4f5c6264f384ca984dfc7b"),
    6: (15, "2a4cbd1ee941e147719b011dd33de6d386f9cfb990ff1587c4fc146c17fdc02a"),
    8: (105, "f7dcebd11c9fed8a96e22ce6b1c577aaddb8c12629b1d1d378c4232f322fad74"),
    10: (945, "341581785cedc62c4b6708cd11ef652cf2f27cfde5690e58de599c0e7f603fe8"),
    12: (10395, "e08332a5428b63c52947499608759db59c908fcb8c3a558882dea1e2840a2707"),
}


def _line_digest(lines) -> tuple[int, str]:
    """(number of lines, SHA-256 of the lines joined with newlines)."""
    h = hashlib.sha256()
    count = 0
    for count, line in enumerate(lines, 1):
        h.update(line.encode() + b"\n")
    return count, h.hexdigest()


def _dyck_reference(up: int, down: int) -> list[tuple[int, ...]]:
    """Every ending of a Dyck path with ``up`` up-steps and ``down``
    down-steps still to take, so from height ``down - up``, up-step first."""
    if not down:
        return [()]
    out = [(1, *rest) for rest in _dyck_reference(up - 1, down)] if up else []
    if down > up:
        out += [(-1, *rest) for rest in _dyck_reference(up, down - 1)]
    return out


def test_game_order_at_length_5():
    assert _line_digest(g.text for g in enumerate_games(5)) == (9856, GAMES_5_DIGEST)


@pytest.mark.parametrize("length", sorted(YOUNG_WALK_DIGESTS))
def test_young_walk_order(length):
    walks = young_closed_walks(length)
    lines = (" ".join(map(str, walk)) for walk in walks)
    assert _line_digest(lines) == YOUNG_WALK_DIGESTS[length]


@pytest.mark.parametrize("semilength", range(11))
def test_dyck_path_order(semilength):
    assert list(dyck_paths(semilength)) == _dyck_reference(semilength, semilength)


def test_table_covers_every_command():
    assert list(GOLDEN) == _commands()
    assert list(HELP_GOLDEN) == HELP_COMMANDS


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_golden_output(argv):
    assert run_cli(argv) == GOLDEN[argv]


def _readme_block(opening: str) -> str:
    """The README's fenced block that starts with ``opening``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(opening, 1)[1].split("```", 1)[0]


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) of each example in the README's
    "Command line" block; examples are separated by blank lines."""
    block = _readme_block("## Command line\n\n```\n")
    examples = []
    for example in block.strip().split("\n\n"):
        command, *expected = example.splitlines()
        examples.append((command, expected))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert README_EXAMPLES
    assert all(command.startswith("$ plates-olives ") for command, _ in README_EXAMPLES)


@pytest.mark.parametrize(
    "command, expected",
    [pytest.param(c, e, id=c.removeprefix("$ plates-olives ")) for c, e in README_EXAMPLES],
)
def test_readme_example(command, expected):
    # `| tail -1` keeps the last line of stdout; a `...` line stands for
    # any number of lines
    argv = command.removeprefix("$ plates-olives ")
    tail = argv.endswith(" | tail -1")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv.removesuffix(" | tail -1").split())
    lines = out.getvalue().splitlines()
    if tail:
        lines = lines[-1:]
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected
    )
    assert rc == 0
    assert re.fullmatch(pattern, "".join(line + "\n" for line in lines))


def test_readme_library_example():
    # each `expr  # result` line: the result, cut at its first ", " or
    # "...", must start the repr of expr; other lines just run
    namespace: dict = {}
    checked = []
    for line in _readme_block("## Library\n\n```python\n").splitlines():
        code, _, result = line.partition("  # ")
        if not result:
            exec(code, namespace)
            continue
        expected = re.split(r", |\.\.\.", result, maxsplit=1)[0]
        assert repr(eval(code, namespace)).startswith(expected), line
        checked.append(code.strip())
    assert "ratio_table(count_games_through(18))[-1].ratio" in checked


@pytest.mark.skipif(
    sys.version_info[:2] != HELP_PYTHON,
    reason="help digests were taken with a different argparse",
)
@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=" ".join)
def test_golden_help(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == HELP_GOLDEN[argv]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for name, argvs in (("GOLDEN", _commands()), ("HELP_GOLDEN", HELP_COMMANDS)):
        print(f"{name} = {{")
        for argv in argvs:
            print(f"    {argv!r}: {run_cli(argv)!r},")
        print("}")
